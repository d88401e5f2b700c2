#include "core/expr.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/arena.h"

#include "common/logging.h"
#include "primitives/simd.h"
#include "storage/dsb.h"

namespace rapid::core {

using primitives::ArithOp;
using primitives::CmpOp;

ExprPtr Expr::Col(std::string name) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kColumn;
  e->column = std::move(name);
  return e;
}

ExprPtr Expr::Int(int64_t v) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kConst;
  e->value = v;
  e->scale = 0;
  return e;
}

ExprPtr Expr::Dec(double v, int scale) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kConst;
  e->value = static_cast<int64_t>(
      std::llround(v * static_cast<double>(storage::Pow10(scale))));
  e->scale = scale;
  return e;
}

namespace {

ExprPtr MakeBinary(ArithOp op, ExprPtr l, ExprPtr r) {
  auto e = std::make_shared<Expr>();
  e->kind = Expr::Kind::kBinary;
  e->op = op;
  e->left = std::move(l);
  e->right = std::move(r);
  return e;
}

}  // namespace

ExprPtr Expr::Add(ExprPtr l, ExprPtr r) {
  return MakeBinary(ArithOp::kAdd, std::move(l), std::move(r));
}
ExprPtr Expr::Sub(ExprPtr l, ExprPtr r) {
  return MakeBinary(ArithOp::kSub, std::move(l), std::move(r));
}
ExprPtr Expr::Mul(ExprPtr l, ExprPtr r) {
  return MakeBinary(ArithOp::kMul, std::move(l), std::move(r));
}

void Expr::CollectColumns(std::vector<std::string>* out) const {
  switch (kind) {
    case Kind::kColumn:
      out->push_back(column);
      break;
    case Kind::kConst:
      break;
    case Kind::kBinary:
      left->CollectColumns(out);
      right->CollectColumns(out);
      break;
  }
}

Result<size_t> SlotOf(const std::vector<ColumnMeta>& input,
                      const std::string& name) {
  for (size_t c = input.size(); c-- > 0;) {
    if (input[c].name == name) return c;
  }
  return Status::NotFound("unbound column '" + name + "'");
}

Result<ExprPtr> Bind(const Expr& expr, const std::vector<ColumnMeta>& input) {
  auto bound = std::make_shared<Expr>(expr);
  switch (expr.kind) {
    case Expr::Kind::kColumn: {
      RAPID_ASSIGN_OR_RETURN(size_t slot, SlotOf(input, expr.column));
      bound->slot = static_cast<int>(slot);
      bound->scale = input[slot].dsb_scale;
      break;
    }
    case Expr::Kind::kConst:
      break;
    case Expr::Kind::kBinary: {
      RAPID_ASSIGN_OR_RETURN(bound->left, Bind(*expr.left, input));
      RAPID_ASSIGN_OR_RETURN(bound->right, Bind(*expr.right, input));
      const int l = bound->left->scale;
      const int r = bound->right->scale;
      bound->scale = expr.op == ArithOp::kMul ? l + r : std::max(l, r);
      break;
    }
  }
  return ExprPtr(std::move(bound));
}

ColumnMeta ScaledMeta(std::string name, int scale) {
  ColumnMeta m;
  m.name = std::move(name);
  m.dsb_scale = scale;
  m.type = scale != 0 ? storage::DataType::kDecimal : storage::DataType::kInt64;
  return m;
}

ColumnMeta ExprMeta(std::string name, const Expr& bound,
                    const std::vector<ColumnMeta>& input) {
  if (bound.kind == Expr::Kind::kColumn) {
    ColumnMeta m = input[static_cast<size_t>(bound.slot)];
    m.name = std::move(name);
    return m;
  }
  return ScaledMeta(std::move(name), bound.scale);
}

Status EvalExpr(ExecCtx& ctx, const Tile& tile, const Expr& expr,
                int64_t* out) {
  const size_t n = tile.rows;
  switch (expr.kind) {
    case Expr::Kind::kColumn:
      // Widening copy; free on the DPU where the load unit widens.
      WidenColumn(tile.columns[static_cast<size_t>(expr.slot)], nullptr, n,
                  out);
      return Status::OK();
    case Expr::Kind::kConst:
      std::fill_n(out, n, expr.value);
      return Status::OK();
    case Expr::Kind::kBinary: {
      // Intermediates live in recycled tile-pool buffers (released on
      // scope exit), so nested expressions never touch the heap after
      // the pool warms up.
      TileBufferPool::Handle lhs = ctx.pool().AcquireArray<int64_t>(n);
      TileBufferPool::Handle rhs = ctx.pool().AcquireArray<int64_t>(n);
      RAPID_RETURN_NOT_OK(EvalExpr(ctx, tile, *expr.left, lhs.as<int64_t>()));
      RAPID_RETURN_NOT_OK(
          EvalExpr(ctx, tile, *expr.right, rhs.as<int64_t>()));
      const int lscale = expr.left->scale;
      const int rscale = expr.right->scale;
      if (expr.op == ArithOp::kMul) {
        // DSB multiply: mantissas multiply, scales add.
        primitives::DsbMulTile(lhs.as<int64_t>(), lscale, rhs.as<int64_t>(),
                               rscale, n, out);
        ctx.ChargeCompute((ctx.params->arith_cycles_per_row +
                           ctx.params->mult_extra_cycles_per_row) *
                          static_cast<double>(n));
      } else {
        // Add/sub require a common scale; rescale the smaller side.
        if (lscale < expr.scale) {
          primitives::DsbRescaleTile(lhs.as<int64_t>(), n, lscale, expr.scale);
        }
        if (rscale < expr.scale) {
          primitives::DsbRescaleTile(rhs.as<int64_t>(), n, rscale, expr.scale);
        }
        if (expr.op == ArithOp::kAdd) {
          primitives::ArithColCol<ArithOp::kAdd, int64_t>(
              lhs.as<int64_t>(), rhs.as<int64_t>(), n, out);
        } else {
          primitives::ArithColCol<ArithOp::kSub, int64_t>(
              lhs.as<int64_t>(), rhs.as<int64_t>(), n, out);
        }
        ctx.ChargeCompute(ctx.params->arith_cycles_per_row *
                          static_cast<double>(n));
      }
      ctx.ChargeVectorizationPenalty(n);
      return Status::OK();
    }
  }
  return Status::Internal("unreachable expression kind");
}

Predicate Predicate::CmpConst(std::string column, CmpOp op, int64_t value,
                              double selectivity) {
  Predicate p;
  p.kind = Kind::kCmpConst;
  p.column = std::move(column);
  p.op = op;
  p.value = value;
  p.selectivity = selectivity;
  return p;
}

Predicate Predicate::Between(std::string column, int64_t lo, int64_t hi,
                             double selectivity) {
  Predicate p;
  p.kind = Kind::kBetween;
  p.column = std::move(column);
  p.value = lo;
  p.value2 = hi;
  p.selectivity = selectivity;
  return p;
}

Predicate Predicate::InSet(std::string column, BitVector codes,
                           double selectivity) {
  Predicate p;
  p.kind = Kind::kInSet;
  p.column = std::move(column);
  p.in_set = std::move(codes);
  p.selectivity = selectivity;
  return p;
}

Predicate Predicate::CmpCol(std::string left, CmpOp op, std::string right,
                            double selectivity) {
  Predicate p;
  p.kind = Kind::kCmpCol;
  p.column = std::move(left);
  p.op = op;
  p.column2 = std::move(right);
  p.selectivity = selectivity;
  return p;
}

Predicate Predicate::Bloom(std::string column,
                           const primitives::BlockedBloomFilter* filter,
                           double selectivity) {
  Predicate p;
  p.kind = Kind::kBloom;
  p.column = std::move(column);
  p.bloom = filter;
  p.selectivity = selectivity;
  return p;
}

Result<Predicate> Bind(const Predicate& pred,
                       const std::vector<ColumnMeta>& input) {
  Predicate bound = pred;
  RAPID_ASSIGN_OR_RETURN(size_t slot, SlotOf(input, pred.column));
  bound.slot = static_cast<int>(slot);
  if (pred.kind == Predicate::Kind::kCmpCol) {
    RAPID_ASSIGN_OR_RETURN(size_t slot2, SlotOf(input, pred.column2));
    bound.slot2 = static_cast<int>(slot2);
  }
  return bound;
}

bool SameExpr(const ExprPtr& a, const ExprPtr& b) {
  if (a == nullptr || b == nullptr) return a == b;
  return a->kind == b->kind && a->column == b->column &&
         a->value == b->value && a->scale == b->scale && a->op == b->op &&
         SameExpr(a->left, b->left) && SameExpr(a->right, b->right);
}

bool SamePredicate(const Predicate& a, const Predicate& b) {
  return a.kind == b.kind && a.column == b.column && a.op == b.op &&
         a.value == b.value && a.value2 == b.value2 &&
         a.in_set == b.in_set && a.column2 == b.column2 &&
         a.bloom == b.bloom && a.selectivity == b.selectivity;
}

namespace {

// Dispatches a const-comparison filter primitive on (op, width).
template <typename T>
void FilterConstDispatchTyped(CmpOp op, const T* data, size_t n, T constant,
                              BitVector* out) {
  switch (op) {
    case CmpOp::kEq:
      primitives::FilterConstBv<CmpOp::kEq, T>(data, n, constant, out);
      break;
    case CmpOp::kNe:
      primitives::FilterConstBv<CmpOp::kNe, T>(data, n, constant, out);
      break;
    case CmpOp::kLt:
      primitives::FilterConstBv<CmpOp::kLt, T>(data, n, constant, out);
      break;
    case CmpOp::kLe:
      primitives::FilterConstBv<CmpOp::kLe, T>(data, n, constant, out);
      break;
    case CmpOp::kGt:
      primitives::FilterConstBv<CmpOp::kGt, T>(data, n, constant, out);
      break;
    case CmpOp::kGe:
      primitives::FilterConstBv<CmpOp::kGe, T>(data, n, constant, out);
      break;
  }
}

template <typename T>
bool InRange(int64_t c) {
  return c >= static_cast<int64_t>(std::numeric_limits<T>::min()) &&
         c <= static_cast<int64_t>(std::numeric_limits<T>::max());
}

// Verdict of `v op c` for every v of an element type whose range the
// constant c lies above (c > every v) or below. Predicates compare as
// int64, so a constant outside a narrow column's range never wraps.
bool OutOfRangeVerdict(CmpOp op, bool above) {
  switch (op) {
    case CmpOp::kEq:
      return false;
    case CmpOp::kNe:
      return true;
    case CmpOp::kLt:
    case CmpOp::kLe:
      return above;
    case CmpOp::kGt:
    case CmpOp::kGe:
      return !above;
  }
  return false;
}

void FillVerdict(size_t n, bool verdict, BitVector* out) {
  out->Resize(n);
  if (verdict) out->SetAll();
}

void FilterConstDispatch(const TileColumn& col, size_t n, CmpOp op,
                         int64_t value, BitVector* out) {
  col.Visit([&](auto t) {
    using T = decltype(t);
    if (!InRange<T>(value)) {
      return FillVerdict(n, OutOfRangeVerdict(op, value > 0), out);
    }
    FilterConstDispatchTyped<T>(op, reinterpret_cast<const T*>(col.data), n,
                                static_cast<T>(value), out);
  });
}

// [lo, hi] clipped to T's range; empty (lo > hi) when it misses it.
template <typename T>
std::pair<int64_t, int64_t> ClipToRange(int64_t lo, int64_t hi) {
  return {std::max(lo, static_cast<int64_t>(std::numeric_limits<T>::min())),
          std::min(hi, static_cast<int64_t>(std::numeric_limits<T>::max()))};
}

void FilterBetweenDispatch(const TileColumn& col, size_t n, int64_t lo,
                           int64_t hi, BitVector* out) {
  col.Visit([&](auto t) {
    using T = decltype(t);
    const auto [clo, chi] = ClipToRange<T>(lo, hi);
    if (clo > chi) return FillVerdict(n, false, out);
    primitives::FilterBetweenBv<T>(reinterpret_cast<const T*>(col.data), n,
                                   static_cast<T>(clo), static_cast<T>(chi),
                                   out);
  });
}

template <typename T>
void FilterColColTyped(CmpOp op, const T* left, const T* right, size_t n,
                       BitVector* out) {
  switch (op) {
    case CmpOp::kEq:
      primitives::FilterColColBv<CmpOp::kEq, T>(left, right, n, out);
      break;
    case CmpOp::kNe:
      primitives::FilterColColBv<CmpOp::kNe, T>(left, right, n, out);
      break;
    case CmpOp::kLt:
      primitives::FilterColColBv<CmpOp::kLt, T>(left, right, n, out);
      break;
    case CmpOp::kLe:
      primitives::FilterColColBv<CmpOp::kLe, T>(left, right, n, out);
      break;
    case CmpOp::kGt:
      primitives::FilterColColBv<CmpOp::kGt, T>(left, right, n, out);
      break;
    case CmpOp::kGe:
      primitives::FilterColColBv<CmpOp::kGe, T>(left, right, n, out);
      break;
  }
}

// True when two tile columns store one element type (VisitPhysical).
bool SameElementType(const TileColumn& a, const TileColumn& b) {
  using storage::DataType;
  return a.width == b.width &&
         (a.width != 4 ||
          (a.type == DataType::kDictCode) == (b.type == DataType::kDictCode));
}

// Column-vs-column compare: one typed kernel when both sides store one
// element type, else both sides widen into int64 buffers first (the
// widening cast primitive the compiler inserts) and the int64 kernel
// runs.
void FilterColColDispatch(ExecCtx& ctx, CmpOp op, const TileColumn& l,
                          const TileColumn& r, size_t n, BitVector* out) {
  if (SameElementType(l, r)) {
    l.Visit([&](auto t) {
      using T = decltype(t);
      FilterColColTyped<T>(op, reinterpret_cast<const T*>(l.data),
                           reinterpret_cast<const T*>(r.data), n, out);
    });
    return;
  }
  TileBufferPool::Handle lhs = ctx.pool().AcquireArray<int64_t>(n);
  TileBufferPool::Handle rhs = ctx.pool().AcquireArray<int64_t>(n);
  WidenColumn(l, nullptr, n, lhs.as<int64_t>());
  WidenColumn(r, nullptr, n, rhs.as<int64_t>());
  FilterColColTyped<int64_t>(op, lhs.as<int64_t>(), rhs.as<int64_t>(), n, out);
}

// Dispatches the Bloom probe kernel on the column's physical width.
// Keys widen through static_cast<uint64_t> of the native element —
// identical to the build side's widened insert (sign-extension for
// signed narrow columns, zero-extension for dict codes).
void BloomProbeDispatch(const TileColumn& col, size_t n,
                        const primitives::BlockedBloomFilter& filter,
                        BitVector* out) {
  out->Resize(n);
  col.Visit([&](auto t) {
    using T = decltype(t);
    primitives::simd::bloom_kernels<T>().probe_bv(
        reinterpret_cast<const T*>(col.data), n, filter.blocks(),
        filter.block_mask(), out->mutable_words());
  });
}

void InSetDispatch(const TileColumn& col, size_t n, const BitVector& set,
                   BitVector* out) {
  col.Visit([&](auto t) {
    using T = decltype(t);
    primitives::FilterDictSetBv(reinterpret_cast<const T*>(col.data), n, set,
                                out);
  });
}

// One run's predicate verdict, matching the per-row kernels exactly:
// the run value v compares as int64, which is what the kernels'
// range-checked constants reproduce.
bool RunMatchesValue(const Predicate& pred, int64_t v) {
  switch (pred.kind) {
    case Predicate::Kind::kBloom:
      return pred.bloom->MayContain(static_cast<uint64_t>(v));
    case Predicate::Kind::kInSet:
      return v >= 0 && static_cast<uint64_t>(v) < pred.in_set.size() &&
             pred.in_set.Test(static_cast<size_t>(v));
    case Predicate::Kind::kBetween:
      return v >= pred.value && v <= pred.value2;
    default:
      break;
  }
  switch (pred.op) {
    case CmpOp::kEq:
      return v == pred.value;
    case CmpOp::kNe:
      return v != pred.value;
    case CmpOp::kLt:
      return v < pred.value;
    case CmpOp::kLe:
      return v <= pred.value;
    case CmpOp::kGt:
      return v > pred.value;
    case CmpOp::kGe:
      return v >= pred.value;
  }
  return false;
}

bool RunMatches(const TileColumn& col, const Predicate& pred, size_t r) {
  const int64_t v = col.Visit([&](auto t) -> int64_t {
    return reinterpret_cast<const decltype(t)*>(col.run_values)[r];
  });
  return RunMatchesValue(pred, v);
}

// Evaluates `pred` into `out`. Returns whether the run-level short
// circuit fired, so RefinePredicate knows the charge was already
// run-based and skips its subset re-charge.
bool EvalPredicateImpl(ExecCtx& ctx, const Tile& tile, const Predicate& pred,
                       BitVector* out) {
  const size_t n = tile.rows;
  const TileColumn& col = tile.columns[static_cast<size_t>(pred.slot)];

  // Run-level short circuit (encoded scan path): when the accessor
  // staged this tile's RLE runs, single-column predicates evaluate
  // once per run and emit whole bit-vector spans — no expanded-row
  // reads at all. The spans reproduce the per-row kernels bit for bit;
  // only the modeled charge changes (per run + per output word).
  if (col.num_runs > 0 && pred.kind != Predicate::Kind::kCmpCol) {
    out->Resize(n);
    size_t row = 0;
    for (size_t r = 0; r < col.num_runs; ++r) {
      const uint32_t len = col.run_lengths[r];
      if (len != 0 && RunMatches(col, pred, r)) {
        out->SetRange(row, row + len);
      }
      row += len;
    }
    double per_row = ctx.params->filter_cycles_per_row;
    if (pred.kind == Predicate::Kind::kBloom) {
      // One mix + block test per run instead of per row.
      per_row = ctx.params->bloom_probe_cycles_per_row;
    }
    double cycles = per_row * (static_cast<double>(col.num_runs) +
                               static_cast<double>(n) / 64.0);
    if (pred.kind == Predicate::Kind::kBetween) cycles *= 2;
    ctx.ChargeCompute(cycles);
    ctx.ChargeVectorizationPenalty(col.num_runs);
    ctx.core->counters().runs_filtered += col.num_runs;
    return true;
  }

  double cycles = ctx.params->filter_cycles_per_row * static_cast<double>(n);
  switch (pred.kind) {
    case Predicate::Kind::kCmpConst:
      FilterConstDispatch(col, n, pred.op, pred.value, out);
      break;
    case Predicate::Kind::kBloom:
      BloomProbeDispatch(col, n, *pred.bloom, out);
      cycles = ctx.params->bloom_probe_cycles_per_row * static_cast<double>(n);
      break;
    case Predicate::Kind::kBetween:
      FilterBetweenDispatch(col, n, pred.value, pred.value2, out);
      cycles *= 2;  // two comparisons per row
      break;
    case Predicate::Kind::kInSet:
      InSetDispatch(col, n, pred.in_set, out);
      break;
    case Predicate::Kind::kCmpCol:
      FilterColColDispatch(ctx, pred.op, col,
                           tile.columns[static_cast<size_t>(pred.slot2)], n,
                           out);
      break;
  }
  ctx.ChargeCompute(cycles);
  ctx.ChargeVectorizationPenalty(n);
  return false;
}

}  // namespace

void EvalPredicate(ExecCtx& ctx, const Tile& tile, const Predicate& pred,
                   BitVector* out) {
  EvalPredicateImpl(ctx, tile, pred, out);
  if (pred.kind == Predicate::Kind::kBloom) {
    ctx.core->counters().rows_pruned_by_join_filter += tile.rows - out->CountOnes();
  }
}

void RefinePredicate(ExecCtx& ctx, const Tile& tile, const Predicate& pred,
                     const BitVector& in, BitVector* out) {
  // Evaluate on the qualifying subset only: the bvld/filteq loop of
  // Listing 1 touches just the set rows. Functionally we evaluate the
  // predicate into `out` and intersect; the cycle charge reflects the
  // subset.
  const size_t qualifying = in.CountOnes();
  const bool run_level = EvalPredicateImpl(ctx, tile, pred, out);
  // Undo the full-tile charge and re-charge only the gathered rows.
  // The run-level path already charged per run (cheaper than either
  // side of this adjustment), so leave its charge alone.
  if (!run_level) {
    const double per_row =
        pred.kind == Predicate::Kind::kBloom
            ? ctx.params->bloom_probe_cycles_per_row
            : ctx.params->filter_cycles_per_row;
    ctx.ChargeCompute(per_row * (static_cast<double>(qualifying) -
                                 static_cast<double>(tile.rows)));
  }
  out->And(in);
  if (pred.kind == Predicate::Kind::kBloom) {
    ctx.core->counters().rows_pruned_by_join_filter += qualifying - out->CountOnes();
  }
}

}  // namespace rapid::core
