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

namespace {

// The values of bound operand `e` over the tile. An 8-byte column leaf
// (every operator output column) is read in place: there is nothing to
// widen, and a leaf charges nothing either way. Anything else, and a
// leaf the caller rescales in place, is evaluated into a recycled
// tile-pool buffer that `*scratch` holds until the caller's scope ends,
// so nested expressions never touch the heap after the pool warms up.
Result<const int64_t*> EvalOperand(ExecCtx& ctx, const Tile& tile,
                                   const Expr& e, bool rescaled,
                                   TileBufferPool::Handle* scratch) {
  if (e.kind == Expr::Kind::kColumn && !rescaled) {
    const TileColumn& col = tile.columns[static_cast<size_t>(e.slot)];
    if (col.width == 8) return reinterpret_cast<const int64_t*>(col.data);
  }
  *scratch = ctx.pool().AcquireArray<int64_t>(tile.rows);
  RAPID_RETURN_NOT_OK(EvalExpr(ctx, tile, e, scratch->as<int64_t>()));
  return scratch->as<int64_t>();
}

}  // namespace

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
      const int lscale = expr.left->scale;
      const int rscale = expr.right->scale;
      // Add/sub require a common scale: the smaller side is rescaled
      // in place, so it needs a copy of its own.
      const bool mul = expr.op == ArithOp::kMul;
      const bool rescale_l = !mul && lscale < expr.scale;
      const bool rescale_r = !mul && rscale < expr.scale;
      TileBufferPool::Handle lbuf;
      TileBufferPool::Handle rbuf;
      RAPID_ASSIGN_OR_RETURN(
          const int64_t* lhs,
          EvalOperand(ctx, tile, *expr.left, rescale_l, &lbuf));
      RAPID_ASSIGN_OR_RETURN(
          const int64_t* rhs,
          EvalOperand(ctx, tile, *expr.right, rescale_r, &rbuf));
      if (mul) {
        // DSB multiply: mantissas multiply, scales add.
        primitives::DsbMulTile(lhs, lscale, rhs, rscale, n, out);
        ctx.ChargeCompute((ctx.params->arith_cycles_per_row +
                           ctx.params->mult_extra_cycles_per_row) *
                          static_cast<double>(n));
      } else {
        if (rescale_l) {
          primitives::DsbRescaleTile(lbuf.as<int64_t>(), n, lscale,
                                     expr.scale);
        }
        if (rescale_r) {
          primitives::DsbRescaleTile(rbuf.as<int64_t>(), n, rscale,
                                     expr.scale);
        }
        if (expr.op == ArithOp::kAdd) {
          primitives::ArithColCol<ArithOp::kAdd, int64_t>(lhs, rhs, n, out);
        } else {
          primitives::ArithColCol<ArithOp::kSub, int64_t>(lhs, rhs, n, out);
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

// [lo, hi] clipped to T's range; empty (lo > hi) when it misses it.
template <typename T>
std::pair<int64_t, int64_t> ClipToRange(int64_t lo, int64_t hi) {
  return {std::max(lo, static_cast<int64_t>(std::numeric_limits<T>::min())),
          std::min(hi, static_cast<int64_t>(std::numeric_limits<T>::max()))};
}

template <typename T>
const T* ColumnData(const TileColumn& col) {
  return reinterpret_cast<const T*>(col.data);
}

void FilterConstDispatch(const TileColumn& col, size_t n, CmpOp op,
                         int64_t value, BitVector* out) {
  col.Visit([&](auto t) {
    using T = decltype(t);
    if (!InRange<T>(value)) {
      return FillVerdict(n, OutOfRangeVerdict(op, value > 0), out);
    }
    primitives::VisitCmpOp(op, [&](auto o) {
      primitives::FilterConstBv<o(), T>(ColumnData<T>(col), n,
                                        static_cast<T>(value), out);
    });
  });
}

void FilterBetweenDispatch(const TileColumn& col, size_t n, int64_t lo,
                           int64_t hi, BitVector* out) {
  col.Visit([&](auto t) {
    using T = decltype(t);
    const auto [clo, chi] = ClipToRange<T>(lo, hi);
    if (clo > chi) return FillVerdict(n, false, out);
    primitives::FilterBetweenBv<T>(ColumnData<T>(col), n, static_cast<T>(clo),
                                   static_cast<T>(chi), out);
  });
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
      primitives::VisitCmpOp(op, [&](auto o) {
        primitives::FilterColColBv<o(), T>(ColumnData<T>(l), ColumnData<T>(r),
                                           n, out);
      });
    });
    return;
  }
  TileBufferPool::Handle lhs = ctx.pool().AcquireArray<int64_t>(n);
  TileBufferPool::Handle rhs = ctx.pool().AcquireArray<int64_t>(n);
  WidenColumn(l, nullptr, n, lhs.as<int64_t>());
  WidenColumn(r, nullptr, n, rhs.as<int64_t>());
  primitives::VisitCmpOp(op, [&](auto o) {
    primitives::FilterColColBv<o(), int64_t>(lhs.as<int64_t>(),
                                             rhs.as<int64_t>(), n, out);
  });
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
        ColumnData<T>(col), n, filter.blocks(), filter.block_mask(),
        out->mutable_words());
  });
}

void InSetDispatch(const TileColumn& col, size_t n, const BitVector& set,
                   BitVector* out) {
  col.Visit([&](auto t) {
    using T = decltype(t);
    primitives::FilterDictSetBv(ColumnData<T>(col), n, set, out);
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

// Whether `pred` evaluates once per RLE run of its column (the encoded
// scan path): a single-column predicate over a tile the accessor
// expanded from staged runs.
bool RunLevel(const TileColumn& col, const Predicate& pred) {
  return col.num_runs > 0 && pred.kind != Predicate::Kind::kCmpCol;
}

// Cycles per row of `pred`'s row-level kernel.
double RowCycles(const ExecCtx& ctx, const Predicate& pred) {
  return pred.kind == Predicate::Kind::kBloom
             ? ctx.params->bloom_probe_cycles_per_row
             : ctx.params->filter_cycles_per_row;
}

// The row-level charge of `pred` over a whole tile of `n` rows: what
// the bit-vector kernels pay, and what the RID path pays before its
// recharge to the qualifying rows (RefinePredicate).
void ChargeTile(ExecCtx& ctx, const Predicate& pred, size_t n) {
  double cycles = RowCycles(ctx, pred) * static_cast<double>(n);
  if (pred.kind == Predicate::Kind::kBetween) cycles *= 2;  // two compares
  ctx.ChargeCompute(cycles);
  ctx.ChargeVectorizationPenalty(n);
}

// Evaluates `pred` over every row of the tile into `out`, once per run
// on an RLE column (RunLevel) and through the bit-vector kernels
// otherwise.
void EvalPredicateImpl(ExecCtx& ctx, const Tile& tile, const Predicate& pred,
                       BitVector* out) {
  const size_t n = tile.rows;
  const TileColumn& col = tile.columns[static_cast<size_t>(pred.slot)];

  // Run-level short circuit (encoded scan path): when the accessor
  // staged this tile's RLE runs, single-column predicates evaluate
  // once per run and emit whole bit-vector spans — no expanded-row
  // reads at all. The spans reproduce the per-row kernels bit for bit;
  // only the modeled charge changes (per run + per output word).
  if (RunLevel(col, pred)) {
    out->Resize(n);
    size_t row = 0;
    for (size_t r = 0; r < col.num_runs; ++r) {
      const uint32_t len = col.run_lengths[r];
      if (len != 0 && RunMatches(col, pred, r)) {
        out->SetRange(row, row + len);
      }
      row += len;
    }
    // A Bloom probe pays one mix + block test per run instead of per
    // row.
    double cycles = RowCycles(ctx, pred) * (static_cast<double>(col.num_runs) +
                                            static_cast<double>(n) / 64.0);
    if (pred.kind == Predicate::Kind::kBetween) cycles *= 2;
    ctx.ChargeCompute(cycles);
    ctx.ChargeVectorizationPenalty(col.num_runs);
    ctx.core->counters().runs_filtered += col.num_runs;
    return;
  }

  switch (pred.kind) {
    case Predicate::Kind::kCmpConst:
      FilterConstDispatch(col, n, pred.op, pred.value, out);
      break;
    case Predicate::Kind::kBloom:
      BloomProbeDispatch(col, n, *pred.bloom, out);
      break;
    case Predicate::Kind::kBetween:
      FilterBetweenDispatch(col, n, pred.value, pred.value2, out);
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
  ChargeTile(ctx, pred, n);
}

// The RID kernel of `pred` over the first `n` entries of `rids`, with
// the bit-vector path's int64 semantics: a constant outside a narrow
// column's range gives its uniform verdict, BETWEEN clips to the
// element range, IN tests codes against the bitmap's bounds. Returns
// the kept count.
size_t RefineRids(const Tile& tile, const Predicate& pred, uint32_t* rids,
                  size_t n) {
  const TileColumn& col = tile.columns[static_cast<size_t>(pred.slot)];
  switch (pred.kind) {
    case Predicate::Kind::kCmpConst:
      return col.Visit([&](auto t) -> size_t {
        using T = decltype(t);
        if (!InRange<T>(pred.value)) {
          return OutOfRangeVerdict(pred.op, pred.value > 0) ? n : 0;
        }
        return primitives::VisitCmpOp(pred.op, [&](auto o) {
          return primitives::FilterConstRidRefine<o(), T>(
              ColumnData<T>(col), static_cast<T>(pred.value), rids, n);
        });
      });
    case Predicate::Kind::kBetween:
      return col.Visit([&](auto t) -> size_t {
        using T = decltype(t);
        const auto [lo, hi] = ClipToRange<T>(pred.value, pred.value2);
        if (lo > hi) return 0;
        return primitives::FilterBetweenRidRefine<T>(
            ColumnData<T>(col), static_cast<T>(lo), static_cast<T>(hi), rids,
            n);
      });
    case Predicate::Kind::kInSet:
      return col.Visit([&](auto t) {
        using T = decltype(t);
        return primitives::FilterDictSetRidRefine<T>(ColumnData<T>(col),
                                                     pred.in_set, rids, n);
      });
    case Predicate::Kind::kBloom:
      return col.Visit([&](auto t) {
        using T = decltype(t);
        return primitives::BloomProbeRidRefine<T>(ColumnData<T>(col),
                                                  *pred.bloom, rids, n);
      });
    case Predicate::Kind::kCmpCol: {
      const TileColumn& col2 = tile.columns[static_cast<size_t>(pred.slot2)];
      return col.Visit([&](auto l) {
        return col2.Visit([&](auto r) {
          using L = decltype(l);
          using R = decltype(r);
          return primitives::VisitCmpOp(pred.op, [&](auto o) {
            return primitives::FilterColColRidRefine<o(), L, R>(
                ColumnData<L>(col), ColumnData<R>(col2), rids, n);
          });
        });
      });
    }
  }
  return n;
}

}  // namespace

void EvalPredicate(ExecCtx& ctx, const Tile& tile, const Predicate& pred,
                   BitVector* out) {
  EvalPredicateImpl(ctx, tile, pred, out);
  if (pred.kind == Predicate::Kind::kBloom) {
    ctx.core->counters().rows_pruned_by_join_filter += tile.rows - out->CountOnes();
  }
}

bool RefinesOnRids(const Predicate& pred, size_t qualifying, size_t rows) {
  size_t k = 1;
  switch (pred.kind) {
    case Predicate::Kind::kCmpConst:
      k = primitives::kConstRidCrossover;
      break;
    case Predicate::Kind::kBetween:
      k = primitives::kBetweenRidCrossover;
      break;
    case Predicate::Kind::kInSet:
      k = primitives::kDictSetRidCrossover;
      break;
    case Predicate::Kind::kCmpCol:
      k = primitives::kColColRidCrossover;
      break;
    case Predicate::Kind::kBloom:
      k = primitives::kBloomRidCrossover;
      break;
  }
  return qualifying * k <= rows;
}

void RefinePredicate(ExecCtx& ctx, const Tile& tile, const Predicate& pred,
                     Selection* sel) {
  // The bvld/filteq loop of Listing 1 touches just the qualifying
  // rows, and the cycle charge says so on every path.
  const size_t n = tile.rows;
  const size_t qualifying = sel->count;
  const TileColumn& col = tile.columns[static_cast<size_t>(pred.slot)];
  const bool run_level = RunLevel(col, pred);
  if (!sel->sparse) {
    // Dense: the bit-vector kernel runs over the whole tile and its
    // result is intersected with the selection.
    EvalPredicateImpl(ctx, tile, pred, &sel->scratch);
    sel->bits.And(sel->scratch);
    sel->count = sel->bits.CountOnes();
  } else if (run_level) {
    // Sparse over RLE runs: one verdict per run, then the list keeps
    // the rows whose run passed.
    EvalPredicateImpl(ctx, tile, pred, &sel->scratch);
    size_t kept = 0;
    for (size_t i = 0; i < qualifying; ++i) {
      const uint32_t r = sel->rids[i];
      sel->rids[kept] = r;
      kept += sel->scratch.Test(r) ? 1 : 0;
    }
    sel->count = kept;
  } else {
    // Sparse: the RID kernel tests only the listed rows. It charges
    // what the bit-vector kernel would, so the recharge below lands on
    // the same modeled cycles whichever path ran.
    ChargeTile(ctx, pred, n);
    sel->count = RefineRids(tile, pred, sel->rids, qualifying);
  }
  // Undo the full-tile charge and re-charge only the qualifying rows.
  // The run-level path already charged per run (cheaper than either
  // side of this adjustment), so leave its charge alone.
  if (!run_level) {
    ctx.ChargeCompute(RowCycles(ctx, pred) * (static_cast<double>(qualifying) -
                                              static_cast<double>(n)));
  }
  if (pred.kind == Predicate::Kind::kBloom) {
    ctx.core->counters().rows_pruned_by_join_filter += qualifying - sel->count;
  }
}

}  // namespace rapid::core
