#include "core/expr.h"

#include <algorithm>
#include <cmath>

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

int ExprScale(const Expr& expr, const MetaLookup& input) {
  switch (expr.kind) {
    case Expr::Kind::kColumn: {
      const ColumnMeta* meta = input(expr.column);
      return meta != nullptr ? meta->dsb_scale : 0;
    }
    case Expr::Kind::kConst:
      return expr.scale;
    case Expr::Kind::kBinary: {
      const int l = ExprScale(*expr.left, input);
      const int r = ExprScale(*expr.right, input);
      return expr.op == ArithOp::kMul ? l + r : std::max(l, r);
    }
  }
  return 0;
}

ColumnMeta ScaledMeta(std::string name, int scale) {
  ColumnMeta m;
  m.name = std::move(name);
  m.dsb_scale = scale;
  m.type = scale != 0 ? storage::DataType::kDecimal : storage::DataType::kInt64;
  return m;
}

ColumnMeta ExprMeta(std::string name, const Expr& expr,
                    const MetaLookup& input) {
  if (expr.kind == Expr::Kind::kColumn) {
    if (const ColumnMeta* meta = input(expr.column)) {
      ColumnMeta m = *meta;
      m.name = std::move(name);
      return m;
    }
  }
  return ScaledMeta(std::move(name), ExprScale(expr, input));
}

Result<int> EvalExpr(ExecCtx& ctx, const Tile& tile,
                     const ColumnBinding& binding, const Expr& expr,
                     std::vector<int64_t>* out) {
  out->resize(tile.rows);
  return EvalExpr(ctx, tile, binding, expr, out->data());
}

Result<int> EvalExpr(ExecCtx& ctx, const Tile& tile,
                     const ColumnBinding& binding, const Expr& expr,
                     int64_t* out) {
  const size_t n = tile.rows;
  switch (expr.kind) {
    case Expr::Kind::kColumn: {
      auto it = binding.find(expr.column);
      if (it == binding.end()) {
        return Status::NotFound("unbound column '" + expr.column + "'");
      }
      const TileColumn& col = tile.columns[it->second];
      // Widening copy; free on the DPU where the load unit widens.
      WidenColumn(col, nullptr, n, out);
      return col.dsb_scale;
    }
    case Expr::Kind::kConst: {
      std::fill_n(out, n, expr.value);
      return expr.scale;
    }
    case Expr::Kind::kBinary: {
      // Intermediates live in recycled tile-pool buffers (released on
      // scope exit), so nested expressions never touch the heap after
      // the pool warms up.
      TileBufferPool::Handle lhs = ctx.pool().AcquireArray<int64_t>(n);
      TileBufferPool::Handle rhs = ctx.pool().AcquireArray<int64_t>(n);
      RAPID_ASSIGN_OR_RETURN(
          int lscale,
          EvalExpr(ctx, tile, binding, *expr.left, lhs.as<int64_t>()));
      RAPID_ASSIGN_OR_RETURN(
          int rscale,
          EvalExpr(ctx, tile, binding, *expr.right, rhs.as<int64_t>()));
      int result_scale = 0;
      if (expr.op == ArithOp::kMul) {
        // DSB multiply: mantissas multiply, scales add.
        result_scale = primitives::DsbMulTile(
            lhs.as<int64_t>(), lscale, rhs.as<int64_t>(), rscale, n, out);
        ctx.ChargeCompute((ctx.params->arith_cycles_per_row +
                           ctx.params->mult_extra_cycles_per_row) /
                          ctx.params->simd.arith * static_cast<double>(n));
      } else {
        // Add/sub require a common scale; rescale the smaller side.
        result_scale = lscale > rscale ? lscale : rscale;
        if (lscale < result_scale) {
          primitives::DsbRescaleTile(lhs.as<int64_t>(), n, lscale,
                                     result_scale);
        }
        if (rscale < result_scale) {
          primitives::DsbRescaleTile(rhs.as<int64_t>(), n, rscale,
                                     result_scale);
        }
        if (expr.op == ArithOp::kAdd) {
          primitives::ArithColCol<ArithOp::kAdd, int64_t>(
              lhs.as<int64_t>(), rhs.as<int64_t>(), n, out);
        } else {
          primitives::ArithColCol<ArithOp::kSub, int64_t>(
              lhs.as<int64_t>(), rhs.as<int64_t>(), n, out);
        }
        ctx.ChargeCompute(ctx.params->arith_cycles_per_row /
                          ctx.params->simd.arith * static_cast<double>(n));
      }
      ctx.ChargeVectorizationPenalty(n);
      return result_scale;
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

void FilterConstDispatch(const TileColumn& col, size_t n, CmpOp op,
                         int64_t value, BitVector* out) {
  using storage::DataType;
  switch (col.type) {
    case DataType::kInt8:
      FilterConstDispatchTyped<int8_t>(op, reinterpret_cast<int8_t*>(col.data),
                                       n, static_cast<int8_t>(value), out);
      break;
    case DataType::kInt16:
      FilterConstDispatchTyped<int16_t>(
          op, reinterpret_cast<int16_t*>(col.data), n,
          static_cast<int16_t>(value), out);
      break;
    case DataType::kInt32:
    case DataType::kDate:
      FilterConstDispatchTyped<int32_t>(
          op, reinterpret_cast<int32_t*>(col.data), n,
          static_cast<int32_t>(value), out);
      break;
    case DataType::kDictCode:
      FilterConstDispatchTyped<uint32_t>(
          op, reinterpret_cast<uint32_t*>(col.data), n,
          static_cast<uint32_t>(value), out);
      break;
    case DataType::kInt64:
    case DataType::kDecimal:
      FilterConstDispatchTyped<int64_t>(
          op, reinterpret_cast<int64_t*>(col.data), n, value, out);
      break;
  }
}

template <typename T>
void FilterBetweenTyped(const TileColumn& col, size_t n, int64_t lo,
                        int64_t hi, BitVector* out) {
  primitives::FilterBetweenBv<T>(reinterpret_cast<T*>(col.data), n,
                                 static_cast<T>(lo), static_cast<T>(hi), out);
}

void FilterBetweenDispatch(const TileColumn& col, size_t n, int64_t lo,
                           int64_t hi, BitVector* out) {
  using storage::DataType;
  switch (col.type) {
    case DataType::kInt8:
      FilterBetweenTyped<int8_t>(col, n, lo, hi, out);
      break;
    case DataType::kInt16:
      FilterBetweenTyped<int16_t>(col, n, lo, hi, out);
      break;
    case DataType::kInt32:
    case DataType::kDate:
      FilterBetweenTyped<int32_t>(col, n, lo, hi, out);
      break;
    case DataType::kDictCode:
      FilterBetweenTyped<uint32_t>(col, n, lo, hi, out);
      break;
    case DataType::kInt64:
    case DataType::kDecimal:
      FilterBetweenTyped<int64_t>(col, n, lo, hi, out);
      break;
  }
}

template <typename T>
void FilterColColTyped(CmpOp op, const TileColumn& l, const TileColumn& r,
                       size_t n, BitVector* out) {
  const T* left = reinterpret_cast<const T*>(l.data);
  const T* right = reinterpret_cast<const T*>(r.data);
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

// Dispatches the Bloom probe kernel on the column's physical width.
// Keys widen through static_cast<uint64_t> of the native element —
// identical to the build side's widened insert (sign-extension for
// signed narrow columns, zero-extension for dict codes).
void BloomProbeDispatch(const TileColumn& col, size_t n,
                        const primitives::BlockedBloomFilter& filter,
                        BitVector* out) {
  using storage::DataType;
  out->Resize(n);
  const uint64_t* blocks = filter.blocks();
  const uint32_t mask = filter.block_mask();
  uint64_t* words = out->mutable_words();
  switch (col.type) {
    case DataType::kInt8:
      primitives::simd::bloom_kernels<int8_t>().probe_bv(
          reinterpret_cast<const int8_t*>(col.data), n, blocks, mask, words);
      break;
    case DataType::kInt16:
      primitives::simd::bloom_kernels<int16_t>().probe_bv(
          reinterpret_cast<const int16_t*>(col.data), n, blocks, mask, words);
      break;
    case DataType::kInt32:
    case DataType::kDate:
      primitives::simd::bloom_kernels<int32_t>().probe_bv(
          reinterpret_cast<const int32_t*>(col.data), n, blocks, mask, words);
      break;
    case DataType::kDictCode:
      primitives::simd::bloom_kernels<uint32_t>().probe_bv(
          reinterpret_cast<const uint32_t*>(col.data), n, blocks, mask, words);
      break;
    case DataType::kInt64:
    case DataType::kDecimal:
      primitives::simd::bloom_kernels<int64_t>().probe_bv(
          reinterpret_cast<const int64_t*>(col.data), n, blocks, mask, words);
      break;
  }
}

// One Bloom probe for a whole run, widening the run value exactly as
// the per-row kernel widens tile elements.
bool RunMayContain(const TileColumn& col, const Predicate& pred, size_t r) {
  using storage::DataType;
  uint64_t key = 0;
  switch (col.type) {
    case DataType::kInt8:
      key = static_cast<uint64_t>(
          reinterpret_cast<const int8_t*>(col.run_values)[r]);
      break;
    case DataType::kInt16:
      key = static_cast<uint64_t>(
          reinterpret_cast<const int16_t*>(col.run_values)[r]);
      break;
    case DataType::kInt32:
    case DataType::kDate:
      key = static_cast<uint64_t>(
          reinterpret_cast<const int32_t*>(col.run_values)[r]);
      break;
    case DataType::kDictCode:
      key = static_cast<uint64_t>(
          reinterpret_cast<const uint32_t*>(col.run_values)[r]);
      break;
    case DataType::kInt64:
    case DataType::kDecimal:
      key = static_cast<uint64_t>(
          reinterpret_cast<const int64_t*>(col.run_values)[r]);
      break;
  }
  return pred.bloom->MayContain(key);
}

Result<size_t> Bind(const ColumnBinding& binding, const std::string& name) {
  auto it = binding.find(name);
  if (it == binding.end()) {
    return Status::NotFound("unbound column '" + name + "'");
  }
  return it->second;
}

// One run's predicate verdict in the column's native type, matching
// the per-row kernels' constant-cast semantics exactly (the constant
// truncates to T, comparisons happen in T).
template <typename T>
bool RunMatchesTyped(const Predicate& pred, T v) {
  using primitives::Compare;
  if (pred.kind == Predicate::Kind::kBetween) {
    return v >= static_cast<T>(pred.value) && v <= static_cast<T>(pred.value2);
  }
  const T c = static_cast<T>(pred.value);
  switch (pred.op) {
    case CmpOp::kEq:
      return Compare<CmpOp::kEq, T>(v, c);
    case CmpOp::kNe:
      return Compare<CmpOp::kNe, T>(v, c);
    case CmpOp::kLt:
      return Compare<CmpOp::kLt, T>(v, c);
    case CmpOp::kLe:
      return Compare<CmpOp::kLe, T>(v, c);
    case CmpOp::kGt:
      return Compare<CmpOp::kGt, T>(v, c);
    case CmpOp::kGe:
      return Compare<CmpOp::kGe, T>(v, c);
  }
  return false;
}

bool RunMatches(const TileColumn& col, const Predicate& pred, size_t r) {
  using storage::DataType;
  if (pred.kind == Predicate::Kind::kBloom) {
    return RunMayContain(col, pred, r);
  }
  if (pred.kind == Predicate::Kind::kInSet) {
    // Mirrors FilterDictSetBv / the widened membership probe.
    if (col.type == DataType::kDictCode) {
      const uint32_t code =
          reinterpret_cast<const uint32_t*>(col.run_values)[r];
      return code < pred.in_set.size() && pred.in_set.Test(code);
    }
    int64_t v = 0;
    switch (col.type) {
      case DataType::kInt8:
        v = reinterpret_cast<const int8_t*>(col.run_values)[r];
        break;
      case DataType::kInt16:
        v = reinterpret_cast<const int16_t*>(col.run_values)[r];
        break;
      case DataType::kInt32:
      case DataType::kDate:
        v = reinterpret_cast<const int32_t*>(col.run_values)[r];
        break;
      default:
        v = reinterpret_cast<const int64_t*>(col.run_values)[r];
        break;
    }
    return v >= 0 && static_cast<uint64_t>(v) < pred.in_set.size() &&
           pred.in_set.Test(static_cast<size_t>(v));
  }
  switch (col.type) {
    case DataType::kInt8:
      return RunMatchesTyped<int8_t>(
          pred, reinterpret_cast<const int8_t*>(col.run_values)[r]);
    case DataType::kInt16:
      return RunMatchesTyped<int16_t>(
          pred, reinterpret_cast<const int16_t*>(col.run_values)[r]);
    case DataType::kInt32:
    case DataType::kDate:
      return RunMatchesTyped<int32_t>(
          pred, reinterpret_cast<const int32_t*>(col.run_values)[r]);
    case DataType::kDictCode:
      return RunMatchesTyped<uint32_t>(
          pred, reinterpret_cast<const uint32_t*>(col.run_values)[r]);
    case DataType::kInt64:
    case DataType::kDecimal:
      return RunMatchesTyped<int64_t>(
          pred, reinterpret_cast<const int64_t*>(col.run_values)[r]);
  }
  return false;
}

// `run_level` (optional) reports whether the run-level short circuit
// fired, so RefinePredicate knows the charge was already run-based and
// skips its subset re-charge.
Status EvalPredicateImpl(ExecCtx& ctx, const Tile& tile,
                         const ColumnBinding& binding, const Predicate& pred,
                         BitVector* out, bool* run_level) {
  const size_t n = tile.rows;
  RAPID_ASSIGN_OR_RETURN(size_t ci, Bind(binding, pred.column));
  const TileColumn& col = tile.columns[ci];

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
    double per_row = ctx.params->filter_cycles_per_row /
                     ctx.params->simd.filter;
    if (pred.kind == Predicate::Kind::kBloom) {
      // One mix + block test per run instead of per row.
      per_row = ctx.params->bloom_probe_cycles_per_row /
                ctx.params->simd.bloom;
    }
    double cycles = per_row * (static_cast<double>(col.num_runs) +
                               static_cast<double>(n) / 64.0);
    if (pred.kind == Predicate::Kind::kBetween) cycles *= 2;
    ctx.ChargeCompute(cycles);
    ctx.ChargeVectorizationPenalty(col.num_runs);
    ctx.core->counters().runs_filtered += col.num_runs;
    if (run_level != nullptr) *run_level = true;
    return Status::OK();
  }

  double cycles = ctx.params->filter_cycles_per_row / ctx.params->simd.filter *
                  static_cast<double>(n);
  switch (pred.kind) {
    case Predicate::Kind::kCmpConst:
      FilterConstDispatch(col, n, pred.op, pred.value, out);
      break;
    case Predicate::Kind::kBloom:
      BloomProbeDispatch(col, n, *pred.bloom, out);
      cycles = ctx.params->bloom_probe_cycles_per_row /
               ctx.params->simd.bloom * static_cast<double>(n);
      break;
    case Predicate::Kind::kBetween:
      FilterBetweenDispatch(col, n, pred.value, pred.value2, out);
      cycles *= 2;  // two comparisons per row
      break;
    case Predicate::Kind::kInSet:
      if (col.type == storage::DataType::kDictCode) {
        primitives::FilterDictSetBv(reinterpret_cast<uint32_t*>(col.data), n,
                                    pred.in_set, out);
      } else {
        // Intermediates carry dict codes widened to int64; membership
        // testing is the same bitmap probe.
        out->Resize(n);
        for (size_t i = 0; i < n; ++i) {
          const int64_t v = col.GetInt(i);
          if (v >= 0 && static_cast<uint64_t>(v) < pred.in_set.size() &&
              pred.in_set.Test(static_cast<size_t>(v))) {
            out->Set(i);
          }
        }
      }
      break;
    case Predicate::Kind::kCmpCol: {
      RAPID_ASSIGN_OR_RETURN(size_t ci2, Bind(binding, pred.column2));
      const TileColumn& col2 = tile.columns[ci2];
      if (col.type != col2.type) {
        // Mixed physical widths: compare through the widened view (the
        // compiler would normally insert a widening cast primitive).
        out->Resize(n);
        for (size_t i = 0; i < n; ++i) {
          const int64_t a = col.GetInt(i);
          const int64_t b = col2.GetInt(i);
          bool hit = false;
          switch (pred.op) {
            case CmpOp::kEq:
              hit = a == b;
              break;
            case CmpOp::kNe:
              hit = a != b;
              break;
            case CmpOp::kLt:
              hit = a < b;
              break;
            case CmpOp::kLe:
              hit = a <= b;
              break;
            case CmpOp::kGt:
              hit = a > b;
              break;
            case CmpOp::kGe:
              hit = a >= b;
              break;
          }
          if (hit) out->Set(i);
        }
        break;
      }
      switch (storage::WidthOf(col.type)) {
        case 1:
          FilterColColTyped<int8_t>(pred.op, col, col2, n, out);
          break;
        case 2:
          FilterColColTyped<int16_t>(pred.op, col, col2, n, out);
          break;
        case 4:
          FilterColColTyped<int32_t>(pred.op, col, col2, n, out);
          break;
        default:
          FilterColColTyped<int64_t>(pred.op, col, col2, n, out);
          break;
      }
      break;
    }
  }
  ctx.ChargeCompute(cycles);
  ctx.ChargeVectorizationPenalty(n);
  return Status::OK();
}

}  // namespace

Status EvalPredicate(ExecCtx& ctx, const Tile& tile,
                     const ColumnBinding& binding, const Predicate& pred,
                     BitVector* out) {
  RAPID_RETURN_NOT_OK(EvalPredicateImpl(ctx, tile, binding, pred, out,
                                        nullptr));
  if (pred.kind == Predicate::Kind::kBloom) {
    ctx.core->counters().rows_pruned_by_join_filter += tile.rows - out->CountOnes();
  }
  return Status::OK();
}

Status RefinePredicate(ExecCtx& ctx, const Tile& tile,
                       const ColumnBinding& binding, const Predicate& pred,
                       const BitVector& in, BitVector* out) {
  // Evaluate on the qualifying subset only: the bvld/filteq loop of
  // Listing 1 touches just the set rows. Functionally we evaluate the
  // predicate and intersect; the cycle charge reflects the subset.
  const size_t qualifying = in.CountOnes();
  BitVector full;
  bool run_level = false;
  RAPID_RETURN_NOT_OK(
      EvalPredicateImpl(ctx, tile, binding, pred, &full, &run_level));
  // Undo the full-tile charge and re-charge only the gathered rows.
  // The run-level path already charged per run (cheaper than either
  // side of this adjustment), so leave its charge alone.
  if (!run_level) {
    const double per_row =
        pred.kind == Predicate::Kind::kBloom
            ? ctx.params->bloom_probe_cycles_per_row / ctx.params->simd.bloom
            : ctx.params->filter_cycles_per_row / ctx.params->simd.filter;
    ctx.ChargeCompute(per_row * (static_cast<double>(qualifying) -
                                 static_cast<double>(tile.rows)));
  }
  *out = full;
  out->And(in);
  if (pred.kind == Predicate::Kind::kBloom) {
    ctx.core->counters().rows_pruned_by_join_filter += qualifying - out->CountOnes();
  }
  return Status::OK();
}

}  // namespace rapid::core
