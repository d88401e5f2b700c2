#include "hostdb/iterator.h"

#include "storage/dsb.h"

namespace rapid::hostdb {

namespace {

Result<size_t> Find(const std::vector<core::ColumnMeta>& schema,
                    const std::string& name) {
  for (size_t i = 0; i < schema.size(); ++i) {
    if (schema[i].name == name) return i;
  }
  return Status::NotFound("unbound column '" + name + "'");
}

}  // namespace

Result<int64_t> EvalExprRow(const core::Expr& expr, const Row& row,
                            const std::vector<core::ColumnMeta>& schema,
                            int* out_scale) {
  using Kind = core::Expr::Kind;
  switch (expr.kind) {
    case Kind::kColumn: {
      RAPID_ASSIGN_OR_RETURN(size_t idx, Find(schema, expr.column));
      *out_scale = schema[idx].dsb_scale;
      return row[idx];
    }
    case Kind::kConst:
      *out_scale = expr.scale;
      return expr.value;
    case Kind::kBinary: {
      int lscale = 0;
      int rscale = 0;
      RAPID_ASSIGN_OR_RETURN(int64_t lhs,
                             EvalExprRow(*expr.left, row, schema, &lscale));
      RAPID_ASSIGN_OR_RETURN(int64_t rhs,
                             EvalExprRow(*expr.right, row, schema, &rscale));
      using primitives::ArithOp;
      if (expr.op == ArithOp::kMul) {
        *out_scale = lscale + rscale;
        return lhs * rhs;
      }
      const int scale = lscale > rscale ? lscale : rscale;
      if (lscale < scale) lhs *= storage::Pow10(scale - lscale);
      if (rscale < scale) rhs *= storage::Pow10(scale - rscale);
      *out_scale = scale;
      return expr.op == ArithOp::kAdd ? lhs + rhs : lhs - rhs;
    }
  }
  return Status::Internal("unreachable expression kind");
}

Result<bool> EvalPredicateRow(const core::Predicate& pred, const Row& row,
                              const std::vector<core::ColumnMeta>& schema) {
  using Kind = core::Predicate::Kind;
  RAPID_ASSIGN_OR_RETURN(size_t idx, Find(schema, pred.column));
  const int64_t v = row[idx];
  auto cmp = [](primitives::CmpOp op, int64_t a, int64_t b) {
    using primitives::CmpOp;
    switch (op) {
      case CmpOp::kEq:
        return a == b;
      case CmpOp::kNe:
        return a != b;
      case CmpOp::kLt:
        return a < b;
      case CmpOp::kLe:
        return a <= b;
      case CmpOp::kGt:
        return a > b;
      case CmpOp::kGe:
        return a >= b;
    }
    return false;
  };
  switch (pred.kind) {
    case Kind::kCmpConst:
      return cmp(pred.op, v, pred.value);
    case Kind::kBetween:
      return v >= pred.value && v <= pred.value2;
    case Kind::kInSet:
      return static_cast<uint64_t>(v) < pred.in_set.size() &&
             pred.in_set.Test(static_cast<size_t>(v));
    case Kind::kCmpCol: {
      RAPID_ASSIGN_OR_RETURN(size_t idx2, Find(schema, pred.column2));
      return cmp(pred.op, v, row[idx2]);
    }
  }
  return Status::Internal("unreachable predicate kind");
}

Result<core::ColumnSet> DrainToColumnSet(Iterator* it) {
  RAPID_RETURN_NOT_OK(it->Start());
  // Volcano's rows are int64 whatever their source's width (a left
  // outer join's kJoinNull included), so its result sets are too.
  std::vector<core::ColumnMeta> metas = it->schema();
  for (core::ColumnMeta& m : metas) m.width = sizeof(int64_t);
  core::ColumnSet out(std::move(metas));
  Row row;
  for (;;) {
    RAPID_ASSIGN_OR_RETURN(bool ok, it->Fetch(&row));
    if (!ok) break;
    RAPID_RETURN_NOT_OK(out.AppendRow(row));
  }
  it->Close();
  return out;
}

}  // namespace rapid::hostdb
