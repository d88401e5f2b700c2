#include "core/ops/project_op.h"

namespace rapid::core {

ProjectOp::ProjectOp(std::vector<ExprPtr> projections, size_t tile_rows)
    : projections_(std::move(projections)), tile_rows_(tile_rows) {}

size_t ProjectOp::DmemBytes(size_t tile_rows) const {
  return projections_.size() * tile_rows * sizeof(int64_t);
}

Status ProjectOp::Open(ExecCtx& ctx) {
  RAPID_RETURN_NOT_OK(ctx.dmem().Allocate(DmemBytes(tile_rows_)).status());
  out_buffers_.clear();
  out_buffers_.resize(projections_.size());
  out_.columns.assign(projections_.size(), TileColumn());
  for (size_t c = 0; c < projections_.size(); ++c) {
    const Expr& expr = *projections_[c];
    if (expr.kind == Expr::Kind::kColumn) continue;
    out_buffers_[c] = ctx.pool().AcquireArray<int64_t>(tile_rows_);
    TileColumn& col = out_.columns[c];
    col.data = out_buffers_[c].data();
    col.type = expr.scale != 0 ? storage::DataType::kDecimal
                               : storage::DataType::kInt64;
    col.dsb_scale = expr.scale;
  }
  return Status::OK();
}

Status ProjectOp::Consume(ExecCtx& ctx, const Tile& tile) {
  out_.rows = tile.rows;
  out_.base_row = tile.base_row;
  for (size_t c = 0; c < projections_.size(); ++c) {
    const Expr& expr = *projections_[c];
    if (expr.kind == Expr::Kind::kColumn) {
      out_.columns[c] = tile.columns[static_cast<size_t>(expr.slot)];
    } else {
      RAPID_RETURN_NOT_OK(
          EvalExpr(ctx, tile, expr, out_buffers_[c].as<int64_t>()));
    }
  }
  return Push(ctx, out_);
}

Status ProjectOp::Finish(ExecCtx& ctx) { return PushFinish(ctx); }

}  // namespace rapid::core
