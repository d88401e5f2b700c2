// MaterializeSink: the task-boundary operator. Streams incoming tiles
// back to DRAM via the DMS (write direction of the double-buffered
// loop), appending to a per-core ColumnSet that the next task reads.

#ifndef RAPID_CORE_OPS_SINK_OP_H_
#define RAPID_CORE_OPS_SINK_OP_H_

#include <vector>

#include "core/qef/column_set.h"
#include "core/qef/operator.h"

namespace rapid::core {

// Widens the tile's rows onto the end of `out` (columns matched
// positionally). `out`'s metas were derived from the operator's input
// before any tile ran (ExprMeta), so each column's scale is known.
inline void AppendTile(const Tile& tile, ColumnSet* out) {
  RAPID_DCHECK(tile.columns.size() == out->num_columns());
  for (size_t c = 0; c < tile.columns.size(); ++c) {
    std::vector<int64_t>& dst = out->column(c);
    const TileColumn& src = tile.columns[c];
    RAPID_DCHECK(src.dsb_scale == out->meta(c).dsb_scale);
    const size_t old = dst.size();
    dst.resize(old + tile.rows);
    WidenColumn(src, nullptr, tile.rows, dst.data() + old);
  }
}

class MaterializeSink : public PipelineOp {
 public:
  // `out` is the per-core destination; metas define the output schema
  // (tile columns are matched positionally).
  explicit MaterializeSink(ColumnSet* out) : out_(out) {}

  size_t DmemBytes(size_t tile_rows) const override {
    // Output staging buffers, double-buffered for the write direction.
    return 2 * out_->num_columns() * tile_rows * sizeof(int64_t);
  }

  Status Open(ExecCtx&) override { return Status::OK(); }

  Status Consume(ExecCtx& ctx, const Tile& tile) override {
    AppendTile(tile, out_);
    // DMS write stream: one descriptor chain per tile.
    ctx.ChargeDms(dpu::DmsTileTransferCycles(
        *ctx.params, static_cast<int>(tile.columns.size()), tile.rows,
        sizeof(int64_t), /*read_write=*/false));
    return Status::OK();
  }

  Status Finish(ExecCtx&) override { return Status::OK(); }

 private:
  ColumnSet* out_;
};

}  // namespace rapid::core

#endif  // RAPID_CORE_OPS_SINK_OP_H_
