// MaterializeSink: the task-boundary operator. Streams incoming tiles
// back to DRAM via the DMS (write direction of the double-buffered
// loop), appending to a per-core ColumnSet that the next task reads.

#ifndef RAPID_CORE_OPS_SINK_OP_H_
#define RAPID_CORE_OPS_SINK_OP_H_

#include <algorithm>
#include <vector>

#include "core/qef/column_set.h"
#include "core/qef/operator.h"

namespace rapid::core {

// Appends the tile's rows to `out` (columns matched positionally), each
// converted from the tile's physical width to its meta's. `out`'s metas
// were derived from the operator's input before any tile ran
// (ExprMeta), so each column's scale and width are known. A value the
// meta's width cannot hold appends nothing and returns Internal
// (WidthOverflow): widths are proven, so only a wrong meta trips it.
inline Status AppendTile(const Tile& tile, ColumnSet* out) {
  RAPID_DCHECK(tile.columns.size() == out->num_columns());
  const size_t old = out->num_rows();
  out->Resize(old + tile.rows);
  for (size_t c = 0; c < tile.columns.size(); ++c) {
    const TileColumn& src = tile.columns[c];
    RAPID_DCHECK(src.dsb_scale == out->meta(c).dsb_scale);
    const Status st = src.Visit([&](auto t) {
      const auto* values = reinterpret_cast<const decltype(t)*>(src.data);
      return out->Visit(c, [&](auto* dst) {
        return CopyToWidth(values, tile.rows, dst + old, out->meta(c));
      });
    });
    if (!st.ok()) {
      out->Resize(old);
      return st;
    }
  }
  return Status::OK();
}

// Rows one half of a store's staging holds: each half has `tile_rows`
// 8-byte values per column, so it takes 8 / w times as many rows of
// `set`'s widest column width w. A store ships one descriptor chain
// per full half.
inline size_t StagingHalfRows(const ColumnSet& set, size_t tile_rows) {
  size_t widest = 1;
  for (const ColumnMeta& m : set.metas()) widest = std::max(widest, m.width);
  return tile_rows * sizeof(int64_t) / widest;
}

class MaterializeSink : public PipelineOp {
 public:
  // `out` is the per-core destination; metas define the output schema
  // (tile columns are matched positionally). `tile_rows` sizes the
  // sink's DMEM staging (StagingHalfRows).
  MaterializeSink(ColumnSet* out, size_t tile_rows)
      : out_(out), half_rows_(StagingHalfRows(*out, tile_rows)) {}

  size_t DmemBytes(size_t tile_rows) const override {
    // Output staging buffers, double-buffered for the write direction.
    return 2 * out_->num_columns() * tile_rows * sizeof(int64_t);
  }

  Status Open(ExecCtx&) override { return Status::OK(); }

  // Rows collect in the staging half until it is full; each full half
  // is one DMS descriptor chain storing every column at its meta's
  // physical width.
  Status Consume(ExecCtx& ctx, const Tile& tile) override {
    RAPID_RETURN_NOT_OK(AppendTile(tile, out_));
    staged_ += tile.rows;
    while (staged_ >= half_rows_) {
      Store(ctx, half_rows_);
      staged_ -= half_rows_;
    }
    return Status::OK();
  }

  // The morsel's last, partly filled half.
  Status Finish(ExecCtx& ctx) override {
    if (staged_ > 0) Store(ctx, staged_);
    staged_ = 0;
    return Status::OK();
  }

 private:
  void Store(ExecCtx& ctx, size_t rows) {
    ctx.dms->ChargeTile(&ctx.cycles(), static_cast<int>(out_->num_columns()),
                        rows, out_->RowBytes());
  }

  ColumnSet* out_;
  size_t half_rows_;
  size_t staged_ = 0;  // rows in the staging half not yet stored
};

}  // namespace rapid::core

#endif  // RAPID_CORE_OPS_SINK_OP_H_
