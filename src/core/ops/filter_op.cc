#include "core/ops/filter_op.h"

#include <utility>

#include "common/logging.h"

namespace rapid::core {

FilterOp::FilterOp(std::vector<Predicate> predicates,
                   std::vector<size_t> output_slots, size_t tile_rows,
                   bool use_rid_list)
    : predicates_(std::move(predicates)),
      output_slots_(std::move(output_slots)),
      tile_rows_(tile_rows),
      use_rid_list_(use_rid_list) {}

size_t FilterOp::DmemBytes(size_t tile_rows) const {
  // Widened output vectors + the qualifying-row representation
  // (bit vector or RID list over the tile).
  const size_t outputs = output_slots_.size() * tile_rows * sizeof(int64_t);
  const size_t selection = use_rid_list_ ? tile_rows * sizeof(uint32_t)
                                         : (tile_rows + 7) / 8;
  return outputs + selection;
}

Status FilterOp::Open(ExecCtx& ctx) {
  // Charge the DMEM budget for real: the arena enforces the 32 KiB
  // limit that task formation planned against.
  RAPID_RETURN_NOT_OK(ctx.dmem().Allocate(DmemBytes(tile_rows_)).status());
  out_buffers_.clear();
  out_buffers_.reserve(output_slots_.size());
  out_.columns.assign(output_slots_.size(), TileColumn());
  for (size_t c = 0; c < output_slots_.size(); ++c) {
    out_buffers_.push_back(ctx.pool().AcquireArray<int64_t>(tile_rows_));
    out_.columns[c].data = out_buffers_[c].data();
  }
  rid_buffer_ = ctx.pool().AcquireArray<uint32_t>(tile_rows_);
  selection_.rids = rid_buffer_.as<uint32_t>();
  return Status::OK();
}

Status FilterOp::Consume(ExecCtx& ctx, const Tile& tile) {
  rows_in_ += tile.rows;

  Selection& sel = selection_;
  sel.count = tile.rows;
  sel.sparse = false;
  if (!predicates_.empty()) {
    EvalPredicate(ctx, tile, predicates_[0], &sel.bits);
    sel.count = sel.bits.CountOnes();
    for (size_t p = 1; p < predicates_.size(); ++p) {
      if (!sel.sparse && RefinesOnRids(predicates_[p], sel.count, tile.rows)) {
        sel.ToRids();
      }
      RefinePredicate(ctx, tile, predicates_[p], &sel);
    }
  }

  // Late materialization: gather projection columns for qualifying
  // rows only. The RID list doubles as the gather descriptor the RA
  // programs into the DMS; when every row qualifies the columns copy
  // contiguously instead.
  const size_t q = sel.count;
  rows_out_ += q;
  if (q == 0) return Status::OK();
  const uint32_t* rids = nullptr;
  if (q < tile.rows) {
    if (!sel.sparse) sel.ToRids();
    rids = sel.rids;
  }

  out_.rows = q;
  out_.base_row = tile.base_row;
  for (size_t c = 0; c < output_slots_.size(); ++c) {
    const TileColumn& src = tile.columns[output_slots_[c]];
    WidenColumn(src, rids, q, out_buffers_[c].as<int64_t>());
    // The gather runs over DMEM-resident tiles (the accessor already
    // streamed them in), and DMEM random access is single-cycle.
    ctx.ChargeCompute(static_cast<double>(q));
    out_.columns[c].type = src.type == storage::DataType::kDecimal
                               ? storage::DataType::kDecimal
                               : storage::DataType::kInt64;
    out_.columns[c].dsb_scale = src.dsb_scale;
  }

  // RID-list bookkeeping: converting the bit vector to RIDs costs one
  // pass; with the RID flavour the list came straight out of the
  // predicate primitives, so only charge it for the bit-vector path.
  if (!use_rid_list_) {
    ctx.ChargeCompute(0.5 * static_cast<double>(tile.rows) / 64.0);
  }
  ctx.ChargeVectorizationPenalty(q);

  return Push(ctx, out_);
}

Status FilterOp::Finish(ExecCtx& ctx) { return PushFinish(ctx); }

}  // namespace rapid::core
