#include "core/ops/partition_sink.h"

#include <algorithm>

#include "common/fault.h"
#include "core/ops/sink_op.h"

namespace rapid::core {

size_t PartitionSink::StagingBytes(const PartitionRound& round) {
  constexpr size_t kPerPartition = 64 + 2 * sizeof(uint32_t) + sizeof(uint64_t);
  return static_cast<size_t>(round.fanout / round.hw_fanout) * kPerPartition;
}

Status PartitionSink::Open(ExecCtx& ctx) {
  return ctx.dmem().Allocate(DmemBytes(tile_rows_)).status();
}

Status PartitionSink::BeginMorsel(ExecCtx& ctx, ColumnSet* rows) {
  rows_ = rows;
  // One partition-engine descriptor chain per morsel; transient faults
  // are retried inside RunDescriptor.
  return ctx.dms->RunDescriptor(&ctx.cycles(), faults::kDmsPartition);
}

Status PartitionSink::Consume(ExecCtx& ctx, const Tile& tile) {
  RAPID_RETURN_NOT_OK(AppendTile(tile, rows_));
  const size_t num_cols = rows_->num_columns();
  const size_t row_bytes = rows_->RowBytes();
  for (size_t start = 0; start < tile.rows; start += round_tile_rows_) {
    ChargePartitionTile(*ctx.dms, ctx.cycles(), round_,
                        std::min(round_tile_rows_, tile.rows - start),
                        num_cols, row_bytes);
  }
  return Status::OK();
}

}  // namespace rapid::core
