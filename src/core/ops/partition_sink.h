// PartitionSink: a pipeline's partitioning terminal (Sections 5.3 and
// 6.2, Figure 8). The first round of a partition scheme runs on the
// tiles a scan/filter/project chain produces, in place of the DMS store
// that would write them to DRAM for a PARTITION step to read back.
//
// The sink models what the hardware does with each output tile: one
// partition-engine descriptor chain per morsel, and per round tile the
// round's charge (ChargePartitionTile) instead of the store's. On the
// host it only appends each tile's rows, at their metas' widths, to its
// morsel's slot.
// After the morsel loop the step hands the slots, in morsel order, to
// PartitionExec::ExecuteSink, which hashes them and lays out and
// scatters round 1 as PartitionExec's first round would from the
// materialized chain output, then runs the later rounds.

#ifndef RAPID_CORE_OPS_PARTITION_SINK_H_
#define RAPID_CORE_OPS_PARTITION_SINK_H_

#include <cstdint>

#include "core/ops/partition_exec.h"
#include "core/qef/column_set.h"
#include "core/qef/operator.h"

namespace rapid::core {

class PartitionSink : public PipelineOp {
 public:
  // DMEM per tile row: the hardware's resident key hash and partition
  // index of each row.
  static constexpr size_t kBytesPerRow = sizeof(uint32_t) + sizeof(uint16_t);
  // Resident DMEM of the round's software fan-out: one 64-byte staging
  // line plus its fill count, head length and output cursor per
  // software partition.
  static size_t StagingBytes(const PartitionRound& round);

  // Incoming tiles hold up to `tile_rows` rows; `round_tile_rows` is
  // the round's partitioning tile, the unit its charges are paid in.
  PartitionSink(PartitionRound round, size_t tile_rows,
                size_t round_tile_rows)
      : round_(round),
        tile_rows_(tile_rows),
        round_tile_rows_(round_tile_rows) {}

  size_t DmemBytes(size_t tile_rows) const override {
    return StagingBytes(round_) + kBytesPerRow * tile_rows;
  }
  Status Open(ExecCtx& ctx) override;

  // Points the sink at one morsel's output (`rows` holds the schema)
  // and programs the morsel's partition-engine descriptor chain.
  Status BeginMorsel(ExecCtx& ctx, ColumnSet* rows);

  Status Consume(ExecCtx& ctx, const Tile& tile) override;
  Status Finish(ExecCtx&) override { return Status::OK(); }

 private:
  PartitionRound round_;
  size_t tile_rows_;
  size_t round_tile_rows_;
  ColumnSet* rows_ = nullptr;
};

}  // namespace rapid::core

#endif  // RAPID_CORE_OPS_PARTITION_SINK_H_
