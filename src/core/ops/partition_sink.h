// PartitionSink: a pipeline's partitioning terminal (Sections 5.3 and
// 6.2, Figure 8). The first round of a partition scheme runs on the
// tiles a scan/filter/project chain produces, in place of the DMS store
// that would write them to DRAM for a PARTITION step to read back.
//
// Per output tile the sink widens the rows into its morsel's slot,
// hashes the key columns (the hash engine's CRC32), maps each row to
// its partition (Listing 2) and pays the round's per-tile charge
// (ChargePartitionTile) instead of the store's. At the end of the
// morsel it groups the slot's rows by partition with a stable counting
// sort. The step then lays out exact-size buckets from the morsels'
// counts and fills each with contiguous copies in morsel order: the
// same bytes PartitionExec's first round writes from the materialized
// chain output.

#ifndef RAPID_CORE_OPS_PARTITION_SINK_H_
#define RAPID_CORE_OPS_PARTITION_SINK_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/ops/partition_exec.h"
#include "core/qef/column_set.h"
#include "core/qef/operator.h"

namespace rapid::core {

class PartitionSink : public PipelineOp {
 public:
  // DMEM per tile row: the rows' key hashes and partition indexes.
  static constexpr size_t kBytesPerRow = sizeof(uint32_t) + sizeof(uint16_t);
  // Resident DMEM of the round's software fan-out: one write-combining
  // line plus cursors per software partition.
  static size_t StagingBytes(const PartitionRound& round);

  // `key_cols` are the key columns' positions in the incoming tiles of
  // up to `tile_rows` rows; `round_tile_rows` is the round's
  // partitioning tile, the unit its charges are paid in. `carry_hashes`
  // keeps each row's key hash for the rounds that follow.
  PartitionSink(std::vector<size_t> key_cols, PartitionRound round,
                size_t tile_rows, size_t round_tile_rows, bool carry_hashes)
      : key_cols_(std::move(key_cols)),
        round_(round),
        tile_rows_(tile_rows),
        round_tile_rows_(round_tile_rows),
        carry_hashes_(carry_hashes) {}

  size_t DmemBytes(size_t tile_rows) const override {
    return StagingBytes(round_) + kBytesPerRow * tile_rows;
  }
  Status Open(ExecCtx& ctx) override;

  // Points the sink at one morsel's output (`rows` holds the schema,
  // `counts` and `hashes` are filled) and programs the morsel's
  // partition-engine descriptor chain.
  Status BeginMorsel(ExecCtx& ctx, ColumnSet* rows,
                     std::vector<size_t>* counts,
                     std::vector<uint32_t>* hashes);

  Status Consume(ExecCtx& ctx, const Tile& tile) override;
  // Groups the morsel's rows by partition, input order kept within one.
  Status Finish(ExecCtx& ctx) override;

 private:
  std::vector<size_t> key_cols_;
  PartitionRound round_;
  size_t tile_rows_;
  size_t round_tile_rows_;
  bool carry_hashes_;

  ColumnSet* rows_ = nullptr;
  std::vector<size_t>* counts_ = nullptr;
  std::vector<uint32_t>* hashes_ = nullptr;
  // The morsel's rows' partitions, and per-tile scratch.
  std::vector<uint16_t> part_of_;
  std::vector<uint32_t> tile_hashes_;
  std::vector<uint32_t> tile_counts_;
  std::vector<const int64_t*> key_ptrs_;
};

}  // namespace rapid::core

#endif  // RAPID_CORE_OPS_PARTITION_SINK_H_
