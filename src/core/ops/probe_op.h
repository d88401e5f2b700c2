// HashJoinProbeOp: the pipelined (push-based) form of the hash-join
// probe, used inside fused PipelineSteps.
//
// Unlike the partitioned JoinExec path — which materializes both sides,
// partitions them, and barriers between build and probe — this operator
// executes a *broadcast* join: each dpCore builds its own private
// CompactJoinTable over the full (unpartitioned) build ColumnSet in
// Open(), then probe tiles stream through Consume() DMEM-resident with
// no extra DMS round-trip. QComp only fuses a probe this way when the
// build side is small enough that the per-core broadcast build is
// cheaper than two partition passes plus a join barrier (the classic
// small-dimension-table trade).
//
// DMEM honesty: the table's compact arrays are charged against the
// core's scratchpad arena. If the build side outgrows the remaining
// budget, capacity degrades gracefully — rows beyond it overflow into
// the table's DRAM region exactly like the small-skew path of
// Section 6.4, and probes into that region pay the DRAM round-trip.

#ifndef RAPID_CORE_OPS_PROBE_OP_H_
#define RAPID_CORE_OPS_PROBE_OP_H_

#include <memory>
#include <vector>

#include "common/arena.h"
#include "core/ops/join_exec.h"
#include "core/qef/column_set.h"
#include "core/qef/operator.h"
#include "primitives/join_kernel.h"

namespace rapid::core {

struct ProbeOpSpec {
  // Unpartitioned build side (DRAM-resident; produced by an earlier
  // materializing step). Not owned.
  const ColumnSet* build = nullptr;
  // Key column indices into `build`.
  std::vector<size_t> build_keys;
  // Tile positions of the probe keys in the incoming tiles.
  std::vector<size_t> probe_keys;

  struct Output {
    bool from_build = false;
    // Build column index, or probe tile position.
    size_t column = 0;
  };
  std::vector<Output> outputs;

  JoinType type = JoinType::kInner;
  size_t tile_rows = 1024;
  double bucket_reduction = 4.0;
  // Build rows that may live in DMEM; Open() shrinks this further if
  // the chain's remaining scratchpad budget demands it.
  size_t dmem_capacity_rows = std::numeric_limits<size_t>::max();
};

class HashJoinProbeOp : public PipelineOp {
 public:
  explicit HashJoinProbeOp(ProbeOpSpec spec);
  ~HashJoinProbeOp() override;

  size_t DmemBytes(size_t tile_rows) const override;
  Status Open(ExecCtx& ctx) override;
  Status Consume(ExecCtx& ctx, const Tile& tile) override;
  Status Finish(ExecCtx& ctx) override;

  const JoinStats& stats() const { return stats_; }

 private:
  // Appends the tile's match list to the output buffers, one column
  // at a time, and clears the list.
  void GatherMatches(const Tile& tile);
  Status FlushPending(ExecCtx& ctx);

  ProbeOpSpec spec_;
  std::unique_ptr<primitives::CompactJoinTable> table_;

  // Pending output rows, one widened buffer per output column; flushed
  // downstream in ~tile_rows chunks.
  std::vector<std::vector<int64_t>> out_buffers_;
  std::vector<storage::DataType> out_types_;
  std::vector<int> out_scales_;
  // The flushed output tile, reused across flushes.
  Tile out_;

  // Key columns: the build side's widened into build_keys_ at Open(),
  // and the current tile's probe keys widened into probe_keys_.
  std::vector<const int64_t*> build_key_cols_;
  std::vector<int64_t> build_keys_;
  std::vector<const int64_t*> probe_key_cols_;
  std::vector<int64_t> probe_keys_;
  // The current tile's output rows: build row (kNoBuildRow for a
  // semi/anti row or an unmatched left-outer row) and tile row.
  static constexpr uint32_t kNoBuildRow = ~uint32_t{0};
  std::vector<uint32_t> match_brows_;
  std::vector<uint32_t> match_prows_;

  // Fixed tile-sized scratch from the core's tile pool. The growable
  // out_buffers_ above stay heap vectors: a single probe row can emit
  // arbitrarily many matches, so their size is unbounded.
  TileBufferPool::Handle hash_scratch_;
  TileBufferPool::Handle count_scratch_;
  JoinStats stats_;
};

}  // namespace rapid::core

#endif  // RAPID_CORE_OPS_PROBE_OP_H_
