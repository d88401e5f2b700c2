// Hash-join executor (Section 6, Figures 5-7).
//
// Executes the build and probe stages of the partitioned hash join:
// each partition pair becomes an independent *join kernel* handled by
// one dpCore using the compact bucket/link hash table
// (primitives::CompactJoinTable). The executor implements all three
// skew/statistics-resilience strategies of Section 6.4:
//
//   * small skew — partitions slightly above the DMEM estimate
//     gracefully overflow the hash table into DRAM (charged with the
//     DRAM round-trip cost on probe);
//   * large skew — partitions exceeding a configurable factor of the
//     estimate are dynamically repartitioned into smaller kernels;
//   * heavy hitters — detected at runtime via a small approximate
//     histogram (space-saving); their build rows are pulled out of
//     the hash table and processed broadcast-style in a side pass.

#ifndef RAPID_CORE_OPS_JOIN_EXEC_H_
#define RAPID_CORE_OPS_JOIN_EXEC_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "core/ops/partition_exec.h"
#include "core/qef/column_set.h"
#include "dpu/dpu.h"

namespace rapid::core {

// Sentinel for the unmatched build side of a left-outer join.
inline constexpr int64_t kJoinNull = std::numeric_limits<int64_t>::min();

enum class JoinType { kInner, kSemi, kAnti, kLeftOuter };

struct JoinSpec {
  JoinType type = JoinType::kInner;

  // Join key column indices (composite keys supported; both sides
  // must list the same number of keys).
  std::vector<size_t> build_keys;
  std::vector<size_t> probe_keys;

  // Output projection, in output order. For semi/anti joins no output
  // may come from the build side (it only filters).
  struct Output {
    bool from_build = false;
    size_t column = 0;
  };
  std::vector<Output> outputs;

  size_t tile_rows = 256;
  // Vectorized primitive execution (Figure 13's ablation switch);
  // when false the kernel pays per-row interpretation overhead.
  bool vectorized = true;

  // --- QComp estimates & resilience knobs (Section 6.4) ---
  // Expected build rows per partition (0 = trust actual sizes).
  size_t est_rows_per_partition = 0;
  // hash-buckets = next_pow2(rows / bucket_reduction)  (2-4x smaller
  // than rows, from NDV statistics).
  double bucket_reduction = 4.0;
  // Build rows that fit in DMEM; beyond this the table overflows to
  // DRAM (small skew). Default: effectively unlimited.
  size_t dmem_capacity_rows = std::numeric_limits<size_t>::max();
  // When true, exceeding dmem_capacity_rows is a *hard* capacity fault
  // (no DRAM overflow region available): the kernel recovers by
  // repartitioning the pair at doubled fan-out and retrying, the same
  // path taken for injected "join.build" kCapacityExceeded faults.
  bool hard_capacity = false;
  // Partition > factor * estimate => dynamic repartitioning.
  double large_skew_factor = 4.0;
  // Keys with (approximate) count >= threshold are heavy hitters;
  // 0 disables detection.
  size_t heavy_hitter_threshold = 0;

  // Planner cardinality estimates for the whole (pre-partitioning)
  // build/probe inputs; the pipeline-fusion pass uses them to decide
  // whether a broadcast-style fused probe is cheaper than the
  // partitioned join. 0 = unknown.
  size_t est_build_rows = 0;
  size_t est_probe_rows = 0;

  // Build a per-pair blocked Bloom filter over the build keys and
  // prune probe rows before the hash probe (RAPID_JOIN_FILTER). Set
  // by the planner's cost gate when no scan-side pushdown covers the
  // probe input (non-scan subtree, or anti/left-outer semantics that
  // forbid dropping probe rows upstream); the runtime gate still
  // decides whether the filter is actually built. Single-key joins
  // only.
  bool build_join_filter = false;
};

struct JoinStats {
  uint64_t build_rows = 0;
  uint64_t probe_rows = 0;
  uint64_t matches = 0;
  uint64_t chain_steps = 0;
  uint64_t overflow_steps = 0;
  uint64_t overflowed_partitions = 0;
  uint64_t repartitioned_partitions = 0;
  // Build-side hard-capacity faults absorbed by repartition-and-retry
  // at doubled fan-out (failure recovery, not skew handling).
  uint64_t overflow_recoveries = 0;
  uint64_t heavy_hitter_keys = 0;
  uint64_t heavy_hitter_matches = 0;
  // Join-filter pushdown is tallied per core (dpu::CoreCounters), not
  // here: it is query-level accounting, not a join-kernel statistic.

  JoinStats& operator+=(const JoinStats& other) {
    build_rows += other.build_rows;
    probe_rows += other.probe_rows;
    matches += other.matches;
    chain_steps += other.chain_steps;
    overflow_steps += other.overflow_steps;
    overflowed_partitions += other.overflowed_partitions;
    repartitioned_partitions += other.repartitioned_partitions;
    overflow_recoveries += other.overflow_recoveries;
    heavy_hitter_keys += other.heavy_hitter_keys;
    heavy_hitter_matches += other.heavy_hitter_matches;
    return *this;
  }
};

class JoinExec {
 public:
  // Joins partition pairs (build.partitions[i] vs probe.partitions[i])
  // across the DPU's cores. Both inputs must have equal fan-out.
  // `cancel` (optional) is polled at tile boundaries inside every
  // kernel so a cancelled query unwinds within one tile round.
  static Result<ColumnSet> Execute(dpu::Dpu& dpu,
                                   const PartitionedData& build,
                                   const PartitionedData& probe,
                                   const JoinSpec& spec,
                                   JoinStats* stats = nullptr,
                                   const CancelToken* cancel = nullptr);

  // Output schema implied by the spec.
  static std::vector<ColumnMeta> OutputMetas(const ColumnSet& build,
                                             const ColumnSet& probe,
                                             const JoinSpec& spec);
};

}  // namespace rapid::core

#endif  // RAPID_CORE_OPS_JOIN_EXEC_H_
