// Partitioning operator (Sections 5.3, 5.4 and 6.2).
//
// RAPID combines hardware and software partitioning: the DMS engine
// partitions up to 32 ways on the fly (hash/radix/range/round-robin)
// while delivering data into dpCore DMEMs, and each dpCore can apply
// further vectorized software partitioning (Listings 2 and 3) — so a
// single pass reaches fan-outs above 1024. Larger targets use
// multiple rounds, chosen by the partition-scheme optimizer.
//
// Each round maintains per-partition local buffers in DMEM and flushes
// full buffers to DRAM via the DMS, converting random DRAM writes into
// sequential streams. On the host, a round first histograms every work
// unit, then lays out exact-size output buckets, and then has each
// unit scatter straight into its disjoint ranges of them. Every round
// is laid out here: a PARTITION step's, a pipeline's partition sink's
// and the join's runtime repartitioning.

#ifndef RAPID_CORE_OPS_PARTITION_EXEC_H_
#define RAPID_CORE_OPS_PARTITION_EXEC_H_

#include <cstdint>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "core/qef/column_set.h"
#include "dpu/dpu.h"

namespace rapid::core {

// Most ways one round (or a runtime repartition) splits a bucket:
// partition indexes are 16-bit (PartitionKernelTable::partition_of).
inline constexpr int kMaxRoundFanout = 1 << 16;

// One partitioning pass: total `fanout` ways, of which `hw_fanout`
// ways come from the DMS hardware engine (first pass only) and
// fanout/hw_fanout ways from software partitioning on each core.
struct PartitionRound {
  int fanout = 32;
  int hw_fanout = 1;  // 1 = pure software round

  bool operator==(const PartitionRound&) const = default;
};

struct PartitionScheme {
  std::vector<PartitionRound> rounds;

  int TotalFanout() const {
    int f = 1;
    for (const PartitionRound& r : rounds) f *= r.fanout;
    return f;
  }
  size_t NumRounds() const { return rounds.size(); }
};

struct PartitionedData {
  std::vector<ColumnSet> partitions;
  // Hash bits already consumed to form these partitions; further
  // (re)partitioning must use bits above this position.
  int bits_used = 0;
  // Rounds executed (or reused) to produce these partitions; the
  // checkpoint layer counts them as reused work when a whole
  // partitioned output is restored on a retry.
  int rounds = 0;
};

// Completed-round checkpoint of a multi-round partition pass. Each
// round histograms its input, allocates its output buckets at exact
// size and scatters every row once into its final offset. When a
// round fails, Execute() or ExecuteSink() moves the last completed
// round's buckets (and their carried hash columns) here and drops the
// failed round's half-written ones; a retry with the same scheme
// resumes at round `rounds_done` instead of re-partitioning from
// scratch. Cancellation never populates this — the query is being
// abandoned, not retried.
struct PartitionProgress {
  int rounds_done = 0;  // fully completed rounds held in `buckets`
  int bits_used = 0;    // hash bits consumed by those rounds
  std::vector<ColumnSet> buckets;
  std::vector<std::vector<uint32_t>> bucket_hashes;

  bool empty() const { return rounds_done == 0; }
  void clear() {
    rounds_done = 0;
    bits_used = 0;
    buckets.clear();
    bucket_hashes.clear();
  }
  // True when this progress is a valid prefix of `scheme`: the bucket
  // count and consumed bits match rounds [0, rounds_done). A retry
  // after demotion replans with the same deterministic scheme, so a
  // mismatch only means the checkpoint belongs to a different step.
  bool CompatibleWith(const PartitionScheme& scheme) const;
};

// OK when every round's fan-out is a power of two in
// [2, kMaxRoundFanout] that its hardware fan-out divides, and there is
// at least one round.
Status ValidatePartitionScheme(const PartitionScheme& scheme);

// The modeled cost of partitioning one tile of `rows` rows (`num_cols`
// columns, `row_bytes` bytes per row at their physical widths,
// ColumnSet::RowBytes) in `round`: the partition engine's pass on the
// DMS and the software fan-out on the dpCore. PartitionExec's rounds
// and a pipeline's partition sink both pay it, each tile under the
// "dms.partition" descriptor its work unit or morsel polled once.
void ChargePartitionTile(const dpu::Dms& dms, dpu::CycleCounter& cycles,
                         const PartitionRound& round, size_t rows,
                         size_t num_cols, size_t row_bytes);

class PartitionExec {
 public:
  // Hash-partitions `input` by CRC32 over `key_cols` according to
  // `scheme`, in parallel over the DPU's cores. `tile_rows` is the
  // software-partitioning tile size (Figure 10's parameter).
  //
  // Each work unit programs one partition-engine descriptor chain;
  // transient "dms.partition" faults are absorbed by the DMS retry
  // policy, and `cancel` (optional) is polled at tile boundaries.
  //
  // `progress` (optional) carries completed rounds across attempts:
  // on entry, compatible progress skips its rounds (including the
  // input hash computation); on a non-cancellation failure the last
  // completed round is saved back so the caller can retry from it.
  // Resumed execution is bit-identical to a from-scratch run — rounds
  // are deterministic functions of their input buckets.
  static Result<PartitionedData> Execute(dpu::Dpu& dpu,
                                         const ColumnSet& input,
                                         const std::vector<size_t>& key_cols,
                                         const PartitionScheme& scheme,
                                         size_t tile_rows,
                                         const CancelToken* cancel = nullptr,
                                         PartitionProgress* progress = nullptr);

  // The rounds of a pipeline's partition sink (PartitionSink): `morsels`
  // are the sink's rows of schema `metas`, one ColumnSet per morsel in
  // morsel order. The sink polled and paid round 1, so round 1 here
  // only hashes the rows, lays out its buckets and scatters each
  // morsel into them (one unit per morsel, in (partition, morsel)
  // order), uncharged and unpolled, freeing each morsel once it is
  // scattered: the same bytes Execute's round 1 writes from the
  // morsels' concatenation. The later rounds run in `tile_rows`-row
  // tiles, and checkpoint into `progress`, as Execute's do; a
  // compatible `progress` stands in for the rounds it holds, and
  // `morsels` is not read.
  static Result<PartitionedData> ExecuteSink(
      dpu::Dpu& dpu, std::vector<ColumnMeta> metas,
      std::vector<ColumnSet> morsels, const std::vector<size_t>& key_cols,
      const PartitionScheme& scheme, size_t tile_rows,
      const CancelToken* cancel, PartitionProgress* progress);

  // Re-partitions a single oversized partition `extra_fanout` more
  // ways (the large-skew handler, Section 6.4), starting at hash bit
  // `bits_used`. Runs on `core` (the core that detected the skew) as
  // one work unit: one polled "dms.partition" descriptor chain.
  // `extra_fanout` is a power of two in [2, kMaxRoundFanout].
  static Result<std::vector<ColumnSet>> Repartition(
      dpu::DpCore& core, const dpu::Dms& dms,
      const ColumnSet& input, const std::vector<size_t>& key_cols,
      int extra_fanout, int bits_used, size_t tile_rows);

  // CRC32 hash column for `input` over `key_cols` (the hardware hash
  // engine's CRC-memory output).
  static std::vector<uint32_t> HashColumn(const ColumnSet& input,
                                          const std::vector<size_t>& key_cols);

  // The key hash of rows [start, start + n) of `input` over `key_cols`
  // (primitives::HashKeysTile's chained CRC32, read at each key's
  // physical width), shifted right by `shift`, into `out`. Every width
  // hashes a value as its int64 widening does.
  static void HashRows(const ColumnSet& input,
                       const std::vector<size_t>& key_cols, size_t start,
                       size_t n, int shift, uint32_t* out);
};

}  // namespace rapid::core

#endif  // RAPID_CORE_OPS_PARTITION_EXEC_H_
