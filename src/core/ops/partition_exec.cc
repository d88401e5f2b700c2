#include "core/ops/partition_exec.h"

#include <algorithm>
#include <bit>

#include "common/arena.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/trace.h"
#include "primitives/hash.h"
#include "primitives/partition_map.h"
#include "primitives/simd.h"

namespace rapid::core {

namespace {

// Logical row width of a ColumnSet: physical widths of the logical
// types (intermediates are stored widened, but the DMS moves the
// encoded widths on the real machine, so cycle charges use these).
size_t LogicalRowBytes(const ColumnSet& set) {
  size_t bytes = 0;
  for (size_t c = 0; c < set.num_columns(); ++c) {
    bytes += storage::WidthOf(set.meta(c).type);
  }
  return bytes;
}

// Rows [begin, end) of one input bucket: one partition-engine
// descriptor chain, scattered by one core.
struct WorkUnit {
  size_t bucket, begin, end;
};

// One round's output, laid out before any row moves.
struct RoundOutput {
  std::vector<size_t> cursors;     // [unit * fanout + p]: next write row
  std::vector<ColumnSet> buckets;  // [input bucket * fanout + p]
  std::vector<std::vector<uint32_t>> hashes;  // same; empty if not carried
};

// Histograms every unit's range from the carried hashes (host
// bookkeeping: the tile loop's SwPartitionTileCycles models it) and
// prefix-sums the counts in (bucket, partition, unit) order, then
// allocates every output bucket (and its hashes if `carry`) once, at
// its exact final size.
RoundOutput LayoutRound(const std::vector<WorkUnit>& units,
                        const std::vector<std::vector<uint32_t>>& hashes,
                        const std::vector<ColumnMeta>& metas, int fanout,
                        int shift, bool carry) {
  const auto ufanout = static_cast<size_t>(fanout);
  const uint32_t mask = static_cast<uint32_t>(fanout) - 1;
  RoundOutput out;
  out.cursors.assign(units.size() * ufanout, 0);
  std::vector<size_t> sizes(hashes.size() * ufanout, 0);
  for (size_t u = 0; u < units.size(); ++u) {
    const uint32_t* h = hashes[units[u].bucket].data();
    size_t* cursor = out.cursors.data() + u * ufanout;
    for (size_t i = units[u].begin; i < units[u].end; ++i) {
      ++cursor[(h[i] >> shift) & mask];
    }
    size_t* size = sizes.data() + units[u].bucket * ufanout;
    for (size_t p = 0; p < ufanout; ++p) {
      const size_t count = cursor[p];
      cursor[p] = size[p];
      size[p] += count;
    }
  }
  out.buckets.assign(sizes.size(), ColumnSet(metas));
  if (carry) out.hashes.resize(sizes.size());
  for (size_t b = 0; b < sizes.size(); ++b) {
    for (size_t c = 0; c < metas.size(); ++c) {
      out.buckets[b].column(c).resize(sizes[b]);
    }
    if (carry) out.hashes[b].resize(sizes[b]);
  }
  return out;
}

// Scatters unit u's rows of `bucket` `round.fanout` ways by hash bits
// [shift, shift+log2(fanout)) straight into their final places in
// `out`, on one core, through the per-partition write-combining kernel
// (streaming stores on AVX2) with pooled tile scratch. The DMS charge
// covers the full stream through the partition engine (staging,
// CRC/CID resolution and the scatter back to DRAM, cf. Figure 8).
Status ScatterUnit(dpu::DpCore& core, const dpu::CostParams& params,
                   const ColumnSet& bucket, const std::vector<uint32_t>& hashes,
                   const std::vector<WorkUnit>& units, size_t u,
                   const PartitionRound& round, int shift, size_t tile_rows,
                   const CancelToken* cancel, RoundOutput* out) {
  const WorkUnit& unit = units[u];
  const auto ufanout = static_cast<size_t>(round.fanout);
  ColumnSet* dst_buckets = &out->buckets[unit.bucket * ufanout];
  std::vector<uint32_t>* dst_hashes =
      out->hashes.empty() ? nullptr : &out->hashes[unit.bucket * ufanout];
  size_t* cursor = &out->cursors[u * ufanout];
  const size_t num_cols = bucket.num_columns();
  const int sw_fanout = round.fanout / round.hw_fanout;
  const size_t row_bytes = LogicalRowBytes(bucket);

  const primitives::simd::PartitionKernelTable& kernels =
      primitives::simd::partition_kernels();
  TileBufferPool& pool = core.pool();
  // Fallible acquires: "pool.acquire" faults (allocator pressure on
  // chunk growth) surface as a Status instead of aborting, so the
  // retry/fallback ladder can recover. The RAII handles return every
  // buffer to the pool on any exit — including cancellation mid-round.
  TileBufferPool::Handle pof, counts, bases, wc;
  RAPID_RETURN_NOT_OK(pool.TryAcquireArray<uint16_t>(tile_rows, &pof));
  RAPID_RETURN_NOT_OK(pool.TryAcquireArray<uint32_t>(ufanout, &counts));
  RAPID_RETURN_NOT_OK(pool.TryAcquireArray<int64_t*>(ufanout, &bases));
  RAPID_RETURN_NOT_OK(pool.TryAcquire(
      primitives::simd::ScatterScratchBytes(ufanout), &wc));

  for (size_t start = unit.begin; start < unit.end; start += tile_rows) {
    RAPID_RETURN_NOT_OK(CancelToken::Check(cancel));
    const size_t rows = std::min(tile_rows, unit.end - start);
    // compute_partition_map over this tile's hash values (Listing 2,
    // loops 1-2; the RID list is not needed on the scatter path).
    uint16_t* part = pof.as<uint16_t>();
    primitives::ComputePartitionIndex(hashes.data() + start, rows,
                                      round.fanout, shift, part,
                                      counts.as<uint32_t>());
    // Scatter every projection column through software write-combining
    // lines; within each partition rows land in tile order after the
    // rows of earlier tiles and earlier units.
    int64_t** dst = bases.as<int64_t*>();
    for (size_t c = 0; c < num_cols; ++c) {
      for (size_t p = 0; p < ufanout; ++p) {
        dst[p] = dst_buckets[p].column(c).data() + cursor[p];
      }
      kernels.scatter_col(bucket.column(c).data() + start, part, rows,
                          ufanout, dst, wc.data());
    }
    if (dst_hashes != nullptr) {
      for (size_t i = 0; i < rows; ++i) {
        dst_hashes[part[i]][cursor[part[i]]++] = hashes[start + i];
      }
    } else {
      for (size_t p = 0; p < ufanout; ++p) {
        cursor[p] += counts.as<uint32_t>()[p];
      }
    }

    // Cycle charges. One partition-engine pass moves the tile's data
    // (read + partitioned write); the dpCore's software stage runs the
    // map/gather loops for the software share of the fan-out.
    // A pure hardware round's dpCore only drains DMEM buffers.
    core.cycles().ChargeDms(
        round.hw_fanout > 1
            ? dpu::HwPartitionCycles(params, dpu::HwPartitionStrategy::kHash,
                                     1, rows, rows * row_bytes)
            : static_cast<double>(rows * row_bytes) /
                  params.partition_bytes_per_cycle);
    core.cycles().ChargeCompute(
        sw_fanout > 1 ? dpu::SwPartitionTileCycles(
                            params, rows, static_cast<int>(num_cols), sw_fanout)
                      : static_cast<double>(rows));
  }
  return Status::OK();
}

}  // namespace

bool PartitionProgress::CompatibleWith(const PartitionScheme& scheme) const {
  if (rounds_done <= 0 ||
      rounds_done > static_cast<int>(scheme.NumRounds())) {
    return false;
  }
  size_t expect_buckets = 1;
  int expect_bits = 0;
  for (int r = 0; r < rounds_done; ++r) {
    const int fanout = scheme.rounds[static_cast<size_t>(r)].fanout;
    expect_buckets *= static_cast<size_t>(fanout);
    for (int b = 1; b < fanout; b <<= 1) ++expect_bits;
  }
  return buckets.size() == expect_buckets &&
         bucket_hashes.size() == expect_buckets && bits_used == expect_bits;
}

std::vector<uint32_t> PartitionExec::HashColumn(
    const ColumnSet& input, const std::vector<size_t>& key_cols) {
  std::vector<uint32_t> hashes(input.num_rows(), 0xFFFFFFFFu);
  for (size_t kc : key_cols) {
    primitives::HashCombineTile(input.column(kc).data(), hashes.size(),
                                hashes.data());
  }
  return hashes;
}

Result<PartitionedData> PartitionExec::Execute(
    dpu::Dpu& dpu, const ColumnSet& input,
    const std::vector<size_t>& key_cols, const PartitionScheme& scheme,
    size_t tile_rows, const CancelToken* cancel,
    PartitionProgress* progress) {
  if (scheme.rounds.empty()) {
    return Status::InvalidArgument("partition scheme needs >= 1 round");
  }
  for (const PartitionRound& r : scheme.rounds) {
    if (r.fanout < 2 || (r.fanout & (r.fanout - 1)) != 0) {
      return Status::InvalidArgument("round fan-out must be a power of two");
    }
    if (r.hw_fanout < 1 || r.fanout % r.hw_fanout != 0) {
      return Status::InvalidArgument("hw fan-out must divide the round");
    }
  }

  // Current buckets plus their hash columns (hashes are computed once
  // by the DMS hash engine and carried across rounds); round 1 reads
  // `input` as its one bucket. A compatible checkpoint replaces the
  // leading rounds, hash pass included; resumed rounds are
  // deterministic functions of its buckets, so output is bit-identical.
  std::vector<ColumnSet> buckets;
  std::vector<std::vector<uint32_t>> bucket_hashes;
  int shift = 0;
  size_t start_round = 0;
  if (progress != nullptr && !progress->empty() &&
      progress->CompatibleWith(scheme)) {
    buckets = std::move(progress->buckets);
    bucket_hashes = std::move(progress->bucket_hashes);
    shift = progress->bits_used;
    start_round = static_cast<size_t>(progress->rounds_done);
    progress->clear();
  } else {
    if (progress != nullptr) progress->clear();
    bucket_hashes.push_back(HashColumn(input, key_cols));
  }

  const auto num_cores = static_cast<size_t>(dpu.num_cores());
  for (size_t ri = start_round; ri < scheme.rounds.size(); ++ri) {
    const PartitionRound& round = scheme.rounds[ri];

    // Work units: buckets split into ranges, ~4 per core, so every core
    // has work and the morsel queue can rebalance. Units write disjoint
    // ranges laid out in range order: the bytes ignore unit bounds.
    std::vector<WorkUnit> units;
    size_t total_rows = 0;
    for (const auto& h : bucket_hashes) total_rows += h.size();
    const size_t target_rows = std::max<size_t>(
        64, (total_rows + 4 * num_cores - 1) / (4 * num_cores));
    for (size_t b = 0; b < bucket_hashes.size(); ++b) {
      const size_t rows = bucket_hashes[b].size();
      if (rows == 0) units.push_back({b, 0, 0});
      for (size_t begin = 0; begin < rows; begin += target_rows) {
        units.push_back({b, begin, std::min(rows, begin + target_rows)});
      }
    }

    // The last round's hashes are never read again: carry them only
    // into rounds that follow (and into a checkpoint of this round).
    const bool carry = ri + 1 < scheme.rounds.size();
    RoundOutput next = LayoutRound(units, bucket_hashes, input.metas(),
                                   round.fanout, shift, carry);

    // Morsel-driven assignment: each work unit is one morsel, weighted
    // by its row count; the LPT deal balances the cores' row totals
    // instead of striding units onto a straggler.
    std::vector<double> unit_weights(units.size());
    for (size_t u = 0; u < units.size(); ++u) {
      unit_weights[u] = static_cast<double>(units[u].end - units[u].begin);
    }
    const Status round_status = dpu.ParallelForMorsels(
        unit_weights, cancel, [&](dpu::DpCore& core, size_t u) -> Status {
          const WorkUnit& unit = units[u];
          TraceSpan span(TraceMode::kFull, core.id(), "partition.unit",
                         &dpu::TraceClockNow, &core.cycles());
          span.Annotate("round", static_cast<int64_t>(ri));
          span.Annotate("rows", static_cast<uint64_t>(unit.end - unit.begin));
          // Each work unit programs one partition-engine descriptor
          // chain; transient faults are retried inside RunDescriptor.
          RAPID_RETURN_NOT_OK(
              dpu.dms().RunDescriptor(&core.cycles(), faults::kDmsPartition));
          return ScatterUnit(core, dpu.params(),
                             buckets.empty() ? input : buckets[unit.bucket],
                             bucket_hashes[unit.bucket], units, u, round,
                             shift, tile_rows, cancel, &next);
        });
    if (!round_status.ok()) {
      // `buckets` still holds the previous completed round's output
      // (this round wrote only into `next`), so checkpointing it costs
      // nothing on the fault-free path. A cancelled query saves nothing
      // — it is being abandoned.
      if (progress != nullptr && ri > 0 && !round_status.IsCancellation()) {
        progress->rounds_done = static_cast<int>(ri);
        progress->bits_used = shift;
        progress->buckets = std::move(buckets);
        progress->bucket_hashes = std::move(bucket_hashes);
      }
      return round_status;
    }
    if (TraceCollector::Recording(TraceMode::kFull)) {
      TraceCollector::Instance().AddStepInstant(
          "partition.round",
          {TraceCollector::Arg::I("round", static_cast<int64_t>(ri)),
           TraceCollector::Arg::I("fanout", round.fanout),
           TraceCollector::Arg::U("rows", total_rows)});
    }
    buckets = std::move(next.buckets);
    bucket_hashes = std::move(next.hashes);
    shift += std::countr_zero(static_cast<unsigned>(round.fanout));
  }

  PartitionedData out;
  out.partitions = std::move(buckets);
  out.bits_used = shift;
  out.rounds = static_cast<int>(scheme.NumRounds());
  return out;
}

Result<std::vector<ColumnSet>> PartitionExec::Repartition(
    dpu::DpCore& core, const dpu::CostParams& params, const ColumnSet& input,
    const std::vector<size_t>& key_cols, int extra_fanout, int bits_used,
    size_t tile_rows) {
  if (extra_fanout < 2 || (extra_fanout & (extra_fanout - 1)) != 0) {
    return Status::InvalidArgument("repartition fan-out must be power of 2");
  }
  const std::vector<std::vector<uint32_t>> hashes{HashColumn(input, key_cols)};
  const std::vector<WorkUnit> units{WorkUnit{0, 0, input.num_rows()}};
  RoundOutput out = LayoutRound(units, hashes, input.metas(), extra_fanout,
                                bits_used, /*carry=*/false);
  // One unit on the detecting core: large-skew repartitioning is
  // introduced dynamically for a single oversized partition. No cancel
  // token — the caller owns cancellation at its own tile boundaries.
  RAPID_RETURN_NOT_OK(ScatterUnit(core, params, input, hashes[0], units, 0,
                                  PartitionRound{extra_fanout, 1}, bits_used,
                                  tile_rows, /*cancel=*/nullptr, &out));
  return std::move(out.buckets);
}

}  // namespace rapid::core
