#include "core/ops/partition_exec.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/arena.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/trace.h"
#include "primitives/hash.h"
#include "primitives/simd.h"

namespace rapid::core {

Status ValidatePartitionScheme(const PartitionScheme& scheme) {
  if (scheme.rounds.empty()) {
    return Status::InvalidArgument("partition scheme needs >= 1 round");
  }
  for (const PartitionRound& r : scheme.rounds) {
    if (r.fanout < 2 || (r.fanout & (r.fanout - 1)) != 0) {
      return Status::InvalidArgument("round fan-out must be a power of two");
    }
    if (r.fanout > kMaxRoundFanout) {
      return Status::InvalidArgument(
          "round fan-out exceeds the 16-bit partition index");
    }
    if (r.hw_fanout < 1 || r.fanout % r.hw_fanout != 0) {
      return Status::InvalidArgument("hw fan-out must divide the round");
    }
  }
  return Status::OK();
}

void ChargePartitionTile(const dpu::Dms& dms, dpu::CycleCounter& cycles,
                         const PartitionRound& round, size_t rows,
                         size_t num_cols, size_t row_bytes) {
  // One partition-engine pass moves the tile's data (read + partitioned
  // write); the dpCore's software stage runs the map/gather loops for
  // the software share of the fan-out. A pure hardware round's dpCore
  // only drains DMEM buffers. The pass is charged unpolled: the tile
  // belongs to its unit's or morsel's descriptor chain, which polled
  // "dms.partition" once before its first tile.
  const int sw_fanout = round.fanout / round.hw_fanout;
  dms.ChargePartition(&cycles, /*hardware=*/round.hw_fanout > 1, /*keys=*/1,
                      rows, rows * row_bytes);
  cycles.ChargeCompute(sw_fanout > 1
                           ? dpu::SwPartitionTileCycles(
                                 dms.params(), rows,
                                 static_cast<int>(num_cols), sw_fanout)
                           : static_cast<double>(rows));
}

namespace {

// Rows [begin, end) of one source bucket, with their key hashes: one
// partition-engine descriptor chain, scattered by one core into the
// `fanout` output buckets of group `bucket`.
struct WorkUnit {
  size_t bucket;
  const ColumnSet* rows;
  const uint32_t* hashes;
  size_t begin, end;
};

// One round's output, laid out before any row moves.
struct RoundOutput {
  std::vector<size_t> cursors;     // [unit * fanout + p]: next write row
  std::vector<ColumnSet> buckets;  // [group * fanout + p]
  std::vector<std::vector<uint32_t>> hashes;  // same; empty if not carried
};

// Histograms every unit's range from its hashes (host bookkeeping: the
// tile loop's SwPartitionTileCycles models it) and prefix-sums the
// counts in (group, partition, unit) order, then allocates every output
// bucket of the `groups` groups (and its hashes if `carry`) once, at
// its exact final size.
RoundOutput LayoutRound(const std::vector<WorkUnit>& units, size_t groups,
                        const std::vector<ColumnMeta>& metas, int fanout,
                        int shift, bool carry) {
  const auto ufanout = static_cast<size_t>(fanout);
  const uint32_t mask = static_cast<uint32_t>(fanout) - 1;
  RoundOutput out;
  out.cursors.assign(units.size() * ufanout, 0);
  std::vector<size_t> sizes(groups * ufanout, 0);
  for (size_t u = 0; u < units.size(); ++u) {
    const uint32_t* h = units[u].hashes;
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
    // Scatter slots are 32-bit row offsets within a bucket.
    RAPID_CHECK(sizes[b] <= std::numeric_limits<uint32_t>::max());
    out.buckets[b].Resize(sizes[b]);
    if (carry) out.hashes[b].resize(sizes[b]);
  }
  return out;
}

// A scatter's per-tile scratch: the tile's partition indexes, its
// per-partition write cursors, one column's per-partition write bases
// and the tile's row slots.
struct ScatterScratch {
  uint16_t* part;
  uint32_t* cursor;
  uint8_t** bases;
  uint32_t* slot;
};

// Scatters rows [start, start + rows) of unit u `fanout` ways by hash
// bits [shift, shift + log2(fanout)) straight into their final places
// in `out`. One pass gives every row its slot in its partition,
// slot[i] = cursor[part[i]]++, shared by every column and the carried
// hashes, which then each store dst[part[i]][slot[i]] = src[i] at
// their physical width. Within each partition rows land in tile order
// after the rows of earlier tiles and earlier units. Charges nothing:
// every round's scatter, paid by its caller.
void ScatterTile(const std::vector<WorkUnit>& units, size_t u, size_t start,
                 size_t rows, int fanout, int shift,
                 const ScatterScratch& scratch, RoundOutput* out) {
  const WorkUnit& unit = units[u];
  const auto ufanout = static_cast<size_t>(fanout);
  ColumnSet* dst_buckets = &out->buckets[unit.bucket * ufanout];
  std::vector<uint32_t>* dst_hashes =
      out->hashes.empty() ? nullptr : &out->hashes[unit.bucket * ufanout];
  size_t* cursor = &out->cursors[u * ufanout];
  // compute_partition_map's first loop over this tile's hash values
  // (Listing 2); the slot pass below stands in for its histogram and
  // RID list.
  primitives::simd::partition_kernels().partition_of(
      unit.hashes + start, rows, shift, static_cast<uint32_t>(fanout) - 1,
      scratch.part);
  const uint16_t* part = scratch.part;
  uint32_t* slot = scratch.slot;
  uint32_t* next = scratch.cursor;
  for (size_t p = 0; p < ufanout; ++p) {
    next[p] = static_cast<uint32_t>(cursor[p]);
  }
  for (size_t i = 0; i < rows; ++i) slot[i] = next[part[i]]++;
  for (size_t p = 0; p < ufanout; ++p) cursor[p] = next[p];

  for (size_t c = 0; c < unit.rows->num_columns(); ++c) {
    unit.rows->Visit(c, [&](const auto* src_col) {
      using T = ElementOf<decltype(src_col)>;
      uint8_t** bases = scratch.bases;
      for (size_t p = 0; p < ufanout; ++p) {
        bases[p] = reinterpret_cast<uint8_t*>(dst_buckets[p].data<T>(c));
      }
      const T* src = src_col + start;
      for (size_t i = 0; i < rows; ++i) {
        reinterpret_cast<T*>(bases[part[i]])[slot[i]] = src[i];
      }
    });
  }
  if (dst_hashes != nullptr) {
    const uint32_t* src = unit.hashes + start;
    for (size_t i = 0; i < rows; ++i) dst_hashes[part[i]][slot[i]] = src[i];
  }
}

// Unit u's charged scatter on one core, `tile_rows` rows a tile: the
// scratch comes from the core's tile pool, `cancel` is polled at tile
// boundaries and each tile pays ChargePartitionTile, the partition
// engine's full stream (staging, CRC/CID resolution and the scatter
// back to DRAM, cf. Figure 8). The caller polls the unit's descriptor.
Status ScatterUnit(dpu::DpCore& core, const dpu::Dms& dms,
                   const std::vector<WorkUnit>& units, size_t u,
                   const PartitionRound& round, int shift, size_t tile_rows,
                   const CancelToken* cancel, RoundOutput* out) {
  const WorkUnit& unit = units[u];
  const auto ufanout = static_cast<size_t>(round.fanout);
  TileBufferPool& pool = core.pool();
  // Fallible acquires: "pool.acquire" faults (allocator pressure on
  // chunk growth) surface as a Status instead of aborting, so the
  // retry/fallback ladder can recover. The RAII handles return every
  // buffer to the pool on any exit — including cancellation mid-round.
  TileBufferPool::Handle pof, cursor, bases, slot;
  RAPID_RETURN_NOT_OK(pool.TryAcquireArray<uint16_t>(tile_rows, &pof));
  RAPID_RETURN_NOT_OK(pool.TryAcquireArray<uint32_t>(ufanout, &cursor));
  RAPID_RETURN_NOT_OK(pool.TryAcquireArray<uint8_t*>(ufanout, &bases));
  RAPID_RETURN_NOT_OK(pool.TryAcquireArray<uint32_t>(tile_rows, &slot));
  const ScatterScratch scratch{pof.as<uint16_t>(), cursor.as<uint32_t>(),
                               bases.as<uint8_t*>(), slot.as<uint32_t>()};
  const size_t num_cols = unit.rows->num_columns();
  const size_t row_bytes = unit.rows->RowBytes();
  for (size_t start = unit.begin; start < unit.end; start += tile_rows) {
    RAPID_RETURN_NOT_OK(CancelToken::Check(cancel));
    const size_t rows = std::min(tile_rows, unit.end - start);
    ScatterTile(units, u, start, rows, round.fanout, shift, scratch, out);
    ChargePartitionTile(dms, core.cycles(), round, rows, num_cols,
                        row_bytes);
  }
  return Status::OK();
}

// Moves a checkpoint compatible with `scheme` into `state` and drops any
// other. True when `state` resumes from it.
bool TakeProgress(PartitionProgress* progress, const PartitionScheme& scheme,
                  PartitionProgress* state) {
  if (progress == nullptr) return false;
  const bool resume = progress->CompatibleWith(scheme);
  if (resume) *state = std::move(*progress);
  progress->clear();
  return resume;
}

// Runs `scheme`'s rounds after the `state.rounds_done` that `state`
// holds (buckets, their carried hash columns and the consumed bits);
// with none done, round 1 reads `input` as its one bucket, hashed in
// `state.bucket_hashes`. Each work unit polls one "dms.partition"
// descriptor chain and scatters charged. When a round fails, the rounds
// completed before it move into `progress` (if any); a cancelled query
// saves nothing — it is being abandoned.
Result<PartitionedData> RunRounds(dpu::Dpu& dpu, const ColumnSet* input,
                                  const std::vector<ColumnMeta>& metas,
                                  PartitionProgress state,
                                  const PartitionScheme& scheme,
                                  size_t tile_rows, const CancelToken* cancel,
                                  PartitionProgress* progress) {
  const auto num_cores = static_cast<size_t>(dpu.num_cores());
  for (auto ri = static_cast<size_t>(state.rounds_done);
       ri < scheme.rounds.size(); ++ri) {
    const PartitionRound& round = scheme.rounds[ri];
    const std::vector<std::vector<uint32_t>>& hashes = state.bucket_hashes;

    // Work units: buckets split into ranges, ~4 per core, so every core
    // has work and the morsel queue can rebalance. Units write disjoint
    // ranges laid out in range order: the bytes ignore unit bounds.
    std::vector<WorkUnit> units;
    size_t total_rows = 0;
    for (const auto& h : hashes) total_rows += h.size();
    const size_t target_rows = std::max<size_t>(
        64, (total_rows + 4 * num_cores - 1) / (4 * num_cores));
    for (size_t b = 0; b < hashes.size(); ++b) {
      const ColumnSet* rows = state.buckets.empty() ? input : &state.buckets[b];
      const size_t n = hashes[b].size();
      if (n == 0) units.push_back({b, rows, hashes[b].data(), 0, 0});
      for (size_t begin = 0; begin < n; begin += target_rows) {
        units.push_back({b, rows, hashes[b].data(), begin,
                         std::min(n, begin + target_rows)});
      }
    }

    // The last round's hashes are never read again: carry them only
    // into rounds that follow (and into a checkpoint of this round).
    const bool carry = ri + 1 < scheme.rounds.size();
    RoundOutput next = LayoutRound(units, hashes.size(), metas, round.fanout,
                                   state.bits_used, carry);

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
          return ScatterUnit(core, dpu.dms(), units, u, round,
                             state.bits_used, tile_rows, cancel, &next);
        });
    if (!round_status.ok()) {
      // `state` still holds the previous completed round's output (this
      // round wrote only into `next`), so checkpointing it costs
      // nothing on the fault-free path.
      if (progress != nullptr && ri > 0 && !round_status.IsCancellation()) {
        state.rounds_done = static_cast<int>(ri);
        *progress = std::move(state);
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
    state.buckets = std::move(next.buckets);
    state.bucket_hashes = std::move(next.hashes);
    state.bits_used += std::countr_zero(static_cast<unsigned>(round.fanout));
  }

  PartitionedData out;
  out.partitions = std::move(state.buckets);
  out.bits_used = state.bits_used;
  out.rounds = static_cast<int>(scheme.NumRounds());
  return out;
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

void PartitionExec::HashRows(const ColumnSet& input,
                             const std::vector<size_t>& key_cols,
                             size_t start, size_t n, int shift,
                             uint32_t* out) {
  std::fill_n(out, n, 0xFFFFFFFFu);
  for (size_t kc : key_cols) {
    input.Visit(kc, [&](const auto* col) {
      primitives::HashCombineTile(col + start, n, out);
    });
  }
  if (shift > 0) {
    for (size_t i = 0; i < n; ++i) out[i] >>= shift;
  }
}

std::vector<uint32_t> PartitionExec::HashColumn(
    const ColumnSet& input, const std::vector<size_t>& key_cols) {
  std::vector<uint32_t> hashes(input.num_rows());
  HashRows(input, key_cols, 0, hashes.size(), 0, hashes.data());
  return hashes;
}

Result<PartitionedData> PartitionExec::Execute(
    dpu::Dpu& dpu, const ColumnSet& input,
    const std::vector<size_t>& key_cols, const PartitionScheme& scheme,
    size_t tile_rows, const CancelToken* cancel,
    PartitionProgress* progress) {
  RAPID_RETURN_NOT_OK(ValidatePartitionScheme(scheme));
  // Hashes are computed once by the DMS hash engine and carried across
  // rounds. A compatible checkpoint replaces the leading rounds, hash
  // pass included; resumed rounds are deterministic functions of its
  // buckets, so output is bit-identical.
  PartitionProgress state;
  if (!TakeProgress(progress, scheme, &state)) {
    state.bucket_hashes.push_back(HashColumn(input, key_cols));
  }
  return RunRounds(dpu, &input, input.metas(), std::move(state), scheme,
                   tile_rows, cancel, progress);
}

Result<PartitionedData> PartitionExec::ExecuteSink(
    dpu::Dpu& dpu, std::vector<ColumnMeta> metas,
    std::vector<ColumnSet> morsels, const std::vector<size_t>& key_cols,
    const PartitionScheme& scheme, size_t tile_rows,
    const CancelToken* cancel, PartitionProgress* progress) {
  RAPID_RETURN_NOT_OK(ValidatePartitionScheme(scheme));
  PartitionProgress state;
  if (!TakeProgress(progress, scheme, &state)) {
    // Round 1, one unit per morsel into one group: each partition's
    // rows in morsel order, input order within a morsel. Nothing here
    // is charged or polled. The cores hash and scatter their share of
    // the morsels on the host's worker threads; units write disjoint
    // ranges.
    const PartitionRound& round = scheme.rounds.front();
    const auto fanout = static_cast<size_t>(round.fanout);
    const auto num_cores = static_cast<size_t>(dpu.num_cores());
    std::vector<std::vector<uint32_t>> hashes(morsels.size());
    dpu.ParallelFor([&](dpu::DpCore& core) {
      for (auto m = static_cast<size_t>(core.id()); m < morsels.size();
           m += num_cores) {
        hashes[m] = HashColumn(morsels[m], key_cols);
      }
    });
    std::vector<WorkUnit> units;
    size_t max_rows = 0;
    size_t total_rows = 0;
    for (size_t m = 0; m < morsels.size(); ++m) {
      units.push_back({0, &morsels[m], hashes[m].data(), 0,
                       morsels[m].num_rows()});
      max_rows = std::max(max_rows, morsels[m].num_rows());
      total_rows += morsels[m].num_rows();
    }
    RoundOutput out = LayoutRound(units, 1, metas, round.fanout, 0,
                                  /*carry=*/scheme.NumRounds() > 1);
    // Each core scatters one run of consecutive morsels, about an equal
    // share of the rows: consecutive units' ranges of a bucket are
    // adjacent, so runs keep cores off each other's cache lines at
    // narrow widths. `tile_rows`-row tiles keep a tile's partition
    // indexes and slots cache-resident while its columns scatter.
    std::vector<size_t> first(num_cores + 1, units.size());
    first[0] = 0;
    size_t seen = 0;
    for (size_t u = 0, k = 1; u < units.size() && k < num_cores; ++u) {
      seen += units[u].end;
      while (k < num_cores && seen * num_cores >= k * total_rows) {
        first[k++] = u + 1;
      }
    }
    const size_t scatter_rows =
        std::max<size_t>(1, std::min(tile_rows, max_rows));
    dpu.ParallelFor([&](dpu::DpCore& core) {
      const auto k = static_cast<size_t>(core.id());
      if (first[k] >= first[k + 1]) return;
      std::vector<uint16_t> part(scatter_rows);
      std::vector<uint32_t> cursor(fanout);
      std::vector<uint8_t*> bases(fanout);
      std::vector<uint32_t> slot(scatter_rows);
      const ScatterScratch scratch{part.data(), cursor.data(), bases.data(),
                                   slot.data()};
      for (size_t u = first[k]; u < first[k + 1]; ++u) {
        for (size_t start = 0; start < units[u].end; start += scatter_rows) {
          ScatterTile(units, u, start,
                      std::min(scatter_rows, units[u].end - start),
                      round.fanout, 0, scratch, &out);
        }
        morsels[u] = ColumnSet();
        hashes[u] = {};
      }
    });
    state.rounds_done = 1;
    state.bits_used = std::countr_zero(static_cast<unsigned>(round.fanout));
    state.buckets = std::move(out.buckets);
    state.bucket_hashes = std::move(out.hashes);
  }
  return RunRounds(dpu, nullptr, metas, std::move(state), scheme, tile_rows,
                   cancel, progress);
}

Result<std::vector<ColumnSet>> PartitionExec::Repartition(
    dpu::DpCore& core, const dpu::Dms& dms, const ColumnSet& input,
    const std::vector<size_t>& key_cols, int extra_fanout, int bits_used,
    size_t tile_rows) {
  if (extra_fanout < 2 || (extra_fanout & (extra_fanout - 1)) != 0) {
    return Status::InvalidArgument("repartition fan-out must be power of 2");
  }
  if (extra_fanout > kMaxRoundFanout) {
    return Status::InvalidArgument(
        "repartition fan-out exceeds the 16-bit partition index");
  }
  RAPID_RETURN_NOT_OK(
      dms.RunDescriptor(&core.cycles(), faults::kDmsPartition));
  const std::vector<uint32_t> hashes = HashColumn(input, key_cols);
  const std::vector<WorkUnit> units{
      WorkUnit{0, &input, hashes.data(), 0, input.num_rows()}};
  RoundOutput out = LayoutRound(units, 1, input.metas(), extra_fanout,
                                bits_used, /*carry=*/false);
  // One unit on the detecting core: large-skew repartitioning is
  // introduced dynamically for a single oversized partition. No cancel
  // token — the caller owns cancellation at its own tile boundaries.
  RAPID_RETURN_NOT_OK(ScatterUnit(core, dms, units, 0,
                                  PartitionRound{extra_fanout, 1}, bits_used,
                                  tile_rows, /*cancel=*/nullptr, &out));
  return std::move(out.buckets);
}

}  // namespace rapid::core
