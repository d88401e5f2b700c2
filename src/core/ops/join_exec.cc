#include "core/ops/join_exec.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "common/config.h"
#include "common/crc32.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/trace.h"
#include "primitives/bloom.h"
#include "primitives/join_kernel.h"

namespace rapid::core {

namespace {

size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

uint32_t HashRow(const ColumnSet& set, const std::vector<size_t>& keys,
                 size_t row) {
  uint32_t h = 0xFFFFFFFFu;
  for (size_t k : keys) {
    h = Crc32Combine(h, static_cast<uint64_t>(set.Value(row, k)));
  }
  return h;
}

bool KeysEqual(const ColumnSet& build, const std::vector<size_t>& bkeys,
               size_t brow, const ColumnSet& probe,
               const std::vector<size_t>& pkeys, size_t prow) {
  for (size_t k = 0; k < bkeys.size(); ++k) {
    if (build.Value(brow, bkeys[k]) != probe.Value(prow, pkeys[k])) {
      return false;
    }
  }
  return true;
}

// Space-saving heavy-hitter sketch: k counters, evict-min on overflow.
// Overestimates counts, never underestimates — safe for detection.
// Counters are indexed by a count-ordered bucket map so increment and
// evict-min are O(log k) instead of an O(k) scan per insert — the
// sketch runs on the hot build path of every partition pair.
class SpaceSaving {
 public:
  explicit SpaceSaving(size_t capacity) : capacity_(capacity) {}

  void Add(int64_t key) {
    auto it = counts_.find(key);
    if (it != counts_.end()) {
      MoveBucket(key, it->second, it->second + 1);
      ++it->second;
      return;
    }
    if (counts_.size() < capacity_) {
      counts_[key] = 1;
      by_count_[1].insert(key);
      return;
    }
    // Evict a minimum-count key and inherit its count (+1).
    auto min_bucket = by_count_.begin();
    const uint64_t inherited = min_bucket->first + 1;
    const int64_t victim = *min_bucket->second.begin();
    min_bucket->second.erase(min_bucket->second.begin());
    if (min_bucket->second.empty()) by_count_.erase(min_bucket);
    counts_.erase(victim);
    counts_[key] = inherited;
    by_count_[inherited].insert(key);
  }

  std::vector<int64_t> KeysAbove(uint64_t threshold) const {
    std::vector<int64_t> out;
    for (const auto& [key, count] : counts_) {
      if (count >= threshold) out.push_back(key);
    }
    return out;
  }

 private:
  void MoveBucket(int64_t key, uint64_t from, uint64_t to) {
    auto it = by_count_.find(from);
    it->second.erase(key);
    if (it->second.empty()) by_count_.erase(it);
    by_count_[to].insert(key);
  }

  size_t capacity_;
  std::unordered_map<int64_t, uint64_t> counts_;
  // count -> keys currently at that count; begin() is the eviction
  // candidate set.
  std::map<uint64_t, std::unordered_set<int64_t>> by_count_;
};

struct PairResult {
  ColumnSet output;
  JoinStats stats;
};

void EmitMatch(const ColumnSet& build, const ColumnSet& probe,
               const JoinSpec& spec, size_t brow, size_t prow,
               ColumnSet* out) {
  for (size_t c = 0; c < spec.outputs.size(); ++c) {
    const JoinSpec::Output& o = spec.outputs[c];
    out->column(c).push_back(
        o.from_build
            ? (brow == SIZE_MAX ? kJoinNull : build.Value(brow, o.column))
            : probe.Value(prow, o.column));
  }
}

// Recovery attempts per partition pair before a hard build-side
// capacity fault is surfaced to the caller. Each attempt doubles the
// fan-out, so the budget bounds both recursion depth and the number of
// sub-kernels a pathological fault storm can spawn.
constexpr int kMaxOverflowRecoveries = 4;

// Joins one partition pair on one core. May recurse after large-skew
// repartitioning or after build-side capacity-fault recovery.
Status JoinPair(dpu::Dpu& dpu, dpu::DpCore& core, const ColumnSet& build,
                const ColumnSet& probe, const JoinSpec& spec, int bits_used,
                const CancelToken* cancel, int overflow_budget,
                PairResult* result) {
  const dpu::CostParams& params = dpu.params();
  const size_t build_rows = build.num_rows();
  const size_t probe_rows = probe.num_rows();
  result->stats.build_rows += build_rows;
  result->stats.probe_rows += probe_rows;

  // ---- Large skew: dynamically repartition oversized kernels ----
  if (spec.est_rows_per_partition > 0 &&
      static_cast<double>(build_rows) >
          spec.large_skew_factor *
              static_cast<double>(spec.est_rows_per_partition) &&
      bits_used + 1 < 32) {
    const size_t target_parts = (build_rows + spec.est_rows_per_partition - 1) /
                                spec.est_rows_per_partition;
    int extra = static_cast<int>(NextPow2(std::max<size_t>(2, target_parts)));
    // The 32-bit hash caps total fan-out: leave at least one bit above
    // the partitioning bits for the kernel's bucket index, or the
    // bucket shift walks off the hash width.
    const int max_extra_bits = 31 - bits_used;
    if (__builtin_ctz(static_cast<unsigned>(extra)) > max_extra_bits) {
      extra = 1 << max_extra_bits;
    }
    auto sub_build = PartitionExec::Repartition(
        core, params, build, spec.build_keys, extra, bits_used,
        spec.tile_rows);
    auto sub_probe = PartitionExec::Repartition(
        core, params, probe, spec.probe_keys, extra, bits_used,
        spec.tile_rows);
    if (sub_build.ok() && sub_probe.ok()) {
      ++result->stats.repartitioned_partitions;
      // The repartitioned rows were already counted above; sub-pair
      // accounting would double count, so snapshot and restore.
      const uint64_t saved_build = result->stats.build_rows;
      const uint64_t saved_probe = result->stats.probe_rows;
      const int extra_bits = __builtin_ctz(static_cast<unsigned>(extra));
      for (int p = 0; p < extra; ++p) {
        RAPID_RETURN_NOT_OK(JoinPair(
            dpu, core, sub_build.value()[static_cast<size_t>(p)],
            sub_probe.value()[static_cast<size_t>(p)], spec,
            bits_used + extra_bits, cancel, overflow_budget, result));
      }
      result->stats.build_rows = saved_build;
      result->stats.probe_rows = saved_probe;
      return Status::OK();
    }
  }

  // ---- Build-side capacity faults: repartition-and-retry ----
  // Two triggers share one recovery: an injected "join.build"
  // kCapacityExceeded fault (modeling a hash table whose DRAM overflow
  // region is itself exhausted) and a hard DMEM budget with
  // spec.hard_capacity set. Recovery splits the pair at doubled
  // fan-out — each sub-kernel builds a table roughly half the size —
  // and retries, up to kMaxOverflowRecoveries times.
  Status build_fault = Status::OK();
  if (__builtin_expect(FaultInjector::enabled(), 0)) {
    build_fault = FaultInjector::Instance().Poll(faults::kJoinBuild);
    if (!build_fault.ok() && !build_fault.IsCapacityExceeded()) {
      return build_fault;  // non-capacity faults are not recoverable here
    }
  }
  const bool hard_overflow =
      spec.hard_capacity && build_rows > spec.dmem_capacity_rows;
  if (!build_fault.ok() || hard_overflow) {
    if (overflow_budget > 0 && bits_used + 1 < 32 && build_rows > 1) {
      auto sub_build = PartitionExec::Repartition(
          core, params, build, spec.build_keys, 2, bits_used, spec.tile_rows);
      auto sub_probe = PartitionExec::Repartition(
          core, params, probe, spec.probe_keys, 2, bits_used, spec.tile_rows);
      if (sub_build.ok() && sub_probe.ok()) {
        ++result->stats.overflow_recoveries;
        const uint64_t saved_build = result->stats.build_rows;
        const uint64_t saved_probe = result->stats.probe_rows;
        for (int p = 0; p < 2; ++p) {
          RAPID_RETURN_NOT_OK(JoinPair(
              dpu, core, sub_build.value()[static_cast<size_t>(p)],
              sub_probe.value()[static_cast<size_t>(p)], spec, bits_used + 1,
              cancel, overflow_budget - 1, result));
        }
        result->stats.build_rows = saved_build;
        result->stats.probe_rows = saved_probe;
        return Status::OK();
      }
    }
    if (!build_fault.ok()) {
      return Status::CapacityExceeded(
          "join build capacity fault not recoverable after " +
          std::to_string(kMaxOverflowRecoveries) +
          " repartition attempts: " + build_fault.ToString());
    }
    // Hard DMEM overflow that can no longer be split: fall through to
    // the graceful DRAM-overflow table below.
  }

  // ---- Heavy-hitter detection (flow-join style) ----
  std::unordered_map<int64_t, std::vector<uint32_t>> heavy_rows;
  if (spec.heavy_hitter_threshold > 0 && spec.build_keys.size() == 1) {
    SpaceSaving sketch(64);
    const std::vector<int64_t>& keys = build.column(spec.build_keys[0]);
    for (size_t i = 0; i < build_rows; ++i) sketch.Add(keys[i]);
    // Sketch scan is ~1 cycle/row with the approximate histogram.
    core.cycles().ChargeCompute(static_cast<double>(build_rows));
    for (int64_t key : sketch.KeysAbove(spec.heavy_hitter_threshold)) {
      // Verify against exact counts (sketch overestimates).
      uint64_t exact = 0;
      for (size_t i = 0; i < build_rows; ++i) {
        if (keys[i] == key) ++exact;
      }
      if (exact >= spec.heavy_hitter_threshold) {
        heavy_rows.emplace(key, std::vector<uint32_t>{});
      }
    }
    if (!heavy_rows.empty()) {
      result->stats.heavy_hitter_keys += heavy_rows.size();
    }
  }

  // ---- Build stage ----
  const size_t reduced = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(std::max<size_t>(build_rows, 1)) /
                             spec.bucket_reduction));
  const size_t num_buckets = NextPow2(reduced);
  // The fast modulo is a bit-mask *and a shift* (Section 6.3): the low
  // hash bits selected this partition, so the kernel's bucket index
  // must come from the bits above them or every row aliases into the
  // same few buckets.
  const int shift = std::min(bits_used, 31);
  primitives::CompactJoinTable table(build_rows, num_buckets,
                                     std::min(spec.dmem_capacity_rows,
                                              build_rows));
  if (build_rows > spec.dmem_capacity_rows) {
    ++result->stats.overflowed_partitions;
  }

  {
    TraceSpan build_span(TraceMode::kFull, core.id(), "join.build",
                         &dpu::TraceClockNow, &core.cycles());
    build_span.Annotate("rows", static_cast<uint64_t>(build_rows));
    const std::vector<size_t>& bkeys = spec.build_keys;
    for (size_t start = 0; start < build_rows; start += spec.tile_rows) {
      RAPID_RETURN_NOT_OK(CancelToken::Check(cancel));
      const size_t rows = std::min(spec.tile_rows, build_rows - start);
      for (size_t i = 0; i < rows; ++i) {
        const size_t row = start + i;
        if (!heavy_rows.empty() && bkeys.size() == 1) {
          auto it = heavy_rows.find(build.Value(row, bkeys[0]));
          if (it != heavy_rows.end()) {
            // Heavy keys bypass the hash table; their rows go to the
            // broadcast side list.
            it->second.push_back(static_cast<uint32_t>(row));
            continue;
          }
        }
        table.Insert(HashRow(build, bkeys, row) >> shift, row);
      }
      core.cycles().ChargeCompute(dpu::JoinBuildTileCycles(params, rows));
      if (!spec.vectorized) {
        core.cycles().ChargeCompute(params.row_at_a_time_overhead_cycles *
                                    static_cast<double>(rows));
      }
      // DMS streams the build tile into DMEM (overlapped).
      core.cycles().ChargeDms(dpu::DmsTileTransferCycles(
          params, static_cast<int>(bkeys.size()), rows, sizeof(int64_t),
          false));
    }
  }

  // ---- Join-filter build (RAPID_JOIN_FILTER) ----
  // Per-pair blocked Bloom filter over ALL build keys — including the
  // heavy-hitter rows that bypassed the hash table — so a filter miss
  // guarantees the probe row matches neither the table nor the
  // broadcast side list. Built after the repartition/recovery blocks
  // above: every recursion path returns early, so a stale filter can
  // never survive a repartition (invalidation by construction). The
  // gate is runtime-only and the bloom code performs no fault polls,
  // pool acquires or DMEM allocations, keeping fault-injection
  // ordinals identical in off and auto modes.
  primitives::BlockedBloomFilter pair_filter;
  bool use_filter = false;
  if (spec.build_join_filter && GetConfig().join_filter == JoinFilterMode::kAuto &&
      spec.build_keys.size() == 1 && build_rows > 0 && probe_rows > 0) {
    const size_t num_blocks = primitives::BlockedBloomFilter::BlocksForNdv(
        build_rows, core.dmem().capacity() / 4);
    if (num_blocks > 0) {
      pair_filter = primitives::BlockedBloomFilter(num_blocks);
      const std::vector<int64_t>& keys = build.column(spec.build_keys[0]);
      for (size_t i = 0; i < build_rows; ++i) {
        pair_filter.Insert(static_cast<uint64_t>(keys[i]));
      }
      core.cycles().ChargeCompute(params.bloom_insert_cycles_per_row /
                                  params.simd.bloom *
                                  static_cast<double>(build_rows));
      use_filter = true;
      core.counters().join_filter_built += 1;
      core.counters().filter_bytes += pair_filter.bytes();
    }
  }

  // ---- Probe stage ----
  primitives::ProbeStats probe_stats;
  const std::vector<size_t>& pkeys = spec.probe_keys;
  // The batched path hashes a whole DMEM tile then calls ProbeBatch
  // once per tile. It preserves emission order for inner/semi/anti
  // joins; left-outer interleaves match and null rows per probe row,
  // and heavy-hitter side passes need per-row bookkeeping, so those
  // keep the per-row loop.
  const bool batched =
      heavy_rows.empty() && spec.type != JoinType::kLeftOuter;
  std::vector<uint32_t> tile_hashes;
  std::vector<uint32_t> tile_match_counts;
  std::vector<uint32_t> keep_idx;
  std::vector<uint32_t> kept_counts;
  if (batched) {
    tile_hashes.resize(spec.tile_rows);
    tile_match_counts.resize(spec.tile_rows);
    keep_idx.resize(spec.tile_rows);
    kept_counts.resize(spec.tile_rows);
  }
  TraceSpan probe_span(TraceMode::kFull, core.id(), "join.probe",
                       &dpu::TraceClockNow, &core.cycles());
  probe_span.Annotate("rows", static_cast<uint64_t>(probe_rows));
  for (size_t start = 0; start < probe_rows; start += spec.tile_rows) {
    RAPID_RETURN_NOT_OK(CancelToken::Check(cancel));
    const size_t rows = std::min(spec.tile_rows, probe_rows - start);
    primitives::ProbeStats tile_stats;
    size_t tile_pruned = 0;
    if (batched) {
      // Bloom-prune before hashing: pruned rows keep match_count 0 (so
      // the anti post-loop still emits them in row order) and drop out
      // of the ProbeBatch entirely. Kept rows probe in row order, so
      // inner/semi emission order is identical with the filter off.
      size_t kept = 0;
      for (size_t i = 0; i < rows; ++i) {
        tile_match_counts[i] = 0;
        if (use_filter && !pair_filter.MayContain(static_cast<uint64_t>(
                              probe.Value(start + i, pkeys[0])))) {
          continue;
        }
        keep_idx[kept] = static_cast<uint32_t>(i);
        tile_hashes[kept] = HashRow(probe, pkeys, start + i) >> shift;
        ++kept;
      }
      tile_pruned = rows - kept;
      table.ProbeBatch(
          tile_hashes.data(), kept,
          [&](size_t i, size_t brow) {
            return KeysEqual(build, spec.build_keys, brow, probe, pkeys,
                             start + keep_idx[i]);
          },
          [&](size_t i, size_t brow) {
            if (spec.type == JoinType::kInner) {
              EmitMatch(build, probe, spec, brow, start + keep_idx[i],
                        &result->output);
            }
          },
          kept_counts.data(), &tile_stats);
      for (size_t i = 0; i < kept; ++i) {
        tile_match_counts[keep_idx[i]] = kept_counts[i];
      }
      for (size_t i = 0; i < rows; ++i) {
        const uint32_t match_count = tile_match_counts[i];
        if (spec.type == JoinType::kSemi && match_count > 0) {
          EmitMatch(build, probe, spec, SIZE_MAX, start + i, &result->output);
        } else if (spec.type == JoinType::kAnti && match_count == 0) {
          EmitMatch(build, probe, spec, SIZE_MAX, start + i, &result->output);
        }
        result->stats.matches += match_count;
      }
    } else {
      for (size_t i = 0; i < rows; ++i) {
        const size_t prow = start + i;
        size_t match_count = 0;
        // The filter covers heavy-bypass build rows too, so a miss
        // also skips the broadcast side pass; match_count stays 0 and
        // the anti/left-outer switch below emits correctly.
        const bool pruned =
            use_filter && !pair_filter.MayContain(static_cast<uint64_t>(
                              probe.Value(prow, pkeys[0])));
        if (pruned) {
          ++tile_pruned;
        } else {
          const uint32_t hash = HashRow(probe, pkeys, prow) >> shift;
          table.Probe(
              hash,
              [&](size_t brow) {
                return KeysEqual(build, spec.build_keys, brow, probe, pkeys,
                                 prow);
              },
              [&](size_t brow) {
                ++match_count;
                if (spec.type == JoinType::kInner ||
                    spec.type == JoinType::kLeftOuter) {
                  EmitMatch(build, probe, spec, brow, prow, &result->output);
                }
              },
              &tile_stats);

          // Heavy-hitter side pass: probe the broadcast list.
          if (!heavy_rows.empty() && pkeys.size() == 1) {
            auto it = heavy_rows.find(probe.Value(prow, pkeys[0]));
            if (it != heavy_rows.end()) {
              for (uint32_t brow : it->second) {
                ++match_count;
                ++result->stats.heavy_hitter_matches;
                if (spec.type == JoinType::kInner ||
                    spec.type == JoinType::kLeftOuter) {
                  EmitMatch(build, probe, spec, brow, prow, &result->output);
                }
              }
            }
          }
        }

        switch (spec.type) {
          case JoinType::kSemi:
            if (match_count > 0) {
              EmitMatch(build, probe, spec, SIZE_MAX, prow, &result->output);
            }
            break;
          case JoinType::kAnti:
            if (match_count == 0) {
              EmitMatch(build, probe, spec, SIZE_MAX, prow, &result->output);
            }
            break;
          case JoinType::kLeftOuter:
            if (match_count == 0) {
              EmitMatch(build, probe, spec, SIZE_MAX, prow, &result->output);
            }
            break;
          case JoinType::kInner:
            break;
        }
        result->stats.matches += match_count;
      }
    }
    if (use_filter) {
      // One blocked-Bloom probe per probe row; pruned rows skip the
      // hash probe below.
      core.cycles().ChargeCompute(params.bloom_probe_cycles_per_row /
                                  params.simd.bloom *
                                  static_cast<double>(rows));
      core.counters().rows_pruned_by_join_filter += tile_pruned;
    }
    core.cycles().ChargeCompute(dpu::JoinProbeTileCycles(
        params, rows - tile_pruned, tile_stats.chain_steps,
        tile_stats.matches));
    if (!spec.vectorized) {
      core.cycles().ChargeCompute(params.row_at_a_time_overhead_cycles *
                                  static_cast<double>(rows));
    }
    // DRAM overflow region probes cost a DRAM round trip each.
    core.cycles().ChargeCompute(params.join_overflow_access_cycles *
                                static_cast<double>(tile_stats.overflow_steps));
    core.cycles().ChargeDms(dpu::DmsTileTransferCycles(
        params, static_cast<int>(pkeys.size()), rows, sizeof(int64_t), false));
    probe_stats.Merge(tile_stats);
  }
  probe_span.Annotate("matches", static_cast<uint64_t>(probe_stats.matches));
  result->stats.chain_steps += probe_stats.chain_steps;
  result->stats.overflow_steps += probe_stats.overflow_steps;
  return Status::OK();
}

}  // namespace

std::vector<ColumnMeta> JoinExec::OutputMetas(const ColumnSet& build,
                                              const ColumnSet& probe,
                                              const JoinSpec& spec) {
  std::vector<ColumnMeta> metas;
  for (const JoinSpec::Output& o : spec.outputs) {
    metas.push_back(o.from_build ? build.meta(o.column)
                                 : probe.meta(o.column));
  }
  return metas;
}

Result<ColumnSet> JoinExec::Execute(dpu::Dpu& dpu, const PartitionedData& build,
                                    const PartitionedData& probe,
                                    const JoinSpec& spec, JoinStats* stats,
                                    const CancelToken* cancel) {
  if (build.partitions.size() != probe.partitions.size()) {
    return Status::InvalidArgument("join inputs have mismatched fan-out");
  }
  if (build.partitions.empty()) {
    return Status::InvalidArgument("join needs at least one partition");
  }
  if (spec.build_keys.empty() ||
      spec.build_keys.size() != spec.probe_keys.size()) {
    return Status::InvalidArgument("join key lists must match and be nonempty");
  }
  if (spec.type == JoinType::kSemi || spec.type == JoinType::kAnti) {
    for (const JoinSpec::Output& o : spec.outputs) {
      if (o.from_build) {
        return Status::InvalidArgument(
            "semi/anti joins project probe side only");
      }
    }
  }

  const std::vector<ColumnMeta> metas =
      OutputMetas(build.partitions[0], probe.partitions[0], spec);

  const size_t num_pairs = build.partitions.size();
  std::vector<PairResult> results(num_pairs);
  for (auto& r : results) r.output = ColumnSet(metas);

  // Morsel-driven: each partition pair is one morsel, weighted by its
  // build+probe rows so the LPT deal spreads skewed pairs first and
  // fills the other cores with the rest. Results land in slot `pair`,
  // making the merged output independent of which core ran which pair.
  std::vector<double> pair_weights(num_pairs);
  for (size_t pair = 0; pair < num_pairs; ++pair) {
    pair_weights[pair] =
        static_cast<double>(build.partitions[pair].num_rows() +
                            probe.partitions[pair].num_rows());
  }
  RAPID_RETURN_NOT_OK(dpu.ParallelForMorsels(
      pair_weights, cancel, [&](dpu::DpCore& core, size_t pair) -> Status {
        TraceSpan span(TraceMode::kFull, core.id(), "join.pair",
                       &dpu::TraceClockNow, &core.cycles());
        span.Annotate("pair", static_cast<int64_t>(pair));
        span.Annotate("build_rows",
                      static_cast<uint64_t>(build.partitions[pair].num_rows()));
        span.Annotate("probe_rows",
                      static_cast<uint64_t>(probe.partitions[pair].num_rows()));
        return JoinPair(dpu, core, build.partitions[pair],
                        probe.partitions[pair], spec, build.bits_used, cancel,
                        kMaxOverflowRecoveries, &results[pair]);
      }));

  ColumnSet merged(metas);
  JoinStats total;
  for (PairResult& r : results) {
    merged.Append(r.output);
    total += r.stats;
  }
  if (stats != nullptr) *stats = total;
  return merged;
}

}  // namespace rapid::core
