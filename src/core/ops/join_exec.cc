#include "core/ops/join_exec.h"

#include <algorithm>
#include <map>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>

#include "common/config.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/trace.h"
#include "core/ops/sink_op.h"
#include "primitives/bloom.h"
#include "primitives/hash.h"
#include "primitives/join_kernel.h"

namespace rapid::core {

namespace {

size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// True when keys of `a` and `b` share one physical element type, so a
// pair's keys compare without widening.
bool SameKeyType(const ColumnMeta& a, const ColumnMeta& b) {
  return storage::VisitPhysical(a.width, a.type, [&](auto ta) {
    return storage::VisitPhysical(b.width, b.type, [](auto tb) {
      return std::is_same_v<decltype(ta), decltype(tb)>;
    });
  });
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

// One output row of a partition pair: the matching build row, or
// kNoBuildRow for a semi/anti row and an unmatched left-outer row, and
// the probe row. Rows fit 32 bits, as in the join table.
struct Match {
  uint32_t brow;
  uint32_t prow;
};
constexpr uint32_t kNoBuildRow = ~uint32_t{0};

// Appends the pair's matches to `out`, one output column at a time,
// each at its meta's width (its source column's, or 8 bytes for a
// left-outer join's build side, which carries kJoinNull).
void GatherMatches(const ColumnSet& build, const ColumnSet& probe,
                   const JoinSpec& spec, const std::vector<Match>& matches,
                   ColumnSet* out) {
  const size_t n = matches.size();
  const size_t base = out->num_rows();
  out->Resize(base + n);
  for (size_t c = 0; c < spec.outputs.size(); ++c) {
    const JoinSpec::Output& o = spec.outputs[c];
    out->Visit(c, [&](auto* column) {
      using D = ElementOf<decltype(column)>;
      D* dst = column + base;
      if (o.from_build) {
        build.Visit(o.column, [&](const auto* src) {
          for (size_t i = 0; i < n; ++i) {
            const uint32_t brow = matches[i].brow;
            dst[i] = brow == kNoBuildRow ? static_cast<D>(kJoinNull)
                                         : static_cast<D>(src[brow]);
          }
        });
      } else {
        probe.Visit(o.column, [&](const auto* src) {
          for (size_t i = 0; i < n; ++i) {
            dst[i] = static_cast<D>(src[matches[i].prow]);
          }
        });
      }
    });
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
    // One repartition round indexes its partitions in 16 bits.
    extra = std::min(extra, kMaxRoundFanout);
    auto sub_build = PartitionExec::Repartition(
        core, dpu.dms(), build, spec.build_keys, extra, bits_used,
        spec.tile_rows);
    auto sub_probe = PartitionExec::Repartition(
        core, dpu.dms(), probe, spec.probe_keys, extra, bits_used,
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
      auto sub_build =
          PartitionExec::Repartition(core, dpu.dms(), build, spec.build_keys,
                                     2, bits_used, spec.tile_rows);
      auto sub_probe =
          PartitionExec::Repartition(core, dpu.dms(), probe, spec.probe_keys,
                                     2, bits_used, spec.tile_rows);
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
    build.Visit(spec.build_keys[0], [&](const auto* keys) {
      SpaceSaving sketch(64);
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
    });
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
    std::vector<uint32_t> hashes(std::min(spec.tile_rows, build_rows));
    for (size_t start = 0; start < build_rows; start += spec.tile_rows) {
      RAPID_RETURN_NOT_OK(CancelToken::Check(cancel));
      const size_t rows = std::min(spec.tile_rows, build_rows - start);
      PartitionExec::HashRows(build, bkeys, start, rows, shift,
                              hashes.data());
      for (size_t i = 0; i < rows; ++i) {
        const size_t row = start + i;
        if (!heavy_rows.empty()) {
          auto it = heavy_rows.find(build.Value(row, bkeys[0]));
          if (it != heavy_rows.end()) {
            // Heavy keys bypass the hash table; their rows go to the
            // broadcast side list.
            it->second.push_back(static_cast<uint32_t>(row));
            continue;
          }
        }
        table.Insert(hashes[i], row);
      }
      core.cycles().ChargeCompute(dpu::JoinBuildTileCycles(params, rows));
      if (!spec.vectorized) {
        core.cycles().ChargeCompute(params.row_at_a_time_overhead_cycles *
                                    static_cast<double>(rows));
      }
      // DMS streams the build tile into DMEM (overlapped).
      RAPID_RETURN_NOT_OK(dpu.dms().LoadTile(&core.cycles(),
                                             static_cast<int>(bkeys.size()),
                                             rows, build.RowBytes(bkeys)));
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
      build.Visit(spec.build_keys[0], [&](const auto* keys) {
        for (size_t i = 0; i < build_rows; ++i) {
          pair_filter.Insert(static_cast<uint64_t>(int64_t{keys[i]}));
        }
      });
      core.cycles().ChargeCompute(params.bloom_insert_cycles_per_row *
                                  static_cast<double>(build_rows));
      use_filter = true;
      core.counters().join_filter_built += 1;
      core.counters().filter_bytes += pair_filter.bytes();
    }
  }

  // ---- Probe stage ----
  // Every join type appends (build row or none, probe row) to one match
  // list in emission order; the output columns are gathered from it
  // after the probe.
  RAPID_CHECK(probe_rows < kNoBuildRow);
  std::vector<Match> matches;
  primitives::ProbeStats probe_stats;
  const std::vector<size_t>& pkeys = spec.probe_keys;
  const bool emits_unmatched =
      spec.type == JoinType::kAnti || spec.type == JoinType::kLeftOuter;
  // The batched path hashes a whole DMEM tile then calls ProbeBatch
  // once per tile. It preserves emission order for inner/semi/anti
  // joins; left-outer interleaves match and null rows per probe row,
  // and heavy-hitter side passes need per-row bookkeeping, so those
  // keep the per-row loop.
  const bool batched =
      heavy_rows.empty() && spec.type != JoinType::kLeftOuter;
  std::vector<uint32_t> tile_hashes;
  std::vector<uint32_t> keep_idx;
  std::vector<uint32_t> kept_counts;
  if (build_rows > 0) {
    tile_hashes.resize(std::min(spec.tile_rows, probe_rows));
    if (batched) {
      keep_idx.resize(spec.tile_rows);
      kept_counts.resize(spec.tile_rows);
    }
  }
  TraceSpan probe_span(TraceMode::kFull, core.id(), "join.probe",
                       &dpu::TraceClockNow, &core.cycles());
  probe_span.Annotate("rows", static_cast<uint64_t>(probe_rows));
  // `key_eq(brow, prow)` compares a build row's keys with a probe row's;
  // `pkey0(prow)` is a probe row's first key.
  auto probe_tiles = [&](auto key_eq, auto pkey0) -> Status {
    for (size_t start = 0; start < probe_rows; start += spec.tile_rows) {
      RAPID_RETURN_NOT_OK(CancelToken::Check(cancel));
      const size_t rows = std::min(spec.tile_rows, probe_rows - start);
      primitives::ProbeStats tile_stats;
      size_t tile_pruned = 0;
      if (build_rows == 0) {
        // Nothing to hash, filter or walk: no probe row matches.
        if (emits_unmatched) {
          for (size_t i = 0; i < rows; ++i) {
            matches.push_back({kNoBuildRow, static_cast<uint32_t>(start + i)});
          }
        }
      } else if (batched) {
        PartitionExec::HashRows(probe, pkeys, start, rows, shift,
                                tile_hashes.data());
        // Bloom-prune before probing: pruned rows have no match and
        // drop out of the ProbeBatch. Kept rows probe in row order, so
        // emission order is identical with the filter off. Kept hashes
        // compact in place (kept <= i).
        size_t kept = 0;
        for (size_t i = 0; i < rows; ++i) {
          if (use_filter && !pair_filter.MayContain(
                                static_cast<uint64_t>(pkey0(start + i)))) {
            continue;
          }
          keep_idx[kept] = static_cast<uint32_t>(start + i);
          tile_hashes[kept] = tile_hashes[i];
          ++kept;
        }
        tile_pruned = rows - kept;
        auto kept_eq = [&](size_t i, size_t brow) {
          return key_eq(brow, keep_idx[i]);
        };
        if (spec.type == JoinType::kInner) {
          table.ProbeBatch(
              tile_hashes.data(), kept, kept_eq,
              [&](size_t i, size_t brow) {
                matches.push_back({static_cast<uint32_t>(brow), keep_idx[i]});
              },
              kept_counts.data(), &tile_stats);
        } else {
          table.ProbeBatch(tile_hashes.data(), kept, kept_eq,
                           [](size_t, size_t) {}, kept_counts.data(),
                           &tile_stats);
          // Semi keeps the probe rows that matched, anti the others
          // (pruned rows included), in row order.
          const bool keep_matched = spec.type == JoinType::kSemi;
          size_t k = 0;
          for (size_t i = 0; i < rows; ++i) {
            const uint32_t prow = static_cast<uint32_t>(start + i);
            bool matched = false;
            if (k < kept && keep_idx[k] == prow) {
              matched = kept_counts[k++] > 0;
            }
            if (matched == keep_matched) matches.push_back({kNoBuildRow, prow});
          }
        }
        result->stats.matches += tile_stats.matches;
      } else {
        PartitionExec::HashRows(probe, pkeys, start, rows, shift,
                                tile_hashes.data());
        const bool emits_pairs = spec.type == JoinType::kInner ||
                                 spec.type == JoinType::kLeftOuter;
        for (size_t i = 0; i < rows; ++i) {
          const uint32_t prow = static_cast<uint32_t>(start + i);
          size_t match_count = 0;
          auto emit = [&](uint32_t brow) {
            ++match_count;
            if (emits_pairs) matches.push_back({brow, prow});
          };
          // The filter covers heavy-bypass build rows too, so a miss
          // also skips the broadcast side pass.
          if (use_filter && !pair_filter.MayContain(
                                static_cast<uint64_t>(pkey0(prow)))) {
            ++tile_pruned;
          } else {
            table.Probe(
                tile_hashes[i],
                [&](size_t brow) { return key_eq(brow, prow); },
                [&](size_t brow) { emit(static_cast<uint32_t>(brow)); },
                &tile_stats);
            // Heavy-hitter side pass: probe the broadcast list.
            if (!heavy_rows.empty()) {
              auto it = heavy_rows.find(pkey0(prow));
              if (it != heavy_rows.end()) {
                for (uint32_t brow : it->second) {
                  ++result->stats.heavy_hitter_matches;
                  emit(brow);
                }
              }
            }
          }
          const bool keep = spec.type == JoinType::kSemi ? match_count > 0
                                                          : emits_unmatched &&
                                                                match_count == 0;
          if (keep) matches.push_back({kNoBuildRow, prow});
          result->stats.matches += match_count;
        }
      }
      if (use_filter) {
        // One blocked-Bloom probe per probe row; pruned rows skip the
        // hash probe.
        core.cycles().ChargeCompute(params.bloom_probe_cycles_per_row *
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
      core.cycles().ChargeCompute(
          params.join_overflow_access_cycles *
          static_cast<double>(tile_stats.overflow_steps));
      RAPID_RETURN_NOT_OK(dpu.dms().LoadTile(
          &core.cycles(), static_cast<int>(pkeys.size()), rows,
          probe.RowBytes(pkeys)));
      probe_stats.Merge(tile_stats);
    }
    return Status::OK();
  };
  const std::vector<size_t>& bkeys = spec.build_keys;
  Status probed;
  if (bkeys.size() == 1 &&
      SameKeyType(build.meta(bkeys[0]), probe.meta(pkeys[0]))) {
    probed = build.Visit(bkeys[0], [&](const auto* bkey) {
      const auto* pkey = probe.data<ElementOf<decltype(bkey)>>(pkeys[0]);
      return probe_tiles(
          [bkey, pkey](size_t brow, size_t prow) {
            return bkey[brow] == pkey[prow];
          },
          [pkey](size_t prow) -> int64_t { return pkey[prow]; });
    });
  } else {
    // Keys of unequal widths compare as int64.
    probed = probe_tiles(
        [&](size_t brow, size_t prow) {
          for (size_t k = 0; k < bkeys.size(); ++k) {
            if (build.Value(brow, bkeys[k]) != probe.Value(prow, pkeys[k])) {
              return false;
            }
          }
          return true;
        },
        [&](size_t prow) { return probe.Value(prow, pkeys[0]); });
  }
  RAPID_RETURN_NOT_OK(probed);
  probe_span.Annotate("matches", static_cast<uint64_t>(probe_stats.matches));
  result->stats.chain_steps += probe_stats.chain_steps;
  result->stats.overflow_steps += probe_stats.overflow_steps;
  GatherMatches(build, probe, spec, matches, &result->output);
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
    // A left-outer join's unmatched rows carry kJoinNull on the build
    // side, which only 8 bytes hold.
    if (o.from_build && spec.type == JoinType::kLeftOuter) {
      metas.back().width = sizeof(int64_t);
    }
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
        RAPID_RETURN_NOT_OK(JoinPair(dpu, core, build.partitions[pair],
                                     probe.partitions[pair], spec,
                                     build.bits_used, cancel,
                                     kMaxOverflowRecoveries, &results[pair]));
        // The pair's output goes to DRAM as a pipeline's does
        // (MaterializeSink): one unpolled chain per staging half, each
        // row at its metas' widths.
        const ColumnSet& out = results[pair].output;
        const size_t half = StagingHalfRows(out, spec.tile_rows);
        for (size_t start = 0; start < out.num_rows(); start += half) {
          dpu.dms().ChargeTile(&core.cycles(),
                               static_cast<int>(out.num_columns()),
                               std::min(half, out.num_rows() - start),
                               out.RowBytes());
        }
        return Status::OK();
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
