// Section 6.4 ablation: skew & statistics resilient join execution.
//
// A Zipf-skewed join under deliberately wrong statistics, comparing:
//   * small skew  — DMEM overflow to DRAM (graceful degradation),
//   * large skew  — dynamic repartitioning of oversized kernels,
//   * heavy hitters — flow-join style detection + broadcast side list.
// Reports modeled times and the runtime counters showing each
// mechanism engaging. Correctness under every strategy is asserted.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/ops/join_exec.h"
#include "core/ops/partition_exec.h"
#include "dpu/dpu.h"

namespace {

using namespace rapid;
using namespace rapid::core;

ColumnSet ZipfTable(size_t rows, double theta, uint64_t seed) {
  std::vector<ColumnMeta> metas(2);
  metas[0].name = "k";
  metas[1].name = "v";
  ColumnSet set(metas);
  ZipfGenerator zipf(1 << 14, theta, seed);
  for (size_t i = 0; i < rows; ++i) {
    RAPID_CHECK_OK(set.AppendRow(
        {static_cast<int64_t>(zipf.Sample()), static_cast<int64_t>(i)}));
  }
  return set;
}

struct RunResult {
  double modeled_ms;
  uint64_t matches;
  JoinStats stats;
};

RunResult RunJoin(dpu::Dpu& dpu, const PartitionedData& build,
                  const PartitionedData& probe, const JoinSpec& spec) {
  dpu.ResetCores();
  JoinStats stats;
  auto result = JoinExec::Execute(dpu, build, probe, spec, &stats);
  RAPID_CHECK(result.ok());
  return RunResult{dpu.ModeledPhaseSeconds() * 1e3,
                   static_cast<uint64_t>(result.value().num_rows()), stats};
}

}  // namespace

int main() {
  bench::Header("Section 6.4 (ablation)",
                "Skew & statistics resilient join execution");
  dpu::Dpu dpu;

  const ColumnSet build = ZipfTable(50'000, 0.9, 3);
  const ColumnSet probe = ZipfTable(100'000, 0.9, 5);
  PartitionScheme scheme;
  scheme.rounds.push_back(PartitionRound{32, 32});
  const PartitionedData bp =
      PartitionExec::Execute(dpu, build, {0}, scheme, 256).value();
  const PartitionedData pp =
      PartitionExec::Execute(dpu, probe, {0}, scheme, 256).value();

  JoinSpec base;
  base.build_keys = {0};
  base.probe_keys = {0};
  base.outputs = {{true, 1}, {false, 1}};
  // QComp's (deliberately wrong) estimate: uniform keys would put
  // ~1560 rows in each of 32 partitions; Zipf 0.9 concentrates far
  // more in the head partitions.
  base.est_rows_per_partition = 1560;
  base.dmem_capacity_rows = 3'200;

  // 1. No resilience: overflow happens silently (small-skew handling
  //    is always on — it's the baseline graceful path).
  JoinSpec small = base;
  small.large_skew_factor = 1e30;  // disable repartitioning
  const RunResult r_small = RunJoin(dpu, bp, pp, small);

  // 2. Large-skew handling on: oversized kernels repartition.
  JoinSpec large = base;
  large.large_skew_factor = 2.0;
  const RunResult r_large = RunJoin(dpu, bp, pp, large);

  // 3. Heavy-hitter detection on top.
  JoinSpec flow = large;
  flow.heavy_hitter_threshold = 500;
  const RunResult r_flow = RunJoin(dpu, bp, pp, flow);

  RAPID_CHECK(r_small.matches == r_large.matches);
  RAPID_CHECK(r_small.matches == r_flow.matches);

  std::printf("Zipf(theta=0.9) keys, 50k build x 100k probe, 32-way\n");
  std::printf("partitions, estimate 1560 rows/partition (wrong under"
              " skew)\n\n");
  std::printf("%-28s | %11s | %9s | %7s | %6s | %6s\n", "strategy",
              "modeled ms", "overflow", "repart", "heavy", "match");
  std::printf("-----------------------------+-------------+-----------+"
              "---------+--------+-------\n");
  std::printf("%-28s | %11.2f | %9llu | %7llu | %6llu | %5.1fM\n",
              "small-skew overflow only", r_small.modeled_ms,
              static_cast<unsigned long long>(r_small.stats.overflow_steps),
              static_cast<unsigned long long>(
                  r_small.stats.repartitioned_partitions),
              static_cast<unsigned long long>(r_small.stats.heavy_hitter_keys),
              static_cast<double>(r_small.matches) / 1e6);
  std::printf("%-28s | %11.2f | %9llu | %7llu | %6llu | %5.1fM\n",
              "+ large-skew repartitioning", r_large.modeled_ms,
              static_cast<unsigned long long>(r_large.stats.overflow_steps),
              static_cast<unsigned long long>(
                  r_large.stats.repartitioned_partitions),
              static_cast<unsigned long long>(r_large.stats.heavy_hitter_keys),
              static_cast<double>(r_large.matches) / 1e6);
  std::printf("%-28s | %11.2f | %9llu | %7llu | %6llu | %5.1fM\n",
              "+ heavy-hitter flow-join", r_flow.modeled_ms,
              static_cast<unsigned long long>(r_flow.stats.overflow_steps),
              static_cast<unsigned long long>(
                  r_flow.stats.repartitioned_partitions),
              static_cast<unsigned long long>(r_flow.stats.heavy_hitter_keys),
              static_cast<double>(r_flow.matches) / 1e6);
  std::printf(
      "\nShape check: identical results under every strategy; overflow\n"
      "probes shrink once oversized kernels repartition; heavy hitters\n"
      "leave the hash table for the broadcast side list.\n");
  return 0;
}
