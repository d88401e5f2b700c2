// Skew-resilient join demo (Section 6.4).
//
// Joins two Zipf-skewed relations whose statistics QComp got wrong and
// shows the three resilience mechanisms engaging: graceful DMEM
// overflow for small skew, dynamic repartitioning for large skew, and
// flow-join style heavy-hitter broadcast.
//
//   $ ./skew_join [theta]

#include <cstdio>
#include <cstdlib>

#include "common/rng.h"
#include "core/ops/join_exec.h"
#include "core/ops/partition_exec.h"
#include "dpu/dpu.h"

using namespace rapid;
using namespace rapid::core;

namespace {

ColumnSet ZipfRelation(size_t rows, double theta, uint64_t seed) {
  std::vector<ColumnMeta> metas(2);
  metas[0].name = "key";
  metas[1].name = "payload";
  ColumnSet set(metas);
  ZipfGenerator zipf(1 << 13, theta, seed);
  for (size_t i = 0; i < rows; ++i) {
    RAPID_CHECK_OK(set.AppendRow(
        {static_cast<int64_t>(zipf.Sample()), static_cast<int64_t>(i)}));
  }
  return set;
}

}  // namespace

int main(int argc, char** argv) {
  const double theta = argc > 1 ? std::atof(argv[1]) : 0.9;
  std::printf("Zipf theta = %.2f (0 = uniform; ~1 = heavily skewed)\n\n",
              theta);

  dpu::Dpu dpu;
  const ColumnSet build = ZipfRelation(40'000, theta, 11);
  const ColumnSet probe = ZipfRelation(80'000, theta, 13);

  // Partition both sides 32 ways on the join key.
  PartitionScheme scheme;
  scheme.rounds.push_back(PartitionRound{32, 32});
  auto bp = PartitionExec::Execute(dpu, build, {0}, scheme, 1024);
  auto pp = PartitionExec::Execute(dpu, probe, {0}, scheme, 1024);
  if (!bp.ok() || !pp.ok()) {
    std::fprintf(stderr, "partitioning failed\n");
    return 1;
  }

  // Show the skew: partition sizes vs the uniform estimate.
  size_t max_part = 0;
  for (const auto& p : bp.value().partitions) {
    max_part = std::max(max_part, p.num_rows());
  }
  std::printf("build partitions: expected ~%zu rows each, largest is %zu\n\n",
              build.num_rows() / 32, max_part);

  JoinSpec spec;
  spec.build_keys = {0};
  spec.probe_keys = {0};
  spec.outputs = {{true, 1}, {false, 1}};
  spec.est_rows_per_partition = build.num_rows() / 32;
  spec.dmem_capacity_rows = 2 * spec.est_rows_per_partition;
  spec.large_skew_factor = 2.0;
  spec.heavy_hitter_threshold = 400;

  dpu.ResetCores();
  JoinStats stats;
  auto result = JoinExec::Execute(dpu, bp.value(), pp.value(), spec, &stats);
  if (!result.ok()) {
    std::fprintf(stderr, "join failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::printf("join produced %zu result rows\n", result.value().num_rows());
  std::printf("modeled DPU time: %.3f ms\n\n",
              dpu.ModeledPhaseSeconds() * 1e3);
  std::printf("resilience mechanisms engaged:\n");
  std::printf("  DMEM-overflowed kernels:     %llu (small skew)\n",
              static_cast<unsigned long long>(stats.overflowed_partitions));
  std::printf("  dynamically repartitioned:   %llu (large skew)\n",
              static_cast<unsigned long long>(
                  stats.repartitioned_partitions));
  std::printf("  heavy-hitter keys detected:  %llu (flow-join)\n",
              static_cast<unsigned long long>(stats.heavy_hitter_keys));
  std::printf("  heavy-hitter matches:        %llu\n",
              static_cast<unsigned long long>(stats.heavy_hitter_matches));
  std::printf("  DRAM overflow chain steps:   %llu\n",
              static_cast<unsigned long long>(stats.overflow_steps));
  return 0;
}
