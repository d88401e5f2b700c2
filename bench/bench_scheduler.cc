// Morsel-driven scheduler ablation: static round-robin striding vs the
// dynamic LPT + work-stealing WorkQueue (RAPID_SCHED), on workloads
// with deliberately skewed morsel weights:
//
//   * Zipf scan    — chunk row counts follow a capped Zipf(1.1) decay
//                    (hot head of near-full chunks, long tail of small
//                    ones), so static round-robin lands the heavy
//                    chunks of every stride group on the same core.
//   * skewed join  — partition pair sizes follow a capped Zipf(1.2),
//                    the shape a heavy-hitter key distribution leaves
//                    behind after hash partitioning.
//
// Reports the modeled phase makespan (slowest core's compute cycles,
// summed over morsel phases), the imbalance ratio (max/mean) and steal
// counts for both modes, asserts the results are bit-identical, and
// emits BENCH_scheduler.json for the CI trend line.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/config.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/ops/join_exec.h"
#include "dpu/dpu.h"
#include "dpu/work_queue.h"
#include "storage/table.h"

namespace {

using namespace rapid;
using namespace rapid::core;

// Capped Zipf morsel weights: rank r carries (r+1)^-theta of the mass,
// clipped at `cap_rows` (the chunk/partition capacity bound) and
// floored at a 64-row minimum tile.
std::vector<size_t> CappedZipfRows(size_t n, double theta, size_t total_rows,
                                   size_t cap_rows) {
  std::vector<double> w(n);
  double tot = 0;
  for (size_t r = 0; r < n; ++r) {
    w[r] = std::pow(static_cast<double>(r + 1), -theta);
    tot += w[r];
  }
  std::vector<size_t> rows(n);
  for (size_t r = 0; r < n; ++r) {
    const auto scaled =
        static_cast<size_t>(std::llround(total_rows * w[r] / tot));
    rows[r] = std::max<size_t>(64, std::min(cap_rows, scaled));
  }
  return rows;
}

storage::Table ZipfChunkTable(const std::vector<size_t>& chunk_rows) {
  storage::Schema schema({{"k", storage::DataType::kInt64},
                          {"v", storage::DataType::kInt64}});
  storage::Table table("z", schema);
  storage::Partition part;
  Rng rng(1234);
  int64_t key = 0;
  for (const size_t rows : chunk_rows) {
    storage::Chunk chunk(schema, rows);
    for (size_t r = 0; r < rows; ++r) {
      chunk.column(0).Append(key++);
      chunk.column(1).Append(rng.NextInRange(0, 99));
    }
    part.AddChunk(std::move(chunk));
  }
  table.AddPartition(std::move(part));
  table.set_rows_per_chunk(4096);
  table.RecomputeStats();
  return table;
}

// One partition pair per Zipf rank: partition p holds keys congruent
// to p so the pair sizes are exactly the capped-Zipf weights (build
// rows_p distinct keys, each matched by two probe rows).
PartitionedData ZipfPartitions(const std::vector<size_t>& part_rows,
                               size_t probe_factor) {
  std::vector<ColumnMeta> metas(2);
  metas[0].name = "k";
  metas[1].name = "v";
  PartitionedData data;
  data.bits_used = 8;
  const auto num_parts = static_cast<int64_t>(part_rows.size());
  for (size_t p = 0; p < part_rows.size(); ++p) {
    ColumnSet set(metas);
    const size_t rows = part_rows[p] * probe_factor;
    for (size_t j = 0; j < rows; ++j) {
      const int64_t key =
          static_cast<int64_t>(p) +
          static_cast<int64_t>(j % part_rows[p]) * num_parts;
      set.column(0).push_back(key);
      set.column(1).push_back(static_cast<int64_t>(j));
    }
    data.partitions.push_back(std::move(set));
  }
  return data;
}

struct ModeResult {
  double makespan_cycles = 0;  // summed per-phase slowest-core cycles
  double imbalance = 1.0;      // max/mean over the morsel phases
  uint64_t steals = 0;
  ColumnSet rows;
};

bool SameRows(const ColumnSet& a, const ColumnSet& b) {
  if (a.num_columns() != b.num_columns()) return false;
  for (size_t c = 0; c < a.num_columns(); ++c) {
    if (a.column(c) != b.column(c)) return false;
  }
  return true;
}

ModeResult RunScan(SchedMode mode, const std::vector<size_t>& chunks) {
  ScopedConfig config(&Config::sched, mode);
  RapidEngine engine{dpu::DpuConfig{}};
  RAPID_CHECK(engine.Load(ZipfChunkTable(chunks)).ok());
  auto plan = LogicalNode::Scan(
      "z", {"k", "v"},
      {Predicate::CmpConst("v", primitives::CmpOp::kLt, 50)});
  auto result = engine.Execute(plan);
  RAPID_CHECK(result.ok());
  const dpu::ImbalanceStats& imb = result.value().stats.imbalance;
  return ModeResult{imb.max_core_cycles, imb.Ratio(), imb.steal_count,
                    std::move(result.value().rows)};
}

ModeResult RunJoin(SchedMode mode, const PartitionedData& build,
                   const PartitionedData& probe) {
  ScopedConfig config(&Config::sched, mode);
  dpu::Dpu dpu{dpu::DpuConfig{}};
  JoinSpec spec;
  spec.build_keys = {0};
  spec.probe_keys = {0};
  spec.outputs = {{true, 1}, {false, 1}};
  spec.large_skew_factor = 1e30;  // measure scheduling, not repartitioning
  auto result = JoinExec::Execute(dpu, build, probe, spec);
  RAPID_CHECK(result.ok());
  const dpu::ImbalanceStats& imb = dpu.imbalance();
  return ModeResult{imb.max_core_cycles, imb.Ratio(), imb.steal_count,
                    std::move(result.value())};
}

void PrintRow(const char* workload, const ModeResult& st,
              const ModeResult& mo) {
  std::printf("%-12s | %13.0f | %13.0f | %7.2fx | %6.2f | %6.2f | %6llu\n",
              workload, st.makespan_cycles, mo.makespan_cycles,
              st.makespan_cycles / mo.makespan_cycles, st.imbalance,
              mo.imbalance, static_cast<unsigned long long>(mo.steals));
}

}  // namespace

int main() {
  bench::Header("Scheduler ablation",
                "Static round-robin vs morsel-driven LPT + stealing");

  // 512 chunks, capped Zipf(1.1): the largest chunk is ~one mean core
  // load, so the win comes from balancing, not from splitting one
  // dominant morsel (which no scheduler could).
  const std::vector<size_t> chunk_rows =
      CappedZipfRows(512, 1.1, 48 * 4096, 4096);
  const ModeResult scan_static = RunScan(SchedMode::kStatic, chunk_rows);
  const ModeResult scan_morsel = RunScan(SchedMode::kMorsel, chunk_rows);
  RAPID_CHECK(SameRows(scan_static.rows, scan_morsel.rows));

  // 256 partition pairs, capped Zipf(1.2) pair sizes; each build key
  // matches exactly two probe rows so pair work stays linear in rows.
  const std::vector<size_t> pair_rows = CappedZipfRows(256, 1.2, 98304, 2048);
  const PartitionedData build = ZipfPartitions(pair_rows, 1);
  const PartitionedData probe = ZipfPartitions(pair_rows, 2);
  const ModeResult join_static = RunJoin(SchedMode::kStatic, build, probe);
  const ModeResult join_morsel = RunJoin(SchedMode::kMorsel, build, probe);
  RAPID_CHECK(SameRows(join_static.rows, join_morsel.rows));

  std::printf("32 cores; makespan = summed per-phase slowest-core compute"
              " cycles\n\n");
  std::printf("%-12s | %13s | %13s | %8s | %6s | %6s | %6s\n", "workload",
              "static cycles", "morsel cycles", "speedup", "imb(s)", "imb(m)",
              "steals");
  std::printf("-------------+---------------+---------------+----------+"
              "--------+--------+-------\n");
  PrintRow("zipf scan", scan_static, scan_morsel);
  PrintRow("skewed join", join_static, join_morsel);

  const double total_static =
      scan_static.makespan_cycles + join_static.makespan_cycles;
  const double total_morsel =
      scan_morsel.makespan_cycles + join_morsel.makespan_cycles;
  const double speedup = total_static / total_morsel;
  std::printf("\ncombined speedup: %.2fx (acceptance floor 1.3x)\n", speedup);
  RAPID_CHECK(speedup >= 1.3);

  FILE* json = std::fopen("BENCH_scheduler.json", "w");
  RAPID_CHECK(json != nullptr);
  std::fprintf(json, "{\n  \"cores\": 32,\n  \"workloads\": [\n");
  const struct {
    const char* name;
    const ModeResult* st;
    const ModeResult* mo;
  } rows[] = {{"zipf_scan", &scan_static, &scan_morsel},
              {"skewed_join", &join_static, &join_morsel}};
  for (size_t i = 0; i < 2; ++i) {
    std::fprintf(
        json,
        "    {\"name\": \"%s\", \"static_makespan_cycles\": %.0f,\n"
        "     \"morsel_makespan_cycles\": %.0f, \"speedup\": %.3f,\n"
        "     \"static_imbalance\": %.3f, \"morsel_imbalance\": %.3f,\n"
        "     \"morsel_steals\": %llu, \"identical_results\": true}%s\n",
        rows[i].name, rows[i].st->makespan_cycles, rows[i].mo->makespan_cycles,
        rows[i].st->makespan_cycles / rows[i].mo->makespan_cycles,
        rows[i].st->imbalance, rows[i].mo->imbalance,
        static_cast<unsigned long long>(rows[i].mo->steals),
        i + 1 < 2 ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"combined_speedup\": %.3f\n}\n", speedup);
  std::fclose(json);
  std::printf("wrote BENCH_scheduler.json\n");
  return 0;
}
