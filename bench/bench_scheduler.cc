// Morsel scheduler ablation: the LPT deal over the operators' morsel
// weights vs the same scheduler fed unit weights (which deals morsel m
// to core m % P, i.e. weight-blind round-robin), on workloads with
// deliberately skewed morsel weights:
//
//   * Zipf scan    — chunk row counts follow a capped Zipf(1.1) decay
//                    (hot head of near-full chunks, long tail of small
//                    ones), so round-robin lands the heavy chunks of
//                    every stride group on the same core.
//   * skewed join  — partition pair sizes follow a capped Zipf(1.2),
//                    the shape a heavy-hitter key distribution leaves
//                    behind after hash partitioning.
//
// Morsels are independent, so a schedule's modeled makespan is the
// largest per-core sum of morsel costs. The bench measures each
// morsel's compute cycles alone on a one-core DPU, schedules those
// costs both ways with dpu::LptSchedule, and checks the LPT figure
// against a real 32-core run. It also checks that the per-morsel
// outputs, concatenated in morsel order, equal the 32-core output
// bit for bit. Reports the makespans and imbalance ratios (max/mean)
// and emits BENCH_scheduler.json for the CI trend line.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
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

// The scanned column v: one uniform [0, 99] value per row.
std::vector<int64_t> ScanValues(size_t rows) {
  Rng rng(1234);
  std::vector<int64_t> v(rows);
  for (int64_t& x : v) x = rng.NextInRange(0, 99);
  return v;
}

// Rows [first_row, first_row + sum(chunk_rows)) as table `name`, one
// chunk per entry: k is the row number, v its value in `values`.
storage::Table ZipfChunkTable(const std::string& name,
                              const std::vector<size_t>& chunk_rows,
                              size_t first_row,
                              const std::vector<int64_t>& values) {
  storage::Schema schema({{"k", storage::DataType::kInt64},
                          {"v", storage::DataType::kInt64}});
  storage::Table table(name, schema);
  storage::Partition part;
  size_t row = first_row;
  for (const size_t rows : chunk_rows) {
    storage::Chunk chunk(schema, rows);
    for (size_t r = 0; r < rows; ++r, ++row) {
      chunk.column(0).Append(static_cast<int64_t>(row));
      chunk.column(1).Append(values[row]);
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

constexpr int kCores = 32;

// One workload's morsels: the operator's weights, each morsel's
// compute cycles measured alone, and the real 32-core run.
struct Workload {
  std::vector<double> weights;
  std::vector<double> morsel_cycles;
  double engine_makespan_cycles = 0;  // the 32-core LPT run
  bool identical_results = false;     // concatenated morsels == run
};

struct Arm {
  double makespan_cycles = 0;  // slowest core's summed morsel cycles
  double imbalance = 1.0;      // max/mean core cycles
};

Arm Schedule(const Workload& w, const std::vector<double>& weights) {
  const dpu::MorselSchedule schedule = dpu::LptSchedule(weights, kCores);
  Arm arm;
  double total = 0;
  for (size_t c = 0; c < kCores; ++c) {
    double load = 0;
    for (const size_t m : schedule.core(c)) load += w.morsel_cycles[m];
    arm.makespan_cycles = std::max(arm.makespan_cycles, load);
    total += load;
  }
  arm.imbalance = arm.makespan_cycles / (total / kCores);
  return arm;
}

bool SameRows(const ColumnSet& a, const ColumnSet& b) {
  if (a.num_columns() != b.num_columns()) return false;
  for (size_t c = 0; c < a.num_columns(); ++c) {
    if (a.column(c) != b.column(c)) return false;
  }
  return true;
}

dpu::DpuConfig OneCore() {
  dpu::DpuConfig config{};
  config.num_cores = 1;
  return config;
}

LogicalPtr ScanPlan(const std::string& table) {
  return LogicalNode::Scan(
      table, {"k", "v"},
      {Predicate::CmpConst("v", primitives::CmpOp::kLt, 50)});
}

// Chunk m is also table "z" + m on a one-core engine: a morsel of the
// full scan and a whole scan of its own.
Workload ZipfScan(const std::vector<size_t>& chunk_rows) {
  size_t total_rows = 0;
  for (const size_t rows : chunk_rows) total_rows += rows;
  const std::vector<int64_t> values = ScanValues(total_rows);

  Workload w;
  RapidEngine engine{dpu::DpuConfig{}};
  RAPID_CHECK(engine.Load(ZipfChunkTable("z", chunk_rows, 0, values)).ok());
  auto result = engine.Execute(ScanPlan("z"));
  RAPID_CHECK(result.ok());
  w.engine_makespan_cycles = result.value().stats.imbalance.max_core_cycles;

  RapidEngine alone{OneCore()};
  ColumnSet concatenated(result.value().rows.metas());
  size_t first_row = 0;
  for (size_t m = 0; m < chunk_rows.size(); ++m) {
    const std::string name = "z" + std::to_string(m);
    RAPID_CHECK(alone
                    .Load(ZipfChunkTable(name, {chunk_rows[m]}, first_row,
                                         values))
                    .ok());
    first_row += chunk_rows[m];
    auto part = alone.Execute(ScanPlan(name));
    RAPID_CHECK(part.ok());
    w.weights.push_back(static_cast<double>(chunk_rows[m]));
    w.morsel_cycles.push_back(part.value().stats.imbalance.max_core_cycles);
    concatenated.Append(part.value().rows);
  }
  w.identical_results = SameRows(concatenated, result.value().rows);
  return w;
}

Workload SkewedJoin(const PartitionedData& build,
                    const PartitionedData& probe) {
  JoinSpec spec;
  spec.build_keys = {0};
  spec.probe_keys = {0};
  spec.outputs = {{true, 1}, {false, 1}};
  spec.large_skew_factor = 1e30;  // measure scheduling, not repartitioning

  Workload w;
  dpu::Dpu dpu{dpu::DpuConfig{}};
  auto result = JoinExec::Execute(dpu, build, probe, spec);
  RAPID_CHECK(result.ok());
  w.engine_makespan_cycles = dpu.imbalance().max_core_cycles;

  dpu::Dpu alone{OneCore()};
  ColumnSet concatenated(result.value().metas());
  for (size_t p = 0; p < build.partitions.size(); ++p) {
    PartitionedData build_pair;
    PartitionedData probe_pair;
    build_pair.bits_used = build.bits_used;
    probe_pair.bits_used = probe.bits_used;
    build_pair.partitions.push_back(build.partitions[p]);
    probe_pair.partitions.push_back(probe.partitions[p]);
    alone.ResetCores();
    auto pair = JoinExec::Execute(alone, build_pair, probe_pair, spec);
    RAPID_CHECK(pair.ok());
    w.weights.push_back(static_cast<double>(build.partitions[p].num_rows() +
                                            probe.partitions[p].num_rows()));
    w.morsel_cycles.push_back(alone.imbalance().max_core_cycles);
    concatenated.Append(pair.value());
  }
  w.identical_results = SameRows(concatenated, result.value());
  return w;
}

void PrintRow(const char* workload, const Arm& rr, const Arm& lpt) {
  std::printf("%-12s | %13.0f | %13.0f | %7.2fx | %6.2f | %6.2f\n",
              workload, rr.makespan_cycles, lpt.makespan_cycles,
              rr.makespan_cycles / lpt.makespan_cycles, rr.imbalance,
              lpt.imbalance);
}

}  // namespace

int main() {
  bench::Header("Scheduler ablation",
                "Weight-blind round-robin vs LPT over morsel weights");

  // 512 chunks, capped Zipf(1.1): the largest chunk is ~one mean core
  // load, so the win comes from balancing, not from splitting one
  // dominant morsel (which no scheduler could).
  const Workload scan = ZipfScan(CappedZipfRows(512, 1.1, 48 * 4096, 4096));

  // 256 partition pairs, capped Zipf(1.2) pair sizes; each build key
  // matches exactly two probe rows so pair work stays linear in rows.
  const std::vector<size_t> pair_rows = CappedZipfRows(256, 1.2, 98304, 2048);
  const Workload join = SkewedJoin(ZipfPartitions(pair_rows, 1),
                                   ZipfPartitions(pair_rows, 2));

  const struct {
    const char* name;
    const char* label;
    const Workload* w;
    Arm rr;
    Arm lpt;
  } rows[] = {
      {"zipf_scan", "zipf scan", &scan,
       Schedule(scan, std::vector<double>(scan.weights.size(), 1.0)),
       Schedule(scan, scan.weights)},
      {"skewed_join", "skewed join", &join,
       Schedule(join, std::vector<double>(join.weights.size(), 1.0)),
       Schedule(join, join.weights)},
  };

  std::printf("%d cores; makespan = slowest core's summed morsel compute"
              " cycles\n\n", kCores);
  std::printf("%-12s | %13s | %13s | %8s | %6s | %6s\n", "workload",
              "rr cycles", "lpt cycles", "speedup", "imb(r)", "imb(l)");
  std::printf("-------------+---------------+---------------+----------+"
              "--------+-------\n");
  double total_rr = 0;
  double total_lpt = 0;
  for (const auto& row : rows) {
    PrintRow(row.label, row.rr, row.lpt);
    // Morsels are independent: the costs measured alone, dealt by
    // LPT, reproduce the real 32-core run.
    RAPID_CHECK(std::abs(row.lpt.makespan_cycles -
                         row.w->engine_makespan_cycles) <=
                1e-9 * row.w->engine_makespan_cycles);
    RAPID_CHECK(row.w->identical_results);
    total_rr += row.rr.makespan_cycles;
    total_lpt += row.lpt.makespan_cycles;
  }
  const double speedup = total_rr / total_lpt;
  std::printf("\ncombined speedup: %.2fx (acceptance floor 1.3x)\n", speedup);
  RAPID_CHECK(speedup >= 1.3);

  FILE* json = std::fopen("BENCH_scheduler.json", "w");
  RAPID_CHECK(json != nullptr);
  std::fprintf(json, "{\n  \"cores\": %d,\n  \"workloads\": [\n", kCores);
  for (size_t i = 0; i < 2; ++i) {
    std::fprintf(
        json,
        "    {\"name\": \"%s\", \"round_robin_makespan_cycles\": %.0f,\n"
        "     \"lpt_makespan_cycles\": %.0f, \"speedup\": %.3f,\n"
        "     \"round_robin_imbalance\": %.3f, \"lpt_imbalance\": %.3f,\n"
        "     \"identical_results\": true}%s\n",
        rows[i].name, rows[i].rr.makespan_cycles, rows[i].lpt.makespan_cycles,
        rows[i].rr.makespan_cycles / rows[i].lpt.makespan_cycles,
        rows[i].rr.imbalance, rows[i].lpt.imbalance, i + 1 < 2 ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"combined_speedup\": %.3f\n}\n", speedup);
  std::fclose(json);
  std::printf("wrote BENCH_scheduler.json\n");
  return 0;
}
