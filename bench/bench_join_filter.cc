// Join-filter pushdown A/B: RAPID_JOIN_FILTER=off vs auto through the
// full engine on a partitioned FK join.
//
// Two joins over the same fact table: a *selective* one (the dim
// build side filtered to ~1% of its keys, so ~99% of fact rows
// reference pruned dims and are Bloom-prunable before the probe-side
// partition rounds) and a *non-selective* one (every fact row has a
// build match, so the cost gate must decline the filter and the auto
// mode must cost nothing). The pushdown must (i) return bit-identical
// results, (ii) cut modeled join time >= 1.3x on the selective join,
// and (iii) cost <= 2% where nothing can be pruned — the auto gate
// has to be safe to leave on.
//
// Emits BENCH_join_filter.json for the CI trend line.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/config.h"
#include "storage/loader.h"

namespace {

using namespace rapid;
using namespace rapid::core;

constexpr size_t kFactRows = 200'000;
constexpr size_t kDimRows = 8192;

void LoadTables(RapidEngine& engine) {
  {
    std::vector<storage::ColumnSpec> specs = {
        {"k", storage::ColumnKind::kInt64},
        {"w", storage::ColumnKind::kInt32}};
    std::vector<storage::ColumnData> data(2);
    for (size_t i = 0; i < kDimRows; ++i) {
      data[0].ints.push_back(static_cast<int64_t>(i));
      data[1].ints.push_back(static_cast<int64_t>(i));
    }
    RAPID_CHECK(engine.Load(storage::LoadTable("dim", specs, data).value())
                    .ok());
  }
  {
    std::vector<storage::ColumnSpec> specs = {
        {"id", storage::ColumnKind::kInt64},
        {"v", storage::ColumnKind::kInt64}};
    std::vector<storage::ColumnData> data(2);
    Rng rng(4242);
    for (size_t i = 0; i < kFactRows; ++i) {
      data[0].ints.push_back(static_cast<int64_t>(i));
      data[1].ints.push_back(
          rng.NextInRange(0, static_cast<int>(kDimRows) - 1));
    }
    RAPID_CHECK(engine.Load(storage::LoadTable("fact", specs, data).value())
                    .ok());
  }
}

// selective: build side filtered to ~1% of its keys. Non-selective:
// unfiltered build, every probe row passes — nothing to prune.
LogicalPtr JoinPlan(bool selective) {
  std::vector<Predicate> dim_preds;
  if (selective) {
    dim_preds.push_back(Predicate::Between("w", 0, 80, 0.01));
  }
  return LogicalNode::GroupBy(
      LogicalNode::Join(
          LogicalNode::Scan("dim", {"k", "w"}, std::move(dim_preds)),
          LogicalNode::Scan("fact", {"id", "v"}), {"k"}, {"v"},
          {"id", "w"}),
      {},
      {{"checksum", AggFunc::kSum, Expr::Col("id"), {}},
       {"rows", AggFunc::kCount, Expr::Col("id"), {}}});
}

struct RunResult {
  int64_t checksum = 0;
  int64_t rows = 0;
  double modeled_ms = 0;
  double dms_cycles = 0;
  uint64_t filters_built = 0;
  uint64_t rows_pruned = 0;
  uint64_t filter_bytes = 0;
};

RunResult Run(RapidEngine& engine, bool selective, JoinFilterMode mode) {
  ScopedConfig config(&Config::join_filter, mode);
  // Unfused partitioned join: the headline saving is the probe-side
  // partition DMS round trips the pruned rows no longer pay.
  ExecOptions options;
  options.planner.enable_fusion = false;
  auto result = engine.Execute(JoinPlan(selective), options);
  RAPID_CHECK(result.ok());
  RunResult r;
  RAPID_CHECK(result.value().rows.num_rows() == 1);
  r.checksum = result.value().rows.Value(0, 0);
  r.rows = result.value().rows.Value(0, 1);
  r.modeled_ms = result.value().stats.modeled_seconds * 1e3;
  r.dms_cycles = result.value().stats.total_dms_cycles;
  r.filters_built = result.value().stats.join_filter_built;
  r.rows_pruned = result.value().stats.rows_pruned_by_join_filter;
  r.filter_bytes = result.value().stats.filter_bytes;
  return r;
}

}  // namespace

int main() {
  bench::Header("Join-filter pushdown (RAPID_JOIN_FILTER ablation)",
                "build-side Bloom filters pruning probe rows before the DMS");
  RapidEngine engine;
  LoadTables(engine);

  std::printf("%zu-row fact joins %zu-row dim (sum+count on top);\n"
              "off = plain partitioned join, auto = Bloom pruning in the"
              " probe scan\n\n",
              kFactRows, kDimRows);
  std::printf("%-13s | %9s | %9s | %7s | %9s | %8s | %8s\n", "join",
              "off ms", "auto ms", "speedup", "pruned", "filters", "flt KB");
  std::printf("--------------+-----------+-----------+---------+-----------+"
              "----------+---------\n");

  bool ok = true;
  double selective_speedup = 0;
  double nonselective_speedup = 0;
  RunResult results[2][2];
  const char* names[2] = {"selective", "nonselective"};
  for (int t = 0; t < 2; ++t) {
    const bool selective = t == 0;
    const RunResult off = Run(engine, selective, JoinFilterMode::kOff);
    const RunResult on = Run(engine, selective, JoinFilterMode::kAuto);
    results[t][0] = off;
    results[t][1] = on;
    // Bit-identity is non-negotiable: same row count, same checksum.
    RAPID_CHECK(off.rows == on.rows);
    RAPID_CHECK(off.checksum == on.checksum);
    RAPID_CHECK(off.filters_built == 0 && off.rows_pruned == 0);
    const double speedup =
        on.modeled_ms > 0 ? off.modeled_ms / on.modeled_ms : 1.0;
    (selective ? selective_speedup : nonselective_speedup) = speedup;
    std::printf("%-13s | %9.3f | %9.3f | %6.2fx | %9llu | %8llu | %8.1f\n",
                names[t], off.modeled_ms, on.modeled_ms, speedup,
                static_cast<unsigned long long>(on.rows_pruned),
                static_cast<unsigned long long>(on.filters_built),
                on.filter_bytes / 1024.0);
  }

  // Gates: the selective join must win >= 1.3x modeled and really
  // prune; the non-selective join (cost gate declines the filter)
  // must not regress by more than 2%.
  if (selective_speedup < 1.3) ok = false;
  if (nonselective_speedup < 0.98) ok = false;
  if (results[0][1].rows_pruned == 0) ok = false;
  if (results[0][1].filters_built == 0) ok = false;

  FILE* json = std::fopen("BENCH_join_filter.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"fact_rows\": %zu,\n  \"dim_rows\": %zu,\n",
                 kFactRows, kDimRows);
    for (int t = 0; t < 2; ++t) {
      std::fprintf(
          json,
          "  \"%s\": {\"off_modeled_ms\": %.6f, \"auto_modeled_ms\": %.6f,\n"
          "    \"speedup\": %.4f, \"rows_pruned\": %llu,\n"
          "    \"filters_built\": %llu, \"filter_bytes\": %llu,\n"
          "    \"off_dms_cycles\": %.0f, \"auto_dms_cycles\": %.0f},\n",
          names[t], results[t][0].modeled_ms, results[t][1].modeled_ms,
          t == 0 ? selective_speedup : nonselective_speedup,
          static_cast<unsigned long long>(results[t][1].rows_pruned),
          static_cast<unsigned long long>(results[t][1].filters_built),
          static_cast<unsigned long long>(results[t][1].filter_bytes),
          results[t][0].dms_cycles, results[t][1].dms_cycles);
    }
    std::fprintf(json, "  \"pass\": %s\n}\n", ok ? "true" : "false");
    std::fclose(json);
    std::printf("\nwrote BENCH_join_filter.json\n");
  }

  std::printf("\nGates: bit-identical results; selective >= 1.3x modeled"
              " (got %.2fx);\nnonselective regression <= 2%% (got %.2fx): %s\n",
              selective_speedup, nonselective_speedup, ok ? "PASS" : "FAIL");
  // Acceptance (opt-in, RAPID_CHECK=1): modeled time is deterministic,
  // so the speedup/regression gates are safe to enforce anywhere.
  if (const char* check = std::getenv("RAPID_CHECK");
      check != nullptr && std::string(check) == "1") {
    RAPID_CHECK(ok);
  }
  return ok ? 0 : 1;
}
