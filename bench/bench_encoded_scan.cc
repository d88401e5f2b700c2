// Encoded-scan A/B: RAPID_ENCODED_SCAN=off vs auto through the full
// engine on a Q6-shaped scan+aggregate.
//
// Two tables with identical schema and row count: an RLE-friendly one
// (sorted date, long-run small domains — the shape clustering gives
// l_shipdate/l_quantity) and an incompressible one (every column
// shuffled high-entropy, so the encoding stack keeps everything
// plain). The encoded path must (i) return bit-identical aggregates,
// (ii) cut modeled scan time >= 1.3x where runs exist, and (iii) cost
// <= 2% where they don't — the auto gate has to be safe to leave on.
//
// Emits BENCH_encoding.json for the CI trend line.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/config.h"
#include "common/rng.h"
#include "storage/encoding_stack.h"
#include "storage/loader.h"

namespace {

using namespace rapid;
using namespace rapid::core;
using primitives::CmpOp;

constexpr size_t kRows = 200'000;

void LoadTables(RapidEngine& engine) {
  const std::vector<storage::ColumnSpec> specs = {
      {"shipdate", storage::ColumnKind::kDate},
      {"quantity", storage::ColumnKind::kInt32},
      {"discount", storage::ColumnKind::kInt32},
      {"price", storage::ColumnKind::kInt64}};

  // RLE-friendly: sorted date (runs of ~256 rows), coarse-grained
  // quantity/discount runs, and a price column that repeats within
  // order-sized groups.
  {
    std::vector<storage::ColumnData> data(4);
    Rng rng(42);
    for (size_t i = 0; i < kRows; ++i) {
      data[0].ints.push_back(static_cast<int64_t>(9131 + i / 256));
      data[1].ints.push_back(static_cast<int64_t>((i / 64) % 50 + 1));
      data[2].ints.push_back(static_cast<int64_t>((i / 128) % 11));
      data[3].ints.push_back(static_cast<int64_t>((i / 32) % 1000 + 90000));
    }
    RAPID_CHECK(
        engine.Load(storage::LoadTable("rle_friendly", specs, data).value())
            .ok());
  }

  // Incompressible: same domains, every row drawn independently.
  {
    std::vector<storage::ColumnData> data(4);
    Rng rng(43);
    for (size_t i = 0; i < kRows; ++i) {
      data[0].ints.push_back(9131 + rng.NextInRange(0, kRows / 256));
      data[1].ints.push_back(rng.NextInRange(1, 50));
      data[2].ints.push_back(rng.NextInRange(0, 10));
      data[3].ints.push_back(rng.NextInRange(90000, 91000));
    }
    RAPID_CHECK(
        engine.Load(storage::LoadTable("shuffled", specs, data).value()).ok());
  }
}

LogicalPtr Q6(const std::string& table) {
  return LogicalNode::GroupBy(
      LogicalNode::Scan(
          table, {"discount", "price"},
          {Predicate::Between("shipdate", 9200, 9500, 0.5),
           Predicate::CmpConst("quantity", CmpOp::kLt, 24, 0.5),
           Predicate::Between("discount", 3, 7, 0.45)}),
      {},
      {{"revenue", AggFunc::kSum,
        Expr::Mul(Expr::Col("price"), Expr::Col("discount")), {}}});
}

struct RunResult {
  size_t rows = 0;
  int64_t revenue = 0;
  double modeled_ms = 0;
  double wall_ms = 0;
  double dms_cycles = 0;
  uint64_t encoded_bytes = 0;
  uint64_t plain_bytes = 0;
  uint64_t runs_filtered = 0;
};

RunResult Run(RapidEngine& engine, const std::string& table,
              EncodedScanMode mode) {
  ScopedConfig config(&Config::encoded_scan, mode);
  auto result = engine.Execute(Q6(table));
  RAPID_CHECK(result.ok());
  RunResult r;
  r.rows = result.value().rows.num_rows();
  r.revenue = r.rows > 0 ? result.value().rows.Value(0, 0) : 0;
  r.modeled_ms = result.value().stats.modeled_seconds * 1e3;
  r.wall_ms = result.value().stats.wall_seconds * 1e3;
  r.dms_cycles = result.value().stats.total_dms_cycles;
  r.encoded_bytes = result.value().stats.encoded_bytes_moved;
  r.plain_bytes = result.value().stats.plain_bytes_moved;
  r.runs_filtered = result.value().stats.runs_filtered;
  return r;
}

}  // namespace

int main() {
  bench::Header("Encoded scans (RAPID_ENCODED_SCAN ablation)",
                "RLE tiles over the DMS + run-level filters vs plain scans");
  RapidEngine engine;
  LoadTables(engine);

  std::printf("%zu rows/table, Q6-shaped scan+sum; off = plain tiles,\n"
              "auto = encoded transfers + run-level predicates\n\n",
              kRows);
  std::printf("%-13s | %9s | %9s | %7s | %9s | %9s | %8s\n", "table",
              "off ms", "auto ms", "speedup", "enc KB", "plain KB", "runs");
  std::printf("--------------+-----------+-----------+---------+-----------+"
              "-----------+---------\n");

  bool ok = true;
  double friendly_speedup = 0;
  double shuffled_speedup = 0;
  RunResult results[2][2];
  const char* tables[2] = {"rle_friendly", "shuffled"};
  for (int t = 0; t < 2; ++t) {
    const RunResult off = Run(engine, tables[t], EncodedScanMode::kOff);
    const RunResult on = Run(engine, tables[t], EncodedScanMode::kAuto);
    results[t][0] = off;
    results[t][1] = on;
    // Bit-identity is non-negotiable: same group count, same sum.
    RAPID_CHECK(off.rows == on.rows);
    RAPID_CHECK(off.revenue == on.revenue);
    RAPID_CHECK(off.encoded_bytes == 0);
    const double speedup = on.modeled_ms > 0 ? off.modeled_ms / on.modeled_ms
                                             : 1.0;
    (t == 0 ? friendly_speedup : shuffled_speedup) = speedup;
    std::printf("%-13s | %9.3f | %9.3f | %6.2fx | %9.1f | %9.1f | %8llu\n",
                tables[t], off.modeled_ms, on.modeled_ms, speedup,
                on.encoded_bytes / 1024.0, on.plain_bytes / 1024.0,
                static_cast<unsigned long long>(on.runs_filtered));
  }

  // Gates: the friendly table must win >= 1.3x modeled; the shuffled
  // table (nothing encodable, the gate should be a no-op) must not
  // regress by more than 2%.
  if (friendly_speedup < 1.3) ok = false;
  if (shuffled_speedup < 0.98) ok = false;
  if (results[0][1].encoded_bytes == 0) ok = false;
  if (results[0][1].runs_filtered == 0) ok = false;

  FILE* json = std::fopen("BENCH_encoding.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"rows\": %zu,\n", kRows);
    for (int t = 0; t < 2; ++t) {
      std::fprintf(
          json,
          "  \"%s\": {\"off_modeled_ms\": %.6f, \"auto_modeled_ms\": %.6f,\n"
          "    \"speedup\": %.4f, \"encoded_bytes\": %llu,\n"
          "    \"plain_bytes\": %llu, \"runs_filtered\": %llu,\n"
          "    \"off_dms_cycles\": %.0f, \"auto_dms_cycles\": %.0f},\n",
          tables[t], results[t][0].modeled_ms, results[t][1].modeled_ms,
          t == 0 ? friendly_speedup : shuffled_speedup,
          static_cast<unsigned long long>(results[t][1].encoded_bytes),
          static_cast<unsigned long long>(results[t][1].plain_bytes),
          static_cast<unsigned long long>(results[t][1].runs_filtered),
          results[t][0].dms_cycles, results[t][1].dms_cycles);
    }
    std::fprintf(json, "  \"pass\": %s\n}\n", ok ? "true" : "false");
    std::fclose(json);
    std::printf("\nwrote BENCH_encoding.json\n");
  }

  std::printf("\nGates: bit-identical results; rle_friendly >= 1.3x modeled"
              " (got %.2fx);\nshuffled regression <= 2%% (got %.2fx): %s\n",
              friendly_speedup, shuffled_speedup, ok ? "PASS" : "FAIL");
  // Acceptance (opt-in, RAPID_CHECK=1): the modeled speedup/regression
  // gates become hard failures (modeled time is deterministic, so this
  // is safe to enforce on any machine).
  if (const char* check = std::getenv("RAPID_CHECK");
      check != nullptr && std::string(check) == "1") {
    RAPID_CHECK(ok);
  }
  return ok ? 0 : 1;
}
