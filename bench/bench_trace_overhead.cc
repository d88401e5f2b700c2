// Trace-collector overhead ablation.
//
// Instrumentation sites are compiled into every hot path (per-morsel
// spans in scan/join/group-by/sort, per-transfer DMS events) and gated
// by TraceCollector::Recording — one relaxed atomic load plus a mode
// compare. This harness quantifies:
//
//   1. Microbenchmark: the disabled-span construct/destruct cost in
//      ns/site, and the full-mode event count of a representative
//      query; their product estimates the off-mode tax.
//   2. End-to-end: a Q6-style filter+aggregate and a partitioned join
//      under RAPID_TRACE=off|summary|full, interleaved rep by rep so
//      clock and cache drift hit all modes equally.
//
// Acceptance (opt-in via RAPID_CHECK=1): the estimated off-mode
// overhead stays under 2% and full tracing (spans + args + JSON
// export) stays within 10% of off, with a small absolute allowance
// for timer noise on short queries.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench/bench_util.h"
#include "common/config.h"
#include "common/rng.h"
#include "common/trace.h"
#include "core/engine.h"
#include "storage/loader.h"

namespace {

using namespace rapid;
using namespace rapid::core;
using primitives::CmpOp;

constexpr size_t kRows = 400'000;
// Best of N per mode. A query's 32 worker threads share the host's few
// vCPUs with whatever else runs there, so single runs of one query
// spread by +-25%. A handful of reps often leaves one mode's best far
// from its floor on a loaded host and trips the full-mode gate; sixty
// find the floors (~4.5 s per run).
constexpr int kQueryReps = 60;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// The cost of one *disabled* instrumentation site: TraceSpan
// construction falls through on the Recording() gate.
double DisabledSpanNsPerSite(size_t iters) {
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < iters; ++i) {
    TraceSpan span(TraceMode::kFull, 0, "bench.disabled");
    (void)span;
  }
  return SecondsSince(start) / static_cast<double>(iters) * 1e9;
}

void LoadData(RapidEngine& engine) {
  Rng rng(99);
  std::vector<storage::ColumnSpec> specs = {
      {"id", storage::ColumnKind::kInt64},
      {"grp", storage::ColumnKind::kInt32},
      {"val", storage::ColumnKind::kInt32}};
  std::vector<storage::ColumnData> data(3);
  for (size_t i = 0; i < kRows; ++i) {
    data[0].ints.push_back(static_cast<int64_t>(i));
    data[1].ints.push_back(rng.NextInRange(0, 255));
    data[2].ints.push_back(rng.NextInRange(0, 9999));
  }
  RAPID_CHECK(engine.Load(storage::LoadTable("t", specs, data).value()).ok());

  std::vector<storage::ColumnSpec> dspecs = {
      {"k", storage::ColumnKind::kInt64},
      {"w", storage::ColumnKind::kInt32}};
  std::vector<storage::ColumnData> ddata(2);
  for (int i = 0; i < 256; ++i) {
    ddata[0].ints.push_back(i);
    ddata[1].ints.push_back(i * 7);
  }
  RAPID_CHECK(
      engine.Load(storage::LoadTable("d", dspecs, ddata).value()).ok());
}

// Q6 shape: one selective scan feeding an aggregation.
LogicalPtr AggPlan() {
  return LogicalNode::GroupBy(
      LogicalNode::Scan("t", {"grp", "val"},
                        {Predicate::CmpConst("val", CmpOp::kLt, 5000)}),
      {{"grp", Expr::Col("grp")}},
      {{"s", AggFunc::kSum, Expr::Col("val"), {}}});
}

LogicalPtr JoinPlan() {
  return LogicalNode::Join(LogicalNode::Scan("t", {"grp", "val"}),
                           LogicalNode::Scan("d", {"k", "w"}), {"grp"}, {"k"},
                           {"val", "w"});
}

double QuerySeconds(RapidEngine& engine, const LogicalPtr& plan) {
  const auto start = std::chrono::steady_clock::now();
  auto result = engine.Execute(plan);
  RAPID_CHECK(result.ok());
  return SecondsSince(start);
}

size_t TraceEventCount() {
  const TraceCollector::Snapshot snap =
      TraceCollector::Instance().TakeSnapshot();
  size_t core_events = 0;
  size_t other_events = 0;
  for (const auto& track : snap.tracks) {
    const bool core = track.name.rfind("dpCore", 0) == 0;
    (core ? core_events : other_events) += track.events.size();
    if (!core && !track.events.empty()) {
      std::printf("    track %-8s %6zu events\n", track.name.c_str(),
                  track.events.size());
    }
  }
  std::printf("    dpCore tracks   %6zu events\n", core_events);
  return core_events + other_events;
}

}  // namespace

int main() {
  bench::Header("Trace collector", "overhead of compiled-in trace spans");

  ScopedConfig config(&Config::trace, TraceMode::kOff);

  constexpr size_t kSpanIters = 8'000'000;
  const double span_ns = DisabledSpanNsPerSite(kSpanIters);
  std::printf("\nDisabled span site (%zu iters): %.2f ns/site\n", kSpanIters,
              span_ns);

  RapidEngine engine;
  LoadData(engine);

  struct QueryCase {
    const char* name;
    LogicalPtr plan;
    double off = 1e30;
    double summary = 1e30;
    double full = 1e30;
    size_t full_events = 0;
  };
  QueryCase cases[] = {{"filter+group-by", AggPlan()},
                       {"partitioned join", JoinPlan()}};

  // Warm-up plus event census: one full-mode run per case.
  for (QueryCase& c : cases) {
    config.Set(&Config::trace, TraceMode::kFull);
    (void)QuerySeconds(engine, c.plan);
    c.full_events = TraceEventCount();
  }

  // Interleave the three modes rep by rep, rotating which mode runs
  // first: the first query after switching working sets pays the
  // cache-warming cost, and rotation spreads that tax evenly instead
  // of always charging it to the same mode. Keep the best of each.
  for (int rep = 0; rep < kQueryReps; ++rep) {
    for (QueryCase& c : cases) {
      for (int k = 0; k < 3; ++k) {
        double* best[] = {&c.off, &c.summary, &c.full};
        const TraceMode modes[] = {TraceMode::kOff, TraceMode::kSummary,
                                   TraceMode::kFull};
        const int m = (rep + k) % 3;
        config.Set(&Config::trace, modes[m]);
        *best[m] = std::min(*best[m], QuerySeconds(engine, c.plan));
      }
    }
  }
  config.Set(&Config::trace, TraceMode::kOff);

  std::printf("\nEnd-to-end queries (%zu rows, best of %d):\n", kRows,
              kQueryReps);
  std::printf("  %-18s %10s %10s %10s %9s %8s\n", "query", "off", "summary",
              "full", "full ovh", "events");
  double worst_off_est = 0;
  double worst_full = 0;
  for (const QueryCase& c : cases) {
    // Off-mode estimate: every event recorded in full mode corresponds
    // to one gated site the off-mode run still visits.
    const double off_est =
        static_cast<double>(c.full_events) * span_ns * 1e-9 / c.off;
    worst_off_est = std::max(worst_off_est, off_est);
    const double full_ovh = c.full / c.off - 1.0;
    worst_full = std::max(worst_full, full_ovh);
    std::printf("  %-18s %7.3f ms %7.3f ms %7.3f ms %8.1f%% %8zu\n", c.name,
                c.off * 1e3, c.summary * 1e3, c.full * 1e3, full_ovh * 100.0,
                c.full_events);
    std::printf("    off-mode tax estimate: %zu sites x %.2f ns = %.1f us"
                " (%.3f%% of query)\n",
                c.full_events, span_ns,
                static_cast<double>(c.full_events) * span_ns * 1e-3,
                off_est * 100.0);
  }

  // ---- JSON ----------------------------------------------------------------
  FILE* json = std::fopen("BENCH_trace.json", "w");
  RAPID_CHECK(json != nullptr);
  std::fprintf(json,
               "{\n  \"span_iters\": %zu,\n  \"disabled_span_ns\": %.3f,\n"
               "  \"rows\": %zu,\n  \"queries\": [\n",
               kSpanIters, span_ns, kRows);
  const size_t ncases = sizeof(cases) / sizeof(cases[0]);
  for (size_t i = 0; i < ncases; ++i) {
    const QueryCase& c = cases[i];
    std::fprintf(json,
                 "    {\"query\": \"%s\", \"off_ms\": %.4f,"
                 " \"summary_ms\": %.4f, \"full_ms\": %.4f,\n"
                 "     \"full_events\": %zu, \"full_overhead_pct\": %.2f}%s\n",
                 c.name, c.off * 1e3, c.summary * 1e3, c.full * 1e3,
                 c.full_events, (c.full / c.off - 1.0) * 100.0,
                 i + 1 < ncases ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\nwrote BENCH_trace.json\n");

  // Acceptance (opt-in, RAPID_CHECK=1). Flush first: a failed check
  // aborts, and the table above is what explains the failure.
  std::fflush(stdout);
  if (const char* check = std::getenv("RAPID_CHECK");
      check != nullptr && check[0] == '1') {
    // Off mode: the gated sites' estimated cost stays under 2% of the
    // query. (Estimated, not differenced: the tax is far below timer
    // noise, which is the point.)
    RAPID_CHECK(worst_off_est <= 0.02);
    // Full mode: spans, annotations and the JSON export stay within
    // 10% of off, with an absolute allowance for short-query jitter.
    for (const QueryCase& c : cases) {
      RAPID_CHECK(c.full <= c.off * 1.10 + 500e-6);
    }
    std::printf("RAPID_CHECK: off-mode tax %.3f%% (gate 2%%),"
                " full-mode overhead %.1f%% (gate 10%% + 0.5 ms)\n",
                worst_off_est * 100.0, worst_full * 100.0);
  }

  std::printf(
      "\nTarget: off is the production configuration — every site costs one\n"
      "relaxed atomic load; full records per-morsel spans and exports\n"
      "Perfetto-loadable JSON without perturbing modeled results.\n");
  return 0;
}
