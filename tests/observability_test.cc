// Observability layer: unified tracing (common/trace.h), the metrics
// registry (common/metrics.h), leveled logging (common/logging.h),
// EXPLAIN ANALYZE and QueryReport::Summary(). Contracts under test:
//
//   - tracing is off by default and bit-identical across
//     off|summary|full, SIMD tiers, pooled vs inline execution and
//     injected DMS faults (spans never poll fault sites or touch
//     DMEM/tile pools);
//   - traces are well-formed: every begin has an end (open_depth back
//     to zero), per-core virtual time is monotone, and the steps-track
//     span durations reconcile exactly with modeled_seconds;
//   - stats invariants that were previously unchecked: plain bytes
//     dominate encoded bytes when encoding is on, fallback zeroes the
//     DPU-side counters.

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/config.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/trace.h"
#include "core/engine.h"
#include "hostdb/database.h"
#include "hostdb/offload.h"
#include "storage/loader.h"
#include "tests/test_util.h"

namespace rapid {
namespace {

using core::ExecutionStats;
using core::LogicalNode;
using core::LogicalPtr;
using core::Predicate;
using core::QueryResult;
using hostdb::HostDatabase;
using hostdb::QueryReport;
using rapid::testing::ExpectSameRows;
using rapid::testing::SortedRows;

// A dim/fact pair giving every layer something to do: encoded-friendly
// low-cardinality columns, a selective build side (join filters), a
// join (partitioning), and a group-by.
class ObservabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<storage::ColumnSpec> dim_specs = {
        {"k", storage::ColumnKind::kInt64},
        {"w", storage::ColumnKind::kInt32}};
    std::vector<storage::ColumnData> dim_data(2);
    for (int i = 0; i < 4096; ++i) {
      dim_data[0].ints.push_back(i);
      dim_data[1].ints.push_back(i);
    }
    ASSERT_OK(host_.CreateTable("dim", dim_specs, dim_data));
    ASSERT_OK(host_.LoadToRapid("dim", &engine_));

    std::vector<storage::ColumnSpec> fact_specs = {
        {"id", storage::ColumnKind::kInt64},
        {"v", storage::ColumnKind::kInt64},
        {"flag", storage::ColumnKind::kInt32}};
    std::vector<storage::ColumnData> fact_data(3);
    Rng rng(2026);
    for (int i = 0; i < 20000; ++i) {
      fact_data[0].ints.push_back(i);
      fact_data[1].ints.push_back(rng.NextInRange(0, 4095));
      // Long constant runs: RLE-friendly, so encoded scans engage.
      fact_data[2].ints.push_back(i / 2500);
    }
    ASSERT_OK(host_.CreateTable("fact", fact_specs, fact_data));
    ASSERT_OK(host_.LoadToRapid("fact", &engine_));
  }

  static LogicalPtr JoinPlan() {
    return LogicalNode::Join(
        LogicalNode::Scan("dim", {"k", "w"},
                          {Predicate::Between("w", 0, 40, 0.01)}),
        LogicalNode::Scan("fact", {"id", "v"}), {"k"}, {"v"},
        std::vector<std::string>{"id", "w"}, core::JoinType::kInner);
  }

  static LogicalPtr ScanPlan() {
    return LogicalNode::Scan("fact", {"id", "v", "flag"},
                             {Predicate::CmpConst(
                                 "flag", primitives::CmpOp::kLe, 3)});
  }

  HostDatabase host_;
  core::RapidEngine engine_;
};

// ---- Gating ----------------------------------------------------------------

TEST_F(ObservabilityTest, TraceOffByDefaultProducesNoTrace) {
  ScopedConfig off(&Config::trace, TraceMode::kOff);
  ASSERT_OK_AND_ASSIGN(QueryResult r, engine_.Execute(JoinPlan()));
  ASSERT_GT(r.rows.num_rows(), 0u);
  // EndQuery in off mode never exports: whatever LastTrace held before
  // stays untouched, and a fresh summary run replaces it.
  ScopedConfig on(&Config::trace, TraceMode::kSummary);
  ASSERT_OK_AND_ASSIGN(QueryResult traced, engine_.Execute(JoinPlan()));
  EXPECT_NE(core::RapidEngine::LastTrace().find("\"traceEvents\""),
            std::string::npos);
}

TEST_F(ObservabilityTest, BitIdenticalAcrossTraceModesTiersAndSchedulers) {
  QueryResult reference;
  {
    ScopedConfig off(&Config::trace, TraceMode::kOff);
    ASSERT_OK_AND_ASSIGN(reference, engine_.Execute(JoinPlan()));
  }
  ASSERT_GT(reference.rows.num_rows(), 0u);

  const TraceMode modes[] = {TraceMode::kOff, TraceMode::kSummary,
                             TraceMode::kFull};
  const SimdLevel levels[] = {SimdLevel::kScalar, SimdLevel::kAvx2};
  // The morsel schedule is a function of the plan's weights, so the
  // dpCores running on the worker pool or one after another on the
  // calling thread model the same time.
  for (TraceMode mode : modes) {
    for (SimdLevel level : levels) {
      for (const bool inline_exec : {false, true}) {
        ScopedConfig trace(&Config::trace, mode);
        ScopedConfig simd(&Config::simd, level);
        engine_.dpu().SetInlineExecution(inline_exec);
        ASSERT_OK_AND_ASSIGN(QueryResult run, engine_.Execute(JoinPlan()));
        engine_.dpu().SetInlineExecution(false);
        ExpectSameRows(run.rows, reference.rows);
        EXPECT_EQ(run.stats.modeled_seconds, reference.stats.modeled_seconds)
            << TraceModeName(mode) << "/" << SimdLevelName(level)
            << (inline_exec ? "/inline" : "/pooled");
      }
    }
  }
}

TEST_F(ObservabilityTest, BitIdenticalUnderInjectedDmsFault) {
  // Spans never poll fault sites, so the fault-injection ordinals — and
  // with them the rows — must match between off and full tracing. Four
  // consecutive failures exhaust the descriptor's retry budget, forcing
  // an engine-level checkpoint retry in both runs.
  QueryResult off_run;
  {
    ScopedConfig off(&Config::trace, TraceMode::kOff);
    ScopedFaultInjection fi(93);
    FaultInjector::SiteSpec spec;
    spec.max_failures = 4;
    fi.Arm(faults::kDmsTransfer, spec);
    ASSERT_OK_AND_ASSIGN(off_run, engine_.Execute(JoinPlan()));
    EXPECT_EQ(FaultInjector::Instance().failures(faults::kDmsTransfer), 4u);
    EXPECT_EQ(off_run.stats.dpu_retries, 1u);
  }
  QueryResult full_run;
  {
    ScopedConfig full(&Config::trace, TraceMode::kFull);
    ScopedFaultInjection fi(93);
    FaultInjector::SiteSpec spec;
    spec.max_failures = 4;
    fi.Arm(faults::kDmsTransfer, spec);
    ASSERT_OK_AND_ASSIGN(full_run, engine_.Execute(JoinPlan()));
    EXPECT_EQ(FaultInjector::Instance().failures(faults::kDmsTransfer), 4u);
  }
  ExpectSameRows(full_run.rows, off_run.rows);
  EXPECT_EQ(full_run.stats.modeled_seconds, off_run.stats.modeled_seconds);
  EXPECT_EQ(full_run.stats.dpu_retries, off_run.stats.dpu_retries);
  // The retry shows up in the trace as an engine-level instant.
  EXPECT_NE(core::RapidEngine::LastTrace().find("engine.retry"),
            std::string::npos);
}

// ---- Well-formedness -------------------------------------------------------

TEST_F(ObservabilityTest, SpansWellFormedAndPerCoreTimeMonotone) {
  ScopedConfig full(&Config::trace, TraceMode::kFull);
  ASSERT_OK_AND_ASSIGN(QueryResult r, engine_.Execute(JoinPlan()));
  ASSERT_GT(r.rows.num_rows(), 0u);

  const TraceCollector::Snapshot snap =
      TraceCollector::Instance().TakeSnapshot();
  ASSERT_GT(snap.tracks.size(), 4u);
  ASSERT_GT(snap.clock_hz, 0.0);
  size_t core_events = 0;
  for (const TraceCollector::Track& track : snap.tracks) {
    // Every begin had an end: no span is still open.
    EXPECT_EQ(track.open_depth, 0) << track.name;
    double last_end = 0;
    for (const TraceCollector::Event& e : track.events) {
      EXPECT_GE(e.end, e.begin) << track.name << ": " << e.name;
      EXPECT_GE(e.depth, 0) << track.name << ": " << e.name;
      if (track.cycle_time && track.name.rfind("dpCore", 0) == 0) {
        // Single writer per core track and a cycle clock that only
        // accumulates: close order is monotone in virtual time.
        EXPECT_GE(e.end, last_end) << track.name << ": " << e.name;
        last_end = e.end;
        ++core_events;
      }
    }
  }
  // Full mode actually recorded per-morsel core spans.
  EXPECT_GT(core_events, 0u);
}

TEST_F(ObservabilityTest, StepsTrackReconcilesWithModeledSeconds) {
  ScopedConfig summary(&Config::trace, TraceMode::kSummary);
  ASSERT_OK_AND_ASSIGN(QueryResult r, engine_.Execute(JoinPlan()));
  ASSERT_GT(r.stats.modeled_seconds, 0.0);

  const TraceCollector::Snapshot snap =
      TraceCollector::Instance().TakeSnapshot();
  double step_cycles = 0;
  size_t step_spans = 0;
  for (const TraceCollector::Track& track : snap.tracks) {
    if (track.name != "steps") continue;
    for (const TraceCollector::Event& e : track.events) {
      if (e.instant) continue;
      step_cycles += e.end - e.begin;
      ++step_spans;
    }
  }
  ASSERT_GT(step_spans, 0u);
  const double traced_seconds = step_cycles / snap.clock_hz;
  // Acceptance bound is 1%; by construction the cursor makes it exact.
  EXPECT_NEAR(traced_seconds, r.stats.modeled_seconds,
              r.stats.modeled_seconds * 0.01);
}

TEST_F(ObservabilityTest, FullTraceRecordsDmsAndPlannerTracks) {
  ScopedConfig full(&Config::trace, TraceMode::kFull);
  ASSERT_OK_AND_ASSIGN(QueryResult r, engine_.Execute(JoinPlan()));
  const TraceCollector::Snapshot snap =
      TraceCollector::Instance().TakeSnapshot();
  size_t dms_events = 0;
  size_t planner_events = 0;
  for (const TraceCollector::Track& track : snap.tracks) {
    if (track.name == "dms") dms_events = track.events.size();
    if (track.name == "planner") planner_events = track.events.size();
  }
  EXPECT_GT(dms_events, 0u);
  EXPECT_GT(planner_events, 0u);
  const std::string& json = core::RapidEngine::LastTrace();
  EXPECT_NE(json.find("dms.transfer"), std::string::npos);
  EXPECT_NE(json.find("qcomp.plan"), std::string::npos);
}

// ---- Stats invariants ------------------------------------------------------

TEST_F(ObservabilityTest, PlainBytesDominateEncodedBytesWhenEncodingOn) {
  ScopedConfig on(&Config::encoded_scan, EncodedScanMode::kAuto);
  ASSERT_OK_AND_ASSIGN(QueryResult r, engine_.Execute(ScanPlan()));
  ASSERT_GT(r.stats.encoded_bytes_moved, 0u);
  EXPECT_GE(r.stats.plain_bytes_moved, r.stats.encoded_bytes_moved);
}

TEST_F(ObservabilityTest, FallbackZeroesDpuCountersInReport) {
  ScopedConfig on(&Config::encoded_scan, EncodedScanMode::kAuto);
  LogicalPtr plan = ScanPlan();
  ASSERT_OK_AND_ASSIGN(QueryReport clean, host_.ExecuteQuery(plan, &engine_));
  ASSERT_FALSE(clean.fell_back);
  ASSERT_GT(clean.rapid_stats.encoded_bytes_moved, 0u);

  ScopedFaultInjection fi(94);
  fi.Arm(faults::kDmsTransfer, FaultInjector::SiteSpec{});  // always fails
  ASSERT_OK_AND_ASSIGN(QueryReport fallback,
                       host_.ExecuteQuery(plan, &engine_));
  ASSERT_TRUE(fallback.fell_back);
  EXPECT_EQ(fallback.rapid_stats.encoded_bytes_moved, 0u);
  EXPECT_EQ(fallback.rapid_stats.plain_bytes_moved, 0u);
  EXPECT_EQ(fallback.rapid_stats.runs_filtered, 0u);
  EXPECT_EQ(fallback.rapid_stats.join_filter_built, 0u);
  EXPECT_EQ(fallback.rapid_stats.rows_pruned_by_join_filter, 0u);
  EXPECT_EQ(SortedRows(fallback.rows), SortedRows(clean.rows));
}

// ---- EXPLAIN ANALYZE -------------------------------------------------------

TEST_F(ObservabilityTest, ExplainAnalyzeRendersPerNodeActuals) {
  ASSERT_OK_AND_ASSIGN(std::string text, engine_.ExplainAnalyze(JoinPlan()));
  EXPECT_NE(text.find("EXPLAIN ANALYZE"), std::string::npos);
  EXPECT_NE(text.find("rows="), std::string::npos);
  EXPECT_NE(text.find("modeled_ms="), std::string::npos);
  EXPECT_NE(text.find("compute_cycles="), std::string::npos);
  // A join plan renders more than one physical node (lines are
  // indented two spaces per tree level, then "#<id> <describe>").
  size_t nodes = 0;
  size_t line_start = 0;
  while (line_start < text.size()) {
    size_t p = line_start;
    while (p < text.size() && text[p] == ' ') ++p;
    if (p < text.size() && text[p] == '#') ++nodes;
    const size_t nl = text.find('\n', line_start);
    if (nl == std::string::npos) break;
    line_start = nl + 1;
  }
  EXPECT_GE(nodes, 2u) << text;
}

TEST_F(ObservabilityTest, HostExplainAnalyzeIncludesOffloadDecision) {
  ASSERT_OK_AND_ASSIGN(std::string text,
                       host_.ExplainAnalyze(JoinPlan(), &engine_));
  EXPECT_NE(text.find("offload:"), std::string::npos);
  EXPECT_NE(text.find("rows="), std::string::npos);
}

TEST_F(ObservabilityTest, QueryReportSummaryIsStableKeyValueLine) {
  ASSERT_OK_AND_ASSIGN(QueryReport report,
                       host_.ExecuteQuery(JoinPlan(), &engine_));
  const std::string line = report.Summary();
  EXPECT_NE(line.find("rows="), std::string::npos);
  EXPECT_NE(line.find("offload="), std::string::npos);
  EXPECT_NE(line.find("modeled_ms="), std::string::npos);
  EXPECT_NE(line.find("plain_bytes="), std::string::npos);
  EXPECT_NE(line.find("retries="), std::string::npos);
  EXPECT_EQ(line.find('\n'), std::string::npos);
}

// ---- Metrics ---------------------------------------------------------------

TEST(MetricsTest, CountersGaugesHistogramsAndSnapshot) {
  auto& reg = MetricsRegistry::Instance();
  MetricCounter* c = reg.Counter("test.counter");
  ASSERT_NE(c, nullptr);
  // Registration is idempotent: same name, same instance.
  EXPECT_EQ(c, reg.Counter("test.counter"));
  c->Reset();
  c->Increment();
  c->Add(4);
  EXPECT_EQ(c->value(), 5u);

  MetricGauge* g = reg.Gauge("test.gauge");
  g->Set(-7);
  EXPECT_EQ(g->value(), -7);

  MetricHistogram* h = reg.Histogram("test.histo", {1.0, 10.0, 100.0});
  h->Reset();
  h->Observe(0.5);
  h->Observe(5);
  h->Observe(50);
  h->Observe(500);  // overflow bucket
  EXPECT_EQ(h->count(), 4u);
  EXPECT_DOUBLE_EQ(h->sum(), 555.5);
  EXPECT_EQ(h->bucket_count(0), 1u);
  EXPECT_EQ(h->bucket_count(1), 1u);
  EXPECT_EQ(h->bucket_count(2), 1u);
  EXPECT_EQ(h->bucket_count(3), 1u);

  bool saw_counter = false;
  for (const auto& entry : reg.Snapshot()) {
    if (entry.name == "test.counter") {
      saw_counter = true;
      EXPECT_EQ(entry.counter, 5u);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_NE(reg.DumpText().find("test.histo"), std::string::npos);
  EXPECT_NE(reg.DumpJson().find("\"test.gauge\""), std::string::npos);
}

TEST_F(ObservabilityTest, QueryEmitsEngineAndHostMetrics) {
  auto& reg = MetricsRegistry::Instance();
  const uint64_t engine_before = reg.Counter("rapid.queries")->value();
  const uint64_t host_before = reg.Counter("hostdb.queries")->value();
  ASSERT_OK_AND_ASSIGN(QueryReport report,
                       host_.ExecuteQuery(JoinPlan(), &engine_));
  ASSERT_GT(report.rows.num_rows(), 0u);
  EXPECT_GT(reg.Counter("rapid.queries")->value(), engine_before);
  EXPECT_GT(reg.Counter("hostdb.queries")->value(), host_before);
}

// ---- Logging ---------------------------------------------------------------

TEST(LoggingTest, LevelGateHonorsForcedLevel) {
  ScopedConfig warn(&Config::log_level, LogLevel::kWarn);
  EXPECT_TRUE(LogEnabled(LogLevel::kError));
  EXPECT_TRUE(LogEnabled(LogLevel::kWarn));
  EXPECT_FALSE(LogEnabled(LogLevel::kInfo));
  EXPECT_FALSE(LogEnabled(LogLevel::kDebug));
  {
    ScopedConfig debug(&Config::log_level, LogLevel::kDebug);
    EXPECT_TRUE(LogEnabled(LogLevel::kDebug));
  }
  EXPECT_FALSE(LogEnabled(LogLevel::kInfo));
  // The macro itself compiles and runs at an enabled level.
  RAPID_LOG(kWarn, "logging self-test %d", 42);
}

}  // namespace
}  // namespace rapid
