// Morsel scheduler tests: LptSchedule unit behavior (LPT dealing, the
// balanced-makespan bound, morsel phases) and the determinism suite —
// query results and modeled time must stay bit-identical across core
// counts {1, 4, 32}, inline vs pooled execution, and under transient
// fault injection at dms.transfer, because the schedule is a function
// of the morsel weights alone and every operator indexes its output
// slots by morsel id, never by the core that ran the morsel.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/config.h"
#include "common/fault.h"
#include "common/rng.h"
#include "core/engine.h"
#include "dpu/dpu.h"
#include "dpu/work_queue.h"
#include "hostdb/database.h"
#include "tests/test_util.h"

namespace rapid {
namespace {

using core::ColumnSet;
using core::ExecOptions;
using core::LogicalNode;
using core::LogicalPtr;
using core::Predicate;
using core::QueryResult;
using dpu::MorselSchedule;
using hostdb::HostDatabase;
using primitives::CmpOp;

// Core `c`'s segment of the schedule, in run order.
std::vector<size_t> Segment(const MorselSchedule& schedule, size_t c) {
  const auto segment = schedule.core(c);
  return {segment.begin(), segment.end()};
}

// ---- LptSchedule unit behavior --------------------------------------------

TEST(WorkQueueTest, UnweightedMorselSeedingDealsRoundRobin) {
  // Unit weights: LPT's stable largest-first order is morsel-id order,
  // so the deal is exactly m -> core m % P and perfectly balanced.
  const MorselSchedule schedule =
      dpu::LptSchedule(std::vector<double>(8, 1.0), 4);
  EXPECT_EQ(Segment(schedule, 0), (std::vector<size_t>{0, 4}));
  EXPECT_EQ(Segment(schedule, 1), (std::vector<size_t>{1, 5}));
  EXPECT_EQ(Segment(schedule, 2), (std::vector<size_t>{2, 6}));
  EXPECT_EQ(Segment(schedule, 3), (std::vector<size_t>{3, 7}));
}

TEST(WorkQueueTest, WeightedLptSeedsLargestFirstToLeastLoaded) {
  // Sorted descending: m0(8), m4(7), m5(6), m1, m2, m3 (unit tail in
  // id order). Dealing to the least-loaded core leaves
  //   core0: [0]  core1: [4, 2]  core2: [5, 1, 3]
  // and each core runs its biggest morsel first.
  const MorselSchedule schedule = dpu::LptSchedule({8, 1, 1, 1, 7, 6}, 3);
  EXPECT_EQ(Segment(schedule, 0), (std::vector<size_t>{0}));
  EXPECT_EQ(Segment(schedule, 1), (std::vector<size_t>{4, 2}));
  EXPECT_EQ(Segment(schedule, 2), (std::vector<size_t>{5, 1, 3}));
}

TEST(WorkQueueTest, LptScheduleDealsEveryMorselOnceLargestFirst) {
  Rng rng(17);
  std::vector<double> weights(200);
  for (double& w : weights) w = static_cast<double>(rng.NextInRange(0, 999));
  const MorselSchedule schedule = dpu::LptSchedule(weights, 7);
  ASSERT_EQ(schedule.begin.size(), 8u);
  std::vector<int> seen(weights.size(), 0);
  double max_load = 0;
  double total = 0;
  for (size_t c = 0; c < 7; ++c) {
    double load = 0;
    const std::vector<size_t> segment = Segment(schedule, c);
    for (size_t i = 0; i < segment.size(); ++i) {
      ++seen[segment[i]];
      load += weights[segment[i]];
      if (i > 0) {
        EXPECT_GE(weights[segment[i - 1]], weights[segment[i]]);
      }
    }
    max_load = std::max(max_load, load);
    total += load;
  }
  EXPECT_EQ(seen, std::vector<int>(weights.size(), 1));
  // LPT is a list schedule, so Graham's bound holds.
  const double largest = *std::max_element(weights.begin(), weights.end());
  EXPECT_LE(max_load, dpu::BalancedMakespanCycles(total, largest, 7));
  // A non-positive core count clamps to one core that runs everything.
  EXPECT_EQ(dpu::LptSchedule(weights, 0).core(0).size(), weights.size());
}

TEST(WorkQueueTest, BalancedMakespanBound) {
  // largest == 0 degenerates to the perfect round-robin estimate.
  EXPECT_DOUBLE_EQ(dpu::BalancedMakespanCycles(100, 0, 4), 25.0);
  // sum/cores plus the largest morsel's remainder.
  EXPECT_DOUBLE_EQ(dpu::BalancedMakespanCycles(100, 10, 4), 32.5);
  // A phase can never beat its largest morsel.
  EXPECT_DOUBLE_EQ(dpu::BalancedMakespanCycles(100, 100, 4), 100.0);
  // One core runs everything serially.
  EXPECT_DOUBLE_EQ(dpu::BalancedMakespanCycles(100, 40, 1), 100.0);
}

TEST(WorkQueueTest, MorselPhaseTracksImbalanceAndAbortsOnError) {
  dpu::Dpu dpu{dpu::DpuConfig{}};
  const std::vector<double> unit(64, 1.0);
  ASSERT_TRUE(dpu.ParallelForMorsels(unit, nullptr,
                                     [](dpu::DpCore& core, size_t) {
                                       core.cycles().ChargeCompute(100);
                                       return Status::OK();
                                     })
                  .ok());
  EXPECT_EQ(dpu.imbalance().phases, 1u);
  EXPECT_GE(dpu.imbalance().Ratio(), 1.0);

  const Status st = dpu.ParallelForMorsels(
      unit, nullptr, [](dpu::DpCore&, size_t m) {
        return m == 7 ? Status::Internal("injected") : Status::OK();
      });
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
}

TEST(WorkQueueTest, MorselPhaseHonorsCancellation) {
  dpu::Dpu dpu{dpu::DpuConfig{}};
  CancelToken token;
  token.Cancel();
  const Status st =
      dpu.ParallelForMorsels(std::vector<double>(64, 1.0), &token,
                             [](dpu::DpCore&, size_t) { return Status::OK(); });
  EXPECT_TRUE(st.IsCancelled()) << st.ToString();
}

// ---- Scheduler determinism suite ------------------------------------------

class SchedulerDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Fact table with a Zipf-skewed join/group key, so partitions and
    // chunk loads are genuinely unbalanced.
    std::vector<storage::ColumnSpec> fact_specs = {
        {"id", storage::ColumnKind::kInt64},
        {"g", storage::ColumnKind::kInt64},
        {"v", storage::ColumnKind::kInt64}};
    std::vector<storage::ColumnData> fact(3);
    Rng rng(99);
    ZipfGenerator zipf(16, 0.9, 7);
    for (int i = 0; i < 6000; ++i) {
      fact[0].ints.push_back(i);
      fact[1].ints.push_back(static_cast<int64_t>(zipf.Sample()));
      fact[2].ints.push_back(rng.NextInRange(0, 999));
    }
    ASSERT_OK(host_.CreateTable("t", fact_specs, fact));

    std::vector<storage::ColumnSpec> dim_specs = {
        {"k", storage::ColumnKind::kInt64},
        {"w", storage::ColumnKind::kInt64}};
    std::vector<storage::ColumnData> dim(2);
    for (int i = 0; i < 16; ++i) {
      dim[0].ints.push_back(i);
      dim[1].ints.push_back(1000 + i);
    }
    ASSERT_OK(host_.CreateTable("d", dim_specs, dim));
  }

  std::unique_ptr<core::RapidEngine> MakeEngine(int cores) {
    dpu::DpuConfig config{};
    config.num_cores = cores;
    auto engine = std::make_unique<core::RapidEngine>(config);
    EXPECT_OK(host_.LoadToRapid("t", engine.get()));
    EXPECT_OK(host_.LoadToRapid("d", engine.get()));
    return engine;
  }

  // One query per converted operator family: scan/filter, partitioned
  // join, group-by, sort, top-k, set op, window.
  static std::vector<LogicalPtr> Queries() {
    std::vector<LogicalPtr> queries;
    queries.push_back(LogicalNode::Scan(
        "t", {"id", "v"}, {Predicate::CmpConst("v", CmpOp::kLt, 500)}));
    queries.push_back(LogicalNode::Join(LogicalNode::Scan("t", {"id", "g"}),
                                        LogicalNode::Scan("d", {"k", "w"}),
                                        {"g"}, {"k"}, {"id", "w"}));
    queries.push_back(LogicalNode::GroupBy(
        LogicalNode::Scan("t", {"g", "v"}), {{"g", core::Expr::Col("g")}},
        {{"s", core::AggFunc::kSum, core::Expr::Col("v"), {}},
         {"c", core::AggFunc::kCount, nullptr, {}}}));
    queries.push_back(LogicalNode::Sort(LogicalNode::Scan("t", {"v", "id"}),
                                        {{"v", true}, {"id", true}}));
    queries.push_back(LogicalNode::TopK(LogicalNode::Scan("t", {"v", "id"}),
                                        {{"v", false}}, 50));
    queries.push_back(LogicalNode::SetOp(core::SetOpKind::kUnion,
                                         LogicalNode::Scan("t", {"g"}),
                                         LogicalNode::Scan("d", {"k"})));
    queries.push_back(LogicalNode::Window(
        LogicalNode::Scan("t", {"g", "v", "id"}),
        {core::LogicalWindow{core::WindowFunc::kRowNumber,
                             {"g"},
                             {{"v", true}, {"id", true}},
                             "",
                             "rn"}}));
    return queries;
  }

  // Each query's result columns and modeled DPU time.
  struct Run {
    std::vector<ColumnSet> rows;
    std::vector<double> modeled_seconds;
  };

  // Executes the whole query set on `engine`. The join fan-out is
  // pinned so the physical plan shape does not change with the
  // engine's core count — this suite isolates *scheduling* from
  // planning.
  static Run RunAll(core::RapidEngine& engine) {
    ExecOptions options;
    options.planner.force_join_fanout = 32;
    Run run;
    for (const LogicalPtr& q : Queries()) {
      auto result = engine.Execute(q, options);
      EXPECT_OK(result.status());
      run.modeled_seconds.push_back(
          result.ok() ? result.value().stats.modeled_seconds : -1.0);
      run.rows.push_back(result.ok() ? std::move(result.value().rows)
                                     : ColumnSet());
    }
    return run;
  }

  Run RunOn(int cores, bool inline_exec) {
    auto engine = MakeEngine(cores);
    engine->dpu().SetInlineExecution(inline_exec);
    return RunAll(*engine);
  }

  // Bit-identity: exact column vectors, not sorted-row equivalence.
  static void ExpectBitIdentical(const std::vector<ColumnSet>& expected,
                                 const std::vector<ColumnSet>& actual,
                                 const std::string& label) {
    ASSERT_EQ(expected.size(), actual.size()) << label;
    for (size_t q = 0; q < expected.size(); ++q) {
      ASSERT_EQ(expected[q].num_columns(), actual[q].num_columns())
          << label << " query " << q;
      for (size_t c = 0; c < expected[q].num_columns(); ++c) {
        EXPECT_EQ(expected[q].Values(c), actual[q].Values(c))
            << label << " query " << q << " column " << c;
      }
    }
  }

  // Modeled time is a function of the plan: exact equality, no
  // tolerance.
  static void ExpectSameModeledTime(const Run& expected, const Run& actual,
                                    const std::string& label) {
    ASSERT_EQ(expected.modeled_seconds.size(), actual.modeled_seconds.size())
        << label;
    for (size_t q = 0; q < expected.modeled_seconds.size(); ++q) {
      EXPECT_EQ(expected.modeled_seconds[q], actual.modeled_seconds[q])
          << label << " query " << q;
    }
  }

  Run Baseline() { return RunOn(32, /*inline_exec=*/false); }

  HostDatabase host_;
};

TEST_F(SchedulerDeterminismTest, CoreCountsAgree) {
  const Run baseline = Baseline();
  for (const int cores : {1, 4}) {
    const std::string label = "cores=" + std::to_string(cores);
    const Run pooled = RunOn(cores, /*inline_exec=*/false);
    ExpectBitIdentical(baseline.rows, pooled.rows, label);
    ExpectSameModeledTime(RunOn(cores, /*inline_exec=*/true), pooled,
                          label + " inline vs pooled");
  }
}

TEST_F(SchedulerDeterminismTest, InlineExecutionAgrees) {
  const Run baseline = Baseline();
  const Run inlined = RunOn(32, /*inline_exec=*/true);
  ExpectBitIdentical(baseline.rows, inlined.rows, "inline execution");
  ExpectSameModeledTime(baseline, inlined, "inline execution");
}

TEST_F(SchedulerDeterminismTest, TransientDmsFaultsDoNotChangeBytes) {
  const Run baseline = Baseline();
  ScopedFaultInjection fi(51);
  FaultInjector::SiteSpec spec;
  spec.probability = 0.2;
  spec.max_failures = 3;  // within the DMS descriptor retry budget
  fi.Arm(faults::kDmsTransfer, spec);
  ExpectBitIdentical(baseline.rows, RunAll(*MakeEngine(32)).rows,
                     "dms.transfer faults");
}

}  // namespace
}  // namespace rapid
