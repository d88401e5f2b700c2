// Morsel-driven scheduler tests: WorkQueue unit behavior (static
// striding, LPT seeding, virtual-time stealing, the balanced-makespan
// bound) and the determinism suite — query results must stay
// bit-identical across scheduling modes (RAPID_SCHED static|morsel),
// core counts {1, 4, 32}, inline vs pooled execution, and under
// transient fault injection at dms.transfer, because every operator
// indexes its output slots by morsel id, never by the core that
// happened to run the morsel.

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
using dpu::WorkQueue;
using hostdb::HostDatabase;
using primitives::CmpOp;

// Drains `core_id`'s share of the queue, returning the morsel ids in
// hand-out order.
std::vector<size_t> Drain(WorkQueue& queue, int core_id) {
  std::vector<size_t> got;
  size_t m = 0;
  while (queue.Next(core_id, &m)) got.push_back(m);
  return got;
}

// ---- WorkQueue unit behavior ----------------------------------------------

TEST(WorkQueueTest, StaticModeStridesRoundRobin) {
  WorkQueue queue(10, 4, SchedMode::kStatic);
  EXPECT_EQ(Drain(queue, 0), (std::vector<size_t>{0, 4, 8}));
  EXPECT_EQ(Drain(queue, 1), (std::vector<size_t>{1, 5, 9}));
  EXPECT_EQ(Drain(queue, 2), (std::vector<size_t>{2, 6}));
  EXPECT_EQ(Drain(queue, 3), (std::vector<size_t>{3, 7}));
  EXPECT_EQ(queue.steal_count(), 0u);
}

TEST(WorkQueueTest, UnweightedMorselSeedingDealsRoundRobin) {
  // Unit weights: LPT's stable largest-first order is morsel-id order,
  // so the deal is exactly m -> core m % P and perfectly balanced —
  // nothing is worth stealing.
  WorkQueue queue(8, 4, SchedMode::kMorsel);
  EXPECT_EQ(Drain(queue, 0), (std::vector<size_t>{0, 4}));
  EXPECT_EQ(Drain(queue, 1), (std::vector<size_t>{1, 5}));
  EXPECT_EQ(Drain(queue, 2), (std::vector<size_t>{2, 6}));
  EXPECT_EQ(Drain(queue, 3), (std::vector<size_t>{3, 7}));
  EXPECT_EQ(queue.steal_count(), 0u);
}

TEST(WorkQueueTest, WeightedLptSeedsLargestFirstToLeastLoaded) {
  // Sorted descending: m0(8), m4(7), m5(6), m1, m2, m3 (unit tail in
  // id order). Dealing to the least-loaded core leaves
  //   core0: [0]  core1: [4, 2]  core2: [5, 1, 3]
  // and owners pop their biggest morsel first.
  WorkQueue queue({8, 1, 1, 1, 7, 6}, 3, SchedMode::kMorsel);
  EXPECT_EQ(Drain(queue, 1), (std::vector<size_t>{4, 2}));
  EXPECT_EQ(Drain(queue, 2), (std::vector<size_t>{5, 1, 3}));
  EXPECT_EQ(Drain(queue, 0), (std::vector<size_t>{0}));
  EXPECT_EQ(queue.steal_count(), 0u);
}

TEST(WorkQueueTest, AccurateWeightsLeaveNothingWorthStealing) {
  // A drained core may only steal when it would finish the victim's
  // tail morsel before the victim, in virtual time. With accurate
  // weights the LPT plan is already balanced: core 0 finishes its one
  // big morsel and must NOT pull work that core 1 would finish at the
  // same virtual instant.
  WorkQueue queue({3, 1, 1, 1}, 2, SchedMode::kMorsel);
  EXPECT_EQ(Drain(queue, 0), (std::vector<size_t>{0}));  // load 3
  EXPECT_EQ(queue.steal_count(), 0u);
  EXPECT_EQ(Drain(queue, 1), (std::vector<size_t>{1, 2, 3}));  // load 3
}

TEST(WorkQueueTest, CycleFeedbackStealsFromRealStraggler) {
  // Weights predict core 0's morsel to be the heaviest (50 vs 40+10),
  // but Charge() reports it actually cost 1 cycle while core 1's
  // first morsel cost its full 40. Core 0's virtual clock is now far
  // ahead of core 1's completion, so it steals the straggler's tail.
  WorkQueue queue({50, 40, 10}, 2, SchedMode::kMorsel);
  size_t m = 0;
  ASSERT_TRUE(queue.Next(0, &m));
  EXPECT_EQ(m, 0u);
  queue.Charge(0, 0, 1.0);  // mispredicted: 50 weight -> 1 cycle
  ASSERT_TRUE(queue.Next(1, &m));
  EXPECT_EQ(m, 1u);
  queue.Charge(1, 1, 40.0);  // on-target straggler
  ASSERT_TRUE(queue.Next(0, &m));  // own deque empty -> steal
  EXPECT_EQ(m, 2u);
  EXPECT_EQ(queue.steal_count(), 1u);
  EXPECT_FALSE(queue.Next(1, &m));
  EXPECT_FALSE(queue.Next(0, &m));
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
  WorkQueue queue(64, dpu.num_cores(), SchedMode::kMorsel);
  ASSERT_TRUE(dpu.ParallelForMorsels(queue, nullptr,
                                     [](dpu::DpCore& core, size_t) {
                                       core.cycles().ChargeCompute(100);
                                       return Status::OK();
                                     })
                  .ok());
  EXPECT_EQ(dpu.imbalance().phases, 1u);
  EXPECT_GE(dpu.imbalance().Ratio(), 1.0);

  WorkQueue poisoned(64, dpu.num_cores(), SchedMode::kMorsel);
  const Status st = dpu.ParallelForMorsels(
      poisoned, nullptr, [](dpu::DpCore&, size_t m) {
        return m == 7 ? Status::Internal("injected") : Status::OK();
      });
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
}

TEST(WorkQueueTest, MorselPhaseHonorsCancellation) {
  dpu::Dpu dpu{dpu::DpuConfig{}};
  CancelToken token;
  token.Cancel();
  WorkQueue queue(64, dpu.num_cores(), SchedMode::kMorsel);
  const Status st = dpu.ParallelForMorsels(
      queue, &token, [](dpu::DpCore&, size_t) { return Status::OK(); });
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

  // Executes the whole query set on `engine`. The join fan-out is
  // pinned so the physical plan shape does not change with the
  // engine's core count — this suite isolates *scheduling* from
  // planning.
  static std::vector<ColumnSet> RunAll(core::RapidEngine& engine) {
    ExecOptions options;
    options.planner.force_join_fanout = 32;
    std::vector<ColumnSet> results;
    for (const LogicalPtr& q : Queries()) {
      auto result = engine.Execute(q, options);
      EXPECT_OK(result.status());
      results.push_back(result.ok() ? std::move(result.value().rows)
                                    : ColumnSet());
    }
    return results;
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
        EXPECT_EQ(expected[q].column(c), actual[q].column(c))
            << label << " query " << q << " column " << c;
      }
    }
  }

  std::vector<ColumnSet> Baseline() {
    ScopedConfig mode(&Config::sched, SchedMode::kMorsel);
    return RunAll(*MakeEngine(32));
  }

  HostDatabase host_;
};

TEST_F(SchedulerDeterminismTest, StaticAndMorselModesAgree) {
  const std::vector<ColumnSet> baseline = Baseline();
  ScopedConfig mode(&Config::sched, SchedMode::kStatic);
  ExpectBitIdentical(baseline, RunAll(*MakeEngine(32)), "static sched");
}

TEST_F(SchedulerDeterminismTest, CoreCountsAgree) {
  const std::vector<ColumnSet> baseline = Baseline();
  for (const int cores : {1, 4}) {
    {
      ScopedConfig mode(&Config::sched, SchedMode::kMorsel);
      ExpectBitIdentical(baseline, RunAll(*MakeEngine(cores)),
                         "morsel cores=" + std::to_string(cores));
    }
    {
      ScopedConfig mode(&Config::sched, SchedMode::kStatic);
      ExpectBitIdentical(baseline, RunAll(*MakeEngine(cores)),
                         "static cores=" + std::to_string(cores));
    }
  }
}

TEST_F(SchedulerDeterminismTest, InlineExecutionAgrees) {
  const std::vector<ColumnSet> baseline = Baseline();
  ScopedConfig mode(&Config::sched, SchedMode::kMorsel);
  auto engine = MakeEngine(32);
  engine->dpu().SetInlineExecution(true);
  ExpectBitIdentical(baseline, RunAll(*engine), "inline execution");
}

TEST_F(SchedulerDeterminismTest, TransientDmsFaultsDoNotChangeBytes) {
  const std::vector<ColumnSet> baseline = Baseline();
  ScopedConfig mode(&Config::sched, SchedMode::kMorsel);
  ScopedFaultInjection fi(51);
  FaultInjector::SiteSpec spec;
  spec.probability = 0.2;
  spec.max_failures = 3;  // within the DMS descriptor retry budget
  fi.Arm(faults::kDmsTransfer, spec);
  ExpectBitIdentical(baseline, RunAll(*MakeEngine(32)),
                     "dms.transfer faults");
}

}  // namespace
}  // namespace rapid
