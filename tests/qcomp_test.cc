// Tests for QComp: selectivity estimation, partition-scheme
// optimization (Section 5.3 heuristics), task formation (Section 5.2,
// Figure 4), the cost estimator, and physical planning decisions.

#include <gtest/gtest.h>

#include "core/qcomp/cost_model.h"
#include "core/qcomp/partition_scheme.h"
#include "core/qcomp/planner.h"
#include "core/qcomp/task_formation.h"
#include "storage/loader.h"
#include "tests/test_util.h"

namespace rapid::core {
namespace {

using primitives::CmpOp;

// ---- Selectivity estimation ----------------------------------------------

TEST(SelectivityTest, RangeFractions) {
  storage::ColumnStats stats;
  stats.min = 0;
  stats.max = 99;
  stats.ndv = 100;
  EXPECT_NEAR(EstimateSelectivity(
                  stats, Predicate::CmpConst("c", CmpOp::kLt, 50)),
              0.5, 0.01);
  EXPECT_NEAR(EstimateSelectivity(
                  stats, Predicate::CmpConst("c", CmpOp::kGt, 90)),
              0.09, 0.01);
  EXPECT_NEAR(EstimateSelectivity(stats, Predicate::Between("c", 10, 19)),
              0.1, 0.01);
  EXPECT_NEAR(EstimateSelectivity(
                  stats, Predicate::CmpConst("c", CmpOp::kEq, 5)),
              0.01, 0.001);
  // Out-of-range constants clamp to 0 / 1.
  EXPECT_DOUBLE_EQ(EstimateSelectivity(
                       stats, Predicate::CmpConst("c", CmpOp::kLt, -5)),
                   0.0);
  EXPECT_DOUBLE_EQ(EstimateSelectivity(
                       stats, Predicate::CmpConst("c", CmpOp::kGt, -5)),
                   1.0);
}

TEST(SelectivityTest, InSetUsesNdv) {
  storage::ColumnStats stats;
  stats.min = 0;
  stats.max = 9;
  stats.ndv = 10;
  BitVector codes(10);
  codes.Set(1);
  codes.Set(2);
  codes.Set(3);
  EXPECT_NEAR(
      EstimateSelectivity(stats, Predicate::InSet("c", codes)), 0.3, 0.01);
}

// ---- Partition-scheme optimization ----------------------------------------

TEST(PartitionSchemeTest, RequiredPartitionsFromDataAndParallelism) {
  PartitionPlanInput in;
  in.total_rows = 1000;
  in.row_bytes = 8;
  in.dmem_budget_bytes = 16 * 1024;
  in.min_partitions = 32;
  // Data fits easily; parallelism dictates 32.
  EXPECT_EQ(RequiredPartitions(in), 32);
  // 10M rows x 8B / 16KiB = ~4883 -> next pow2 = 8192.
  in.total_rows = 10'000'000;
  EXPECT_EQ(RequiredPartitions(in), 8192);
}

TEST(PartitionSchemeTest, SmallTargetIsSingleHardwareRound) {
  PartitionPlanInput in;
  in.total_rows = 10000;
  in.row_bytes = 8;
  ASSERT_OK_AND_ASSIGN(SchemeChoice choice,
                       OptimizePartitionScheme(in, dpu::CostParams::Default()));
  EXPECT_EQ(choice.target_fanout, 32);
  ASSERT_EQ(choice.scheme.rounds.size(), 1u);
  EXPECT_EQ(choice.scheme.rounds[0].fanout, 32);
  EXPECT_EQ(choice.scheme.rounds[0].hw_fanout, 32);
}

TEST(PartitionSchemeTest, LargeTargetMinimizesRounds) {
  // 1024 partitions fit in one HW x SW pass (32 x 32).
  PartitionPlanInput in;
  in.total_rows = 2'000'000;
  in.row_bytes = 8;  // -> 977 -> 1024 partitions
  ASSERT_OK_AND_ASSIGN(SchemeChoice choice,
                       OptimizePartitionScheme(in, dpu::CostParams::Default()));
  EXPECT_EQ(choice.target_fanout, 1024);
  EXPECT_EQ(choice.scheme.NumRounds(), 1u);
  EXPECT_EQ(choice.scheme.rounds[0].fanout, 1024);
}

TEST(PartitionSchemeTest, BeyondOnePassUsesMultipleRounds) {
  PartitionPlanInput in;
  in.total_rows = 80'000'000;
  in.row_bytes = 8;  // ~39063 -> 65536 partitions > 1024 max per round
  ASSERT_OK_AND_ASSIGN(SchemeChoice choice,
                       OptimizePartitionScheme(in, dpu::CostParams::Default()));
  EXPECT_EQ(choice.target_fanout, 65536);
  EXPECT_GE(choice.scheme.NumRounds(), 2u);
  int fanout = 1;
  for (const PartitionRound& r : choice.scheme.rounds) {
    EXPECT_EQ(r.fanout & (r.fanout - 1), 0);  // heuristic (a): pow2
    fanout *= r.fanout;
  }
  EXPECT_EQ(fanout, 65536);
}

TEST(PartitionSchemeTest, CostGrowsWithRounds) {
  PartitionPlanInput in;
  in.total_rows = 1'000'000;
  in.row_bytes = 8;
  const dpu::CostParams& p = dpu::CostParams::Default();
  PartitionScheme one;
  one.rounds.push_back(PartitionRound{64, 32});
  PartitionScheme two;
  two.rounds.push_back(PartitionRound{8, 8});
  two.rounds.push_back(PartitionRound{8, 1});
  EXPECT_LT(SchemeCycles(one, in, p), SchemeCycles(two, in, p));
}

TEST(PartitionSchemeTest, SymmetrySelectsBalancedFactors) {
  // Among equal-cost 2-round factorizations of 4096 (e.g. 64x64 vs
  // 1024x4), the symmetric one must win near ties. Force 2 rounds by
  // capping the per-round fan-out at 64.
  PartitionPlanInput in;
  in.total_rows = 8'000'000;
  in.row_bytes = 8;  // -> 4096 partitions
  in.max_round_fanout = 64;
  in.max_sw_fanout = 64;
  ASSERT_OK_AND_ASSIGN(SchemeChoice choice,
                       OptimizePartitionScheme(in, dpu::CostParams::Default()));
  ASSERT_EQ(choice.scheme.NumRounds(), 2u);
  EXPECT_EQ(choice.scheme.rounds[0].fanout, 64);
  EXPECT_EQ(choice.scheme.rounds[1].fanout, 64);
}

TEST(PartitionSchemeTest, InfeasibleTargetRejected) {
  PartitionPlanInput in;
  in.total_rows = 1;
  in.row_bytes = 8;
  in.min_partitions = 1;  // target 1: nothing to do
  EXPECT_FALSE(OptimizePartitionScheme(in, dpu::CostParams::Default()).ok());
}

// ---- Task formation --------------------------------------------------------

TEST(TaskFormationTest, MaxTileRespectsDmem) {
  std::vector<OpProfile> ops = {
      {"scan", 64, 16, 1.0, 16},
      {"filter", 64, 24, 0.25, 16},
  };
  // 32 KiB budget: 40 B/row -> 64..512 rows fit, 1024 overflows
  // (40*1024 + 128 > 32768).
  ASSERT_OK_AND_ASSIGN(size_t tile, MaxTileRows(ops, 0, 1, 32 * 1024));
  EXPECT_EQ(tile, 512u);
  // Oversized state cannot fit at all.
  std::vector<OpProfile> fat = {{"huge", 40000, 8, 1.0, 8}};
  EXPECT_FALSE(MaxTileRows(fat, 0, 0, 32 * 1024).ok());
}

TEST(TaskFormationTest, Figure4PrefersSingleFusedTask) {
  // The paper's aggregation example: scan -> filter (25% selectivity)
  // -> aggregate over 1M rows of 4-byte columns. Fusing everything
  // avoids materializing intermediates, so the single-task formation
  // (Figure 4c) must win.
  std::vector<OpProfile> ops = {
      {"scan", 64, 8, 1.0, 4},
      {"filter", 64, 12, 0.25, 4},
      {"agg", 64, 8, 0.0, 8},
  };
  ASSERT_OK_AND_ASSIGN(
      TaskFormation best,
      FormTasks(ops, 32 * 1024, 1'000'000, 4, dpu::CostParams::Default()));
  ASSERT_EQ(best.tasks.size(), 1u);
  EXPECT_EQ(best.tasks[0].first_op, 0u);
  EXPECT_EQ(best.tasks[0].last_op, 2u);

  // And the explicit candidates rank as the paper's figure shows:
  // (c) one task < (b) filter+agg fused < (a) all separate.
  const dpu::CostParams& p = dpu::CostParams::Default();
  const double c_all =
      FormationCycles(ops, {{0, 2, 256}}, 1'000'000, 4, p).value();
  const double b_two = FormationCycles(ops, {{0, 0, 512}, {1, 2, 512}},
                                       1'000'000, 4, p)
                           .value();
  const double a_three =
      FormationCycles(ops, {{0, 0, 1024}, {1, 1, 1024}, {2, 2, 1024}},
                      1'000'000, 4, p)
          .value();
  EXPECT_LT(c_all, b_two);
  EXPECT_LT(b_two, a_three);
}

TEST(TaskFormationTest, SplitsWhenOpsDoNotFitTogether) {
  // Two operators that only fit DMEM separately force a two-task
  // formation.
  std::vector<OpProfile> ops = {
      {"a", 14000, 64, 1.0, 8},
      {"b", 14000, 64, 1.0, 8},
  };
  ASSERT_OK_AND_ASSIGN(
      TaskFormation best,
      FormTasks(ops, 32 * 1024, 100'000, 8, dpu::CostParams::Default()));
  EXPECT_EQ(best.tasks.size(), 2u);
}

TEST(TaskFormationTest, EmptyChainRejected) {
  EXPECT_FALSE(
      FormTasks({}, 32 * 1024, 100, 8, dpu::CostParams::Default()).ok());
}

TEST(TaskFormationTest, ComputeStreamOverlapsTransfer) {
  // With cycles_per_row = 0 (the default) the formation cost is pure
  // transfer; a compute-bound profile raises it, and with double
  // buffering the task costs max(transfer, compute), so doubling an
  // already-dominant compute rate doubles the bound.
  const dpu::CostParams& p = dpu::CostParams::Default();
  std::vector<OpProfile> transfer_only = {{"scan", 64, 8, 1.0, 4, 0.0}};
  std::vector<OpProfile> compute_heavy = {{"scan", 64, 8, 1.0, 4, 100.0}};
  std::vector<OpProfile> compute_heavier = {{"scan", 64, 8, 1.0, 4, 200.0}};
  const double t0 =
      FormationCycles(transfer_only, {{0, 0, 1024}}, 100'000, 4, p).value();
  const double t1 =
      FormationCycles(compute_heavy, {{0, 0, 1024}}, 100'000, 4, p).value();
  const double t2 =
      FormationCycles(compute_heavier, {{0, 0, 1024}}, 100'000, 4, p).value();
  EXPECT_LT(t0, t1);
  // Per-tile setup is common to both; the max(transfer, compute) term
  // exactly doubles.
  EXPECT_NEAR(t2 - t1, 100.0 * 100'000, 1e-6);
  // A cheaper per-row rate pulls the formation cost back toward the
  // transfer bound.
  std::vector<OpProfile> vectorized = {{"scan", 64, 8, 1.0, 4, 100.0 / 8}};
  const double tv =
      FormationCycles(vectorized, {{0, 0, 1024}}, 100'000, 4, p).value();
  EXPECT_LT(tv, t1);
}

// ---- Cost estimator --------------------------------------------------------

TEST(CostEstimatorTest, MonotoneInInputSize) {
  CostEstimator est(dpu::DpuConfig::Default(), dpu::CostParams::Default());
  EXPECT_LT(est.ScanSeconds(1000, 16, 1, 0.5),
            est.ScanSeconds(1'000'000, 16, 1, 0.5));
  EXPECT_LT(est.JoinSeconds(1000, 1000, 16, 1),
            est.JoinSeconds(100'000, 100'000, 16, 1));
  EXPECT_LT(est.JoinSeconds(1000, 1000, 16, 1),
            est.JoinSeconds(1000, 1000, 16, 3));
  EXPECT_LT(est.GroupBySeconds(1000, 10, 2, true),
            est.GroupBySeconds(1'000'000, 10, 2, true));
  EXPECT_LT(est.SortSeconds(1000, 8), est.SortSeconds(100'000, 8));
}

// ---- Planner decisions -----------------------------------------------------

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<storage::ColumnSpec> specs = {
        {"id", storage::ColumnKind::kInt64},
        {"grp", storage::ColumnKind::kInt32},
        {"val", storage::ColumnKind::kInt32}};
    std::vector<storage::ColumnData> data(3);
    for (int i = 0; i < 10000; ++i) {
      data[0].ints.push_back(i);            // ndv 10000
      data[1].ints.push_back(i % 4);        // ndv 4
      data[2].ints.push_back(i % 100);      // ndv 100
    }
    auto table = storage::LoadTable("t", specs, data);
    ASSERT_TRUE(table.ok());
    catalog_.emplace("t", std::move(table).value());
  }

  Result<PhysicalPlan> Plan(const LogicalPtr& node) {
    Planner planner(dpu::DpuConfig::Default(), dpu::CostParams::Default());
    return planner.Plan(node, catalog_);
  }

  Catalog catalog_;
};

TEST_F(PlannerTest, RidListChosenBelowOneThirtySecond) {
  // Selectivity 1/10000 -> RID list; 1/2 -> bit vector (Section 5.4).
  auto selective = LogicalNode::Scan(
      "t", {"val"}, {Predicate::CmpConst("id", CmpOp::kEq, 5)});
  ASSERT_OK_AND_ASSIGN(PhysicalPlan p1, Plan(selective));
  EXPECT_NE(p1.steps[0]->Describe().find(" rid"), std::string::npos);

  auto broad = LogicalNode::Scan(
      "t", {"val"}, {Predicate::CmpConst("val", CmpOp::kLt, 50)});
  ASSERT_OK_AND_ASSIGN(PhysicalPlan p2, Plan(broad));
  EXPECT_NE(p2.steps[0]->Describe().find(" bv"), std::string::npos);
}

TEST_F(PlannerTest, PredicatesOrderedMostSelectiveFirst) {
  auto scan = LogicalNode::Scan(
      "t", {"val"},
      {Predicate::CmpConst("val", CmpOp::kLt, 90),   // ~0.9
       Predicate::CmpConst("id", CmpOp::kLt, 100)}); // ~0.01
  ASSERT_OK_AND_ASSIGN(PhysicalPlan plan, Plan(scan));
  // Execution must apply the id predicate first; observable through
  // the step description only indirectly, so execute and compare
  // results with a reference instead (ordering is a perf concern; the
  // planner test just checks the plan builds with both predicates).
  EXPECT_NE(plan.steps[0]->Describe().find("preds=2"), std::string::npos);
}

TEST_F(PlannerTest, GroupByStrategyByNdv) {
  // grp has 4 distinct values -> low NDV (on-the-fly + merge).
  auto low = LogicalNode::GroupBy(
      LogicalNode::Scan("t", {"grp", "val"}),
      {{"grp", Expr::Col("grp")}},
      {{"s", AggFunc::kSum, Expr::Col("val"), {}}});
  ASSERT_OK_AND_ASSIGN(PhysicalPlan p1, Plan(low));
  bool found_low = false;
  for (const auto& s : p1.steps) {
    if (s->Describe().find("low-ndv") != std::string::npos) found_low = true;
  }
  EXPECT_TRUE(found_low);

  // id has 10000 distinct values -> high NDV over a partition round on
  // id, which ends the scan's pipeline as its sink.
  Planner planner(dpu::DpuConfig::Default(), dpu::CostParams::Default(),
                  PlannerOptions{.low_ndv_threshold = 1000});
  auto high = LogicalNode::GroupBy(
      LogicalNode::Scan("t", {"id", "val"}), {{"id", Expr::Col("id")}},
      {{"s", AggFunc::kSum, Expr::Col("val"), {}}});
  ASSERT_OK_AND_ASSIGN(PhysicalPlan p2, planner.Plan(high, catalog_));
  bool found_partition = false;
  bool found_high = false;
  for (const auto& s : p2.steps) {
    if (s->Describe().find("| partition keys=(id) scheme=") !=
        std::string::npos) {
      found_partition = true;
    }
    if (s->Describe().find("high-ndv") != std::string::npos) {
      found_high = true;
    }
  }
  EXPECT_TRUE(found_partition) << p2.Describe();
  EXPECT_TRUE(found_high) << p2.Describe();
}

TEST_F(PlannerTest, JoinBuildsOnSmallerSide) {
  // Left side is the full table, right side is filtered to ~1%;
  // the planner must build on the right side. Verify via the
  // partition step order: the build partition step comes first.
  // (Fusion disabled: this test pins the partitioned-join shape.)
  auto big = LogicalNode::Scan("t", {"id", "val"});
  auto small = LogicalNode::Scan(
      "t", {"id", "grp"}, {Predicate::CmpConst("id", CmpOp::kLt, 100)});
  auto join = LogicalNode::Join(big, small, {"id"}, {"id"}, {"val", "grp"});
  Planner planner(dpu::DpuConfig::Default(), dpu::CostParams::Default(),
                  PlannerOptions{.enable_fusion = false});
  ASSERT_OK_AND_ASSIGN(PhysicalPlan plan, planner.Plan(join, catalog_));
  // Steps: scan(big)=0, scan(small)=1, partition(build)=2,
  // partition(probe)=3, join=4. Build partition must reference step 1.
  ASSERT_GE(plan.steps.size(), 5u);
  EXPECT_NE(plan.steps[2]->Describe().find("PARTITION #1"),
            std::string::npos)
      << plan.Describe();
  EXPECT_NE(plan.steps[3]->Describe().find("PARTITION #0"),
            std::string::npos);
}

TEST_F(PlannerTest, MissingTableFails) {
  auto scan = LogicalNode::Scan("nope", {"x"});
  EXPECT_FALSE(Plan(scan).ok());
}

TEST_F(PlannerTest, FilterOverScanFuses) {
  auto plan_node = LogicalNode::Filter(
      LogicalNode::Scan("t", {"val"}),
      {Predicate::CmpConst("val", CmpOp::kLt, 10)});
  ASSERT_OK_AND_ASSIGN(PhysicalPlan plan, Plan(plan_node));
  EXPECT_EQ(plan.steps.size(), 1u);  // fused into the scan task
  EXPECT_NE(plan.steps[0]->Describe().find("preds=1"), std::string::npos);
}

// ---- Pipeline fusion -------------------------------------------------------

TEST_F(PlannerTest, SmallBuildJoinFusesIntoPipeline) {
  // Build side is ~100 estimated rows: the fusion pass must collapse
  // partition/partition/join into a broadcast probe stage riding the
  // probe-side scan pipeline.
  auto big = LogicalNode::Scan("t", {"id", "val"});
  auto small = LogicalNode::Scan(
      "t", {"id", "grp"}, {Predicate::CmpConst("id", CmpOp::kLt, 100)});
  auto join = LogicalNode::Join(big, small, {"id"}, {"id"}, {"val", "grp"});
  ASSERT_OK_AND_ASSIGN(PhysicalPlan plan, Plan(join));
  const std::string desc = plan.Describe();
  EXPECT_NE(desc.find("PIPELINE"), std::string::npos) << desc;
  EXPECT_NE(desc.find("probe build=#"), std::string::npos) << desc;
  EXPECT_EQ(desc.find("PARTITION"), std::string::npos) << desc;
  EXPECT_EQ(desc.find("HASHJOIN"), std::string::npos) << desc;
  // Build-side producer + fused pipeline.
  EXPECT_EQ(plan.steps.size(), 2u) << desc;
  EXPECT_EQ(plan.root, 1);
}

TEST_F(PlannerTest, LargeBuildJoinStaysPartitioned) {
  // Same join but the gate is lowered below the build estimate: the
  // partitioned join shape must survive.
  auto big = LogicalNode::Scan("t", {"id", "val"});
  auto small = LogicalNode::Scan(
      "t", {"id", "grp"}, {Predicate::CmpConst("id", CmpOp::kLt, 100)});
  auto join = LogicalNode::Join(big, small, {"id"}, {"id"}, {"val", "grp"});
  Planner planner(dpu::DpuConfig::Default(), dpu::CostParams::Default(),
                  PlannerOptions{.fusion_max_build_rows = 10});
  ASSERT_OK_AND_ASSIGN(PhysicalPlan plan, planner.Plan(join, catalog_));
  const std::string desc = plan.Describe();
  EXPECT_NE(desc.find("PARTITION"), std::string::npos) << desc;
  EXPECT_NE(desc.find("HASHJOIN"), std::string::npos) << desc;
  EXPECT_EQ(desc.find("PIPELINE"), std::string::npos) << desc;
}

TEST_F(PlannerTest, SkewKnobsDisableFusion) {
  auto big = LogicalNode::Scan("t", {"id", "val"});
  auto small = LogicalNode::Scan(
      "t", {"id", "grp"}, {Predicate::CmpConst("id", CmpOp::kLt, 100)});
  auto join = LogicalNode::Join(big, small, {"id"}, {"id"}, {"val", "grp"});
  Planner planner(dpu::DpuConfig::Default(), dpu::CostParams::Default(),
                  PlannerOptions{.force_join_fanout = 8});
  ASSERT_OK_AND_ASSIGN(PhysicalPlan plan, planner.Plan(join, catalog_));
  EXPECT_EQ(plan.Describe().find("PIPELINE"), std::string::npos)
      << plan.Describe();
}

TEST_F(PlannerTest, FusionStopsAtPipelineBreakers) {
  // A low-NDV group-by (grp: 4 groups) ends the scan chain as its
  // aggregate sink; sort and top-k above it stay barriers, and ids stay
  // consecutive.
  auto agg = LogicalNode::GroupBy(
      LogicalNode::Filter(LogicalNode::Scan("t", {"grp", "val"}),
                          {Predicate::CmpConst("val", CmpOp::kLt, 50)}),
      {{"grp", Expr::Col("grp")}},
      {{"s", AggFunc::kSum, Expr::Col("val"), {}}});
  for (const LogicalPtr& root :
       {LogicalNode::Sort(agg, {{"grp", true}}),
        LogicalNode::TopK(agg, {{"s", false}}, 2)}) {
    ASSERT_OK_AND_ASSIGN(PhysicalPlan plan, Plan(root));
    const std::string desc = plan.Describe();
    ASSERT_EQ(plan.steps.size(), 2u) << desc;
    EXPECT_EQ(plan.steps[0]->Describe().rfind(
                  "PIPELINE scan t | filter+project preds=1 proj=2 | "
                  "aggregate low-ndv keys=1 aggs=1 tile=",
                  0),
              0u)
        << desc;
    EXPECT_EQ(desc.find("GROUPBY"), std::string::npos) << desc;
    EXPECT_NE(plan.steps[1]->Describe().find(" #0"), std::string::npos)
        << desc;
    for (size_t i = 0; i < plan.steps.size(); ++i) {
      EXPECT_EQ(plan.steps[i]->id(), static_cast<int>(i));
    }
    EXPECT_EQ(plan.root, 1);
  }

  // High NDV (id: 10000 groups over a 1000 threshold) partitions: the
  // partition round ends the scan's chain as its sink, and the group-by
  // stays a breaker behind it.
  auto by_id = LogicalNode::GroupBy(
      LogicalNode::Scan("t", {"id", "val"}), {{"id", Expr::Col("id")}},
      {{"s", AggFunc::kSum, Expr::Col("val"), {}}});
  Planner high(dpu::DpuConfig::Default(), dpu::CostParams::Default(),
               PlannerOptions{.low_ndv_threshold = 1000});
  ASSERT_OK_AND_ASSIGN(PhysicalPlan p_high, high.Plan(by_id, catalog_));
  ASSERT_EQ(p_high.steps.size(), 2u) << p_high.Describe();
  EXPECT_EQ(p_high.steps[0]->Describe().rfind(
                "PIPELINE scan t | filter+project preds=0 proj=2 | "
                "partition keys=(id) scheme=",
                0),
            0u)
      << p_high.Describe();
  EXPECT_EQ(p_high.Describe().find("PARTITION"), std::string::npos)
      << p_high.Describe();
  EXPECT_NE(p_high.Describe().find("GROUPBY #0 high-ndv"), std::string::npos)
      << p_high.Describe();

  // The same keys forced low-NDV: 10000 estimated groups do not fit
  // DMEM beside the chain, so the group-by stays a step of its own.
  Planner low(dpu::DpuConfig::Default(), dpu::CostParams::Default(),
              PlannerOptions{.low_ndv_threshold = 1u << 20});
  ASSERT_OK_AND_ASSIGN(PhysicalPlan p_low, low.Plan(by_id, catalog_));
  ASSERT_EQ(p_low.steps.size(), 2u) << p_low.Describe();
  EXPECT_NE(p_low.steps[1]->Describe().find("GROUPBY #0 low-ndv"),
            std::string::npos)
      << p_low.Describe();
  EXPECT_EQ(p_low.Describe().find("aggregate"), std::string::npos);
}

}  // namespace
}  // namespace rapid::core
