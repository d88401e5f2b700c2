// End-to-end engine tests: every operator class executed through the
// full stack (planner -> steps -> QEF -> DPU simulator), validated
// against the host's independent Volcano engine on the same data and
// logical plans. Both engines share encodings, so results must match
// exactly.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/engine.h"
#include "hostdb/volcano.h"
#include "storage/loader.h"
#include "tests/test_util.h"

namespace rapid::core {
namespace {

using primitives::CmpOp;
using rapid::testing::ExpectSameRows;
using rapid::testing::SortedRows;

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(2024);
    // "facts": a larger fact table.
    {
      std::vector<storage::ColumnSpec> specs = {
          {"f_id", storage::ColumnKind::kInt64},
          {"f_dim", storage::ColumnKind::kInt32},
          {"f_cat", storage::ColumnKind::kString},
          {"f_price", storage::ColumnKind::kDecimal},
          {"f_qty", storage::ColumnKind::kInt32},
          {"f_day", storage::ColumnKind::kDate}};
      std::vector<storage::ColumnData> data(6);
      const char* cats[] = {"red", "green", "blue", "black"};
      for (int i = 0; i < 20000; ++i) {
        data[0].ints.push_back(i);
        data[1].ints.push_back(rng.NextInRange(0, 499));
        data[2].strings.push_back(cats[rng.NextBounded(4)]);
        data[3].decimals.push_back(
            static_cast<double>(rng.NextInRange(100, 99999)) / 100.0);
        data[4].ints.push_back(rng.NextInRange(1, 50));
        data[5].ints.push_back(rng.NextInRange(8000, 9000));
      }
      Load("facts", specs, data);
    }
    // "dims": a small dimension table.
    {
      std::vector<storage::ColumnSpec> specs = {
          {"d_id", storage::ColumnKind::kInt32},
          {"d_name", storage::ColumnKind::kString},
          {"d_class", storage::ColumnKind::kInt32}};
      std::vector<storage::ColumnData> data(3);
      for (int i = 0; i < 500; ++i) {
        data[0].ints.push_back(i);
        data[1].strings.push_back("dim" + std::to_string(i));
        data[2].ints.push_back(i % 7);
      }
      Load("dims", specs, data);
    }
  }

  void Load(const std::string& name,
            const std::vector<storage::ColumnSpec>& specs,
            const std::vector<storage::ColumnData>& data) {
    storage::LoadOptions opts;
    opts.rows_per_chunk = 1024;
    auto table = storage::LoadTable(name, specs, data, opts);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    ASSERT_TRUE(engine_.Load(std::move(table).value()).ok());
    // Host gets an identical copy (re-encoded deterministically).
    auto copy = storage::LoadTable(name, specs, data, opts);
    host_catalog_.emplace(name, std::move(copy).value());
  }

  // Runs the plan on both engines and requires identical results.
  void CheckAgainstVolcano(const LogicalPtr& plan,
                           const ExecOptions& options = {}) {
    auto rapid_result = engine_.Execute(plan, options);
    ASSERT_TRUE(rapid_result.ok()) << rapid_result.status().ToString();
    auto host_result = hostdb::VolcanoExecutor::Execute(plan, host_catalog_);
    ASSERT_TRUE(host_result.ok()) << host_result.status().ToString();
    ExpectSameRows(rapid_result.value().rows, host_result.value());
  }

  int64_t DictCodeOf(const std::string& table, const std::string& column,
                     const std::string& value) {
    const storage::Table* t = engine_.GetTable(table);
    const size_t idx = t->schema().IndexOf(column).value();
    return t->dictionary(idx)->Lookup(value).value();
  }

  RapidEngine engine_;
  Catalog host_catalog_;
};

TEST_F(EngineTest, ScanWithoutPredicates) {
  CheckAgainstVolcano(LogicalNode::Scan("facts", {"f_id", "f_qty"}));
}

TEST_F(EngineTest, FilterConjunction) {
  CheckAgainstVolcano(LogicalNode::Scan(
      "facts", {"f_id", "f_price"},
      {Predicate::Between("f_day", 8100, 8200),
       Predicate::CmpConst("f_qty", CmpOp::kGe, 25)}));
}

TEST_F(EngineTest, HighlySelectiveFilterUsesRidPath) {
  CheckAgainstVolcano(LogicalNode::Scan(
      "facts", {"f_id"}, {Predicate::CmpConst("f_id", CmpOp::kEq, 12345)}));
}

TEST_F(EngineTest, DictionaryPredicates) {
  const int64_t blue = DictCodeOf("facts", "f_cat", "blue");
  CheckAgainstVolcano(LogicalNode::Scan(
      "facts", {"f_id", "f_cat"},
      {Predicate::CmpConst("f_cat", CmpOp::kEq, blue)}));

  BitVector set(4);
  set.Set(static_cast<size_t>(DictCodeOf("facts", "f_cat", "red")));
  set.Set(static_cast<size_t>(DictCodeOf("facts", "f_cat", "black")));
  CheckAgainstVolcano(LogicalNode::Scan("facts", {"f_id"},
                                        {Predicate::InSet("f_cat", set)}));
}

TEST_F(EngineTest, ProjectionArithmeticWithDsb) {
  auto scan = LogicalNode::Scan("facts", {"f_price", "f_qty"},
                                {Predicate::CmpConst("f_qty", CmpOp::kGt, 40)});
  auto project = LogicalNode::Project(
      scan,
      {{"gross", Expr::Mul(Expr::Col("f_price"), Expr::Col("f_qty"))},
       {"rebased", Expr::Sub(Expr::Col("f_price"), Expr::Dec(0.5, 2))}});
  CheckAgainstVolcano(project);
}

TEST_F(EngineTest, LowNdvGroupBy) {
  auto scan = LogicalNode::Scan("facts", {"f_cat", "f_qty", "f_price"});
  CheckAgainstVolcano(LogicalNode::GroupBy(
      scan, {{"f_cat", Expr::Col("f_cat")}},
      {{"n", AggFunc::kCount, nullptr, {}},
       {"total_qty", AggFunc::kSum, Expr::Col("f_qty"), {}},
       {"min_price", AggFunc::kMin, Expr::Col("f_price"), {}},
       {"max_price", AggFunc::kMax, Expr::Col("f_price"), {}}}));
}

TEST_F(EngineTest, HighNdvGroupByPartitioned) {
  ExecOptions options;
  options.planner.low_ndv_threshold = 100;  // force the partitioned path
  auto scan = LogicalNode::Scan("facts", {"f_dim", "f_qty"});
  auto plan = LogicalNode::GroupBy(
      scan, {{"f_dim", Expr::Col("f_dim")}},
      {{"s", AggFunc::kSum, Expr::Col("f_qty"), {}}});
  auto rapid_result = engine_.Execute(plan, options);
  ASSERT_TRUE(rapid_result.ok()) << rapid_result.status().ToString();
  auto host_result = hostdb::VolcanoExecutor::Execute(plan, host_catalog_);
  ASSERT_TRUE(host_result.ok());
  ExpectSameRows(rapid_result.value().rows, host_result.value());
}

TEST_F(EngineTest, GroupByWithFilterClause) {
  auto scan = LogicalNode::Scan("facts", {"f_cat", "f_qty"});
  CheckAgainstVolcano(LogicalNode::GroupBy(
      scan, {{"f_cat", Expr::Col("f_cat")}},
      {{"big", AggFunc::kCount, nullptr,
        std::make_shared<Predicate>(
            Predicate::CmpConst("f_qty", CmpOp::kGe, 25))},
       {"all", AggFunc::kCount, nullptr, {}}}));
}

TEST_F(EngineTest, ScalarAggregation) {
  auto scan = LogicalNode::Scan(
      "facts", {"f_price", "f_qty"},
      {Predicate::CmpConst("f_qty", CmpOp::kLt, 10)});
  CheckAgainstVolcano(LogicalNode::GroupBy(
      scan, {},
      {{"revenue", AggFunc::kSum,
        Expr::Mul(Expr::Col("f_price"), Expr::Col("f_qty")), {}}}));
}

TEST_F(EngineTest, InnerJoinFkShape) {
  auto facts = LogicalNode::Scan("facts", {"f_dim", "f_qty"});
  auto dims = LogicalNode::Scan("dims", {"d_id", "d_class"});
  CheckAgainstVolcano(LogicalNode::Join(dims, facts, {"d_id"}, {"f_dim"},
                                        {"d_class", "f_qty"}));
}

TEST_F(EngineTest, JoinThenGroupBy) {
  auto facts = LogicalNode::Scan("facts", {"f_dim", "f_price", "f_qty"});
  auto dims = LogicalNode::Scan("dims", {"d_id", "d_class"});
  auto join = LogicalNode::Join(dims, facts, {"d_id"}, {"f_dim"},
                                {"d_class", "f_price", "f_qty"});
  CheckAgainstVolcano(LogicalNode::GroupBy(
      join, {{"d_class", Expr::Col("d_class")}},
      {{"revenue", AggFunc::kSum,
        Expr::Mul(Expr::Col("f_price"), Expr::Col("f_qty")), {}}}));
}

TEST_F(EngineTest, SemiAndAntiJoins) {
  auto small = LogicalNode::Scan(
      "facts", {"f_dim"}, {Predicate::CmpConst("f_qty", CmpOp::kGe, 49)});
  auto dims = LogicalNode::Scan("dims", {"d_id", "d_class"});
  CheckAgainstVolcano(LogicalNode::Join(small, dims, {"f_dim"}, {"d_id"},
                                        {"d_id", "d_class"},
                                        JoinType::kSemi));
  CheckAgainstVolcano(LogicalNode::Join(small, dims, {"f_dim"}, {"d_id"},
                                        {"d_id", "d_class"},
                                        JoinType::kAnti));
}

TEST_F(EngineTest, LeftOuterJoinPreservesProbe) {
  // Dims 400.. have no matching facts rows below f_dim 500? They do;
  // instead filter facts to a narrow range so many dims stay
  // unmatched.
  auto facts = LogicalNode::Scan(
      "facts", {"f_dim", "f_qty"},
      {Predicate::CmpConst("f_dim", CmpOp::kLt, 50)});
  auto dims = LogicalNode::Scan("dims", {"d_id", "d_class"});
  CheckAgainstVolcano(LogicalNode::Join(facts, dims, {"f_dim"}, {"d_id"},
                                        {"f_qty", "d_id", "d_class"},
                                        JoinType::kLeftOuter));
}

TEST_F(EngineTest, FilterOnJoinOutput) {
  auto facts = LogicalNode::Scan("facts", {"f_dim", "f_qty"});
  auto dims = LogicalNode::Scan("dims", {"d_id", "d_class"});
  auto join = LogicalNode::Join(dims, facts, {"d_id"}, {"f_dim"},
                                {"d_class", "f_qty", "f_dim"});
  CheckAgainstVolcano(LogicalNode::Filter(
      join, {Predicate::CmpCol("d_class", CmpOp::kLt, "f_qty")},
      {"d_class", "f_qty"}));
}

TEST_F(EngineTest, SortAndTopK) {
  auto scan = LogicalNode::Scan(
      "facts", {"f_id", "f_qty"},
      {Predicate::CmpConst("f_id", CmpOp::kLt, 200)});
  // Sorted results must match exactly including order.
  auto sorted_plan =
      LogicalNode::Sort(scan, {{"f_qty", false}, {"f_id", true}});
  auto rapid_result = engine_.Execute(sorted_plan);
  ASSERT_TRUE(rapid_result.ok());
  auto host_result =
      hostdb::VolcanoExecutor::Execute(sorted_plan, host_catalog_);
  ASSERT_TRUE(host_result.ok());
  EXPECT_EQ(rapid::testing::Rows(rapid_result.value().rows),
            rapid::testing::Rows(host_result.value()));

  // TopK is a prefix of the sorted order; ties make the exact row set
  // ambiguous, so compare against the sorted prefix on the keys only.
  auto topk_plan = LogicalNode::TopK(scan, {{"f_qty", false}}, 10);
  auto topk = engine_.Execute(topk_plan);
  ASSERT_TRUE(topk.ok());
  ASSERT_EQ(topk.value().rows.num_rows(), 10u);
  auto host_sorted = hostdb::VolcanoExecutor::Execute(
      LogicalNode::Sort(scan, {{"f_qty", false}}), host_catalog_);
  ASSERT_TRUE(host_sorted.ok());
  for (size_t r = 0; r < 10; ++r) {
    EXPECT_EQ(topk.value().rows.Value(r, 1), host_sorted.value().Value(r, 1));
  }
}

TEST_F(EngineTest, SetOperations) {
  auto low = LogicalNode::Scan(
      "facts", {"f_dim"}, {Predicate::CmpConst("f_qty", CmpOp::kLt, 10)});
  auto high = LogicalNode::Scan(
      "facts", {"f_dim"}, {Predicate::CmpConst("f_qty", CmpOp::kGt, 40)});
  CheckAgainstVolcano(LogicalNode::SetOp(SetOpKind::kUnion, low, high));
  CheckAgainstVolcano(LogicalNode::SetOp(SetOpKind::kIntersect, low, high));
  CheckAgainstVolcano(LogicalNode::SetOp(SetOpKind::kMinus, low, high));
}

TEST_F(EngineTest, WindowFunctions) {
  auto scan = LogicalNode::Scan(
      "facts", {"f_cat", "f_qty", "f_id"},
      {Predicate::CmpConst("f_id", CmpOp::kLt, 100)});
  LogicalWindow rank;
  rank.func = WindowFunc::kRank;
  rank.partition_by = {"f_cat"};
  rank.order_by = {{"f_qty", false}};
  rank.output_name = "qty_rank";
  CheckAgainstVolcano(LogicalNode::Window(scan, {rank}));
}

TEST_F(EngineTest, NonVectorizedModeSameResults) {
  // Figure 13's ablation switch changes cycle accounting, never
  // results.
  ExecOptions scalar;
  scalar.vectorized = false;
  auto scan = LogicalNode::Scan("facts", {"f_cat", "f_qty"},
                                {Predicate::CmpConst("f_qty", CmpOp::kGe, 20)});
  auto plan = LogicalNode::GroupBy(
      scan, {{"f_cat", Expr::Col("f_cat")}},
      {{"s", AggFunc::kSum, Expr::Col("f_qty"), {}}});
  auto vec = engine_.Execute(plan);
  auto novec = engine_.Execute(plan, scalar);
  ASSERT_TRUE(vec.ok());
  ASSERT_TRUE(novec.ok());
  ExpectSameRows(vec.value().rows, novec.value().rows);
  // The scalar run must model more cycles.
  EXPECT_GT(novec.value().stats.modeled_seconds,
            vec.value().stats.modeled_seconds);
}

TEST_F(EngineTest, StatsArePopulated) {
  auto scan = LogicalNode::Scan("facts", {"f_qty"});
  auto plan = LogicalNode::GroupBy(
      scan, {}, {{"s", AggFunc::kSum, Expr::Col("f_qty"), {}}});
  auto result = engine_.Execute(plan);
  ASSERT_TRUE(result.ok());
  const ExecutionStats& stats = result.value().stats;
  EXPECT_GT(stats.modeled_seconds, 0);
  EXPECT_GT(stats.wall_seconds, 0);
  EXPECT_EQ(stats.workload.scanned_rows, 20000u);
  EXPECT_FALSE(stats.steps.empty());
  EXPECT_FALSE(result.value().plan_text.empty());
}

TEST_F(EngineTest, UpdatesVisibleAfterApply) {
  // Baseline count of f_qty == 50.
  auto count_plan = LogicalNode::GroupBy(
      LogicalNode::Scan("facts", {"f_qty"},
                        {Predicate::CmpConst("f_qty", CmpOp::kEq, 50)}),
      {}, {{"n", AggFunc::kCount, nullptr, {}}});
  auto before = engine_.Execute(count_plan);
  ASSERT_TRUE(before.ok());
  const int64_t n_before = before.value().rows.num_rows() > 0
                               ? before.value().rows.Value(0, 0)
                               : 0;

  // Rewrite row 0 to qty 50 (keeping other columns).
  const storage::Table* t = engine_.GetTable("facts");
  std::vector<int64_t> row0;
  for (size_t c = 0; c < t->schema().num_fields(); ++c) {
    row0.push_back(t->partition(0).chunk(0).column(c).GetInt(0));
  }
  row0[4] = 50;  // f_qty
  ASSERT_OK(engine_.ApplyUpdate("facts", t->scn() + 1,
                                {storage::RowChange{0, row0}}));

  auto after = engine_.Execute(count_plan);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().rows.Value(0, 0), n_before + 1);
  // Tracker resolves the new version at a current SCN but not before.
  const storage::Tracker* tracker = engine_.tracker("facts");
  ASSERT_NE(tracker, nullptr);
  EXPECT_EQ(tracker->Resolve(t->scn(), 0, 4).value(), 50);
}

TEST_F(EngineTest, GroupByRuntimeRepartition) {
  // Force tiny partition budgets: every high-NDV partition exceeds the
  // estimate and must re-partition at runtime (Section 5.4), with
  // identical results.
  ExecOptions options;
  options.planner.low_ndv_threshold = 100;  // high-NDV path
  options.planner.groupby_max_partition_rows = 64;
  auto plan = LogicalNode::GroupBy(
      LogicalNode::Scan("facts", {"f_dim", "f_qty"}),
      {{"f_dim", Expr::Col("f_dim")}},
      {{"s", AggFunc::kSum, Expr::Col("f_qty"), {}},
       {"n", AggFunc::kCount, nullptr, {}}});
  auto repartitioned = engine_.Execute(plan, options);
  ASSERT_TRUE(repartitioned.ok()) << repartitioned.status().ToString();
  EXPECT_GT(repartitioned.value().stats.workload.groupby_repartitions, 0u);
  auto host_result = hostdb::VolcanoExecutor::Execute(plan, host_catalog_);
  ASSERT_TRUE(host_result.ok());
  ExpectSameRows(repartitioned.value().rows, host_result.value());
}

TEST_F(EngineTest, VacuumReclaimsSupersededVersions) {
  const storage::Table* t = engine_.GetTable("facts");
  std::vector<int64_t> row0;
  for (size_t c = 0; c < t->schema().num_fields(); ++c) {
    row0.push_back(t->partition(0).chunk(0).column(c).GetInt(0));
  }
  const uint64_t base = t->scn();
  ASSERT_OK(engine_.ApplyUpdate("facts", base + 1,
                                {storage::RowChange{7, row0}}));
  ASSERT_OK(engine_.ApplyUpdate("facts", base + 2,
                                {storage::RowChange{7, row0}}));
  // The base+1 version expired at base+2; with no query older than
  // base+2 it can be reclaimed.
  EXPECT_EQ(engine_.VacuumTrackers(base + 2), 1u);
  EXPECT_EQ(engine_.VacuumTrackers(base + 2), 0u);
}

TEST_F(EngineTest, FusedPipelineMatchesUnfused) {
  // The fused broadcast-probe pipeline must be row-identical to the
  // materialize/partition/join path on every join flavor, and must
  // move strictly fewer modeled DMS cycles (it skips materializing the
  // scan output and both partition passes).
  ExecOptions unfused;
  unfused.planner.enable_fusion = false;

  std::vector<LogicalPtr> plans;
  auto facts = LogicalNode::Scan("facts", {"f_dim", "f_qty"});
  auto dims = LogicalNode::Scan("dims", {"d_id", "d_class"});
  plans.push_back(LogicalNode::Join(dims, facts, {"d_id"}, {"f_dim"},
                                    {"d_class", "f_qty"}));
  auto filtered = LogicalNode::Scan(
      "facts", {"f_dim", "f_qty"},
      {Predicate::CmpConst("f_qty", CmpOp::kGe, 25)});
  plans.push_back(LogicalNode::Join(dims, filtered, {"d_id"}, {"f_dim"},
                                    {"d_class", "f_qty"},
                                    JoinType::kInner));
  plans.push_back(LogicalNode::Join(dims, facts, {"d_id"}, {"f_dim"},
                                    {"f_dim", "f_qty"}, JoinType::kSemi));
  plans.push_back(LogicalNode::Join(dims, facts, {"d_id"}, {"f_dim"},
                                    {"f_dim", "f_qty"}, JoinType::kAnti));
  // Left outer: the build side (left) is filtered far below the probe
  // side so the broadcast-cost gate admits it (32 cores re-reading the
  // build must cost less than the partition passes it replaces);
  // unmatched dims take nulls.
  auto small_facts = LogicalNode::Scan(
      "facts", {"f_dim", "f_qty"},
      {Predicate::CmpConst("f_id", CmpOp::kLt, 10)});
  plans.push_back(LogicalNode::Join(small_facts, dims, {"f_dim"}, {"d_id"},
                                    {"f_qty", "d_id", "d_class"},
                                    JoinType::kLeftOuter));

  for (const LogicalPtr& plan : plans) {
    auto fused_result = engine_.Execute(plan);
    ASSERT_TRUE(fused_result.ok()) << fused_result.status().ToString();
    auto unfused_result = engine_.Execute(plan, unfused);
    ASSERT_TRUE(unfused_result.ok()) << unfused_result.status().ToString();
    ASSERT_NE(fused_result.value().plan_text.find("PIPELINE"),
              std::string::npos)
        << fused_result.value().plan_text;
    ASSERT_EQ(unfused_result.value().plan_text.find("PIPELINE"),
              std::string::npos);
    ExpectSameRows(fused_result.value().rows, unfused_result.value().rows);
    EXPECT_LT(fused_result.value().stats.total_dms_cycles,
              unfused_result.value().stats.total_dms_cycles)
        << fused_result.value().plan_text;
  }
}

// A chain with a probe stage halves its DMEM budget, so it moves
// smaller tiles than its plan text prints; ExplainAnalyze reports the
// tile it ran beside the planned one.
TEST_F(EngineTest, ExplainAnalyzeReportsTheTileAProbingChainRan) {
  auto dims = LogicalNode::Scan("dims", {"d_id", "d_class"});
  auto filtered = LogicalNode::Scan(
      "facts", {"f_dim", "f_qty"},
      {Predicate::CmpConst("f_qty", CmpOp::kGe, 25)});
  ASSERT_OK_AND_ASSIGN(
      std::string text,
      engine_.ExplainAnalyze(LogicalNode::Join(dims, filtered, {"d_id"},
                                               {"f_dim"}, {"d_class", "f_qty"},
                                               JoinType::kInner)));
  const size_t at = text.find("PIPELINE scan facts");
  ASSERT_NE(at, std::string::npos) << text;
  const std::string line = text.substr(at, text.find('\n', at) - at);
  EXPECT_NE(line.find(" tile=512 "), std::string::npos) << line;
  EXPECT_NE(line.find(" ran_tile=128)"), std::string::npos) << line;
  // The dims scan runs the tile its plan prints.
  EXPECT_EQ(text.find("ran_tile="), text.rfind("ran_tile=")) << text;
}

TEST_F(EngineTest, FusedJoinThenGroupBy) {
  // A breaker (group-by) downstream of a fused probe pipeline: the
  // pipeline materializes once, the group-by consumes it.
  auto facts = LogicalNode::Scan("facts", {"f_dim", "f_price", "f_qty"});
  auto dims = LogicalNode::Scan("dims", {"d_id", "d_class"});
  auto join = LogicalNode::Join(dims, facts, {"d_id"}, {"f_dim"},
                                {"d_class", "f_price", "f_qty"});
  auto plan = LogicalNode::GroupBy(
      join, {{"d_class", Expr::Col("d_class")}},
      {{"revenue", AggFunc::kSum,
        Expr::Mul(Expr::Col("f_price"), Expr::Col("f_qty")), {}}});
  auto result = engine_.Execute(plan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result.value().plan_text.find("PIPELINE"), std::string::npos)
      << result.value().plan_text;
  auto host_result = hostdb::VolcanoExecutor::Execute(plan, host_catalog_);
  ASSERT_TRUE(host_result.ok());
  ExpectSameRows(result.value().rows, host_result.value());
}

TEST_F(EngineTest, EmptyResultQueries) {
  CheckAgainstVolcano(LogicalNode::Scan(
      "facts", {"f_id"}, {Predicate::CmpConst("f_id", CmpOp::kLt, -1)}));
  // Join with an empty side.
  auto none = LogicalNode::Scan(
      "facts", {"f_dim"}, {Predicate::CmpConst("f_id", CmpOp::kLt, -1)});
  auto dims = LogicalNode::Scan("dims", {"d_id"});
  CheckAgainstVolcano(
      LogicalNode::Join(none, dims, {"f_dim"}, {"d_id"}, {"d_id"}));
}

// A scan that matches no row still reports its columns' types, DSB
// scales and dictionaries: the output schema comes from the table,
// not from the morsels that happened to produce rows. Checked fused
// and unfused: names, types and scales against Volcano, dictionaries
// against the engine's table (Volcano results carry none).
TEST_F(EngineTest, EmptyScanKeepsColumnMetas) {
  auto plan = LogicalNode::Scan(
      "facts", {"f_id", "f_price", "f_cat", "f_day"},
      {Predicate::CmpConst("f_qty", CmpOp::kGt, 100)});
  auto host = hostdb::VolcanoExecutor::Execute(plan, host_catalog_);
  ASSERT_TRUE(host.ok()) << host.status().ToString();
  const ColumnSet& want = host.value();
  ASSERT_EQ(want.num_rows(), 0u);
  ASSERT_EQ(want.meta(1).type, storage::DataType::kDecimal);
  for (const bool fusion : {true, false}) {
    ExecOptions options;
    options.planner.enable_fusion = fusion;
    auto result = engine_.Execute(plan, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const ColumnSet& got = result.value().rows;
    EXPECT_EQ(got.num_rows(), 0u);
    ASSERT_EQ(got.num_columns(), want.num_columns());
    for (size_t c = 0; c < want.num_columns(); ++c) {
      const std::string what =
          want.meta(c).name + (fusion ? " fused" : " unfused");
      EXPECT_EQ(got.meta(c).name, want.meta(c).name) << what;
      EXPECT_EQ(got.meta(c).type, want.meta(c).type) << what;
      EXPECT_EQ(got.meta(c).dsb_scale, want.meta(c).dsb_scale) << what;
      const storage::Table* table = engine_.GetTable("facts");
      EXPECT_EQ(got.meta(c).dict,
                table->dictionary(
                    table->schema().IndexOf(want.meta(c).name).value()))
          << what;
    }
  }
}

// An empty result reports the metas a full one would: each output
// column's type and scale derive from the input's metas, never from the
// tiles that happened to carry rows. Derived group keys, aggregates
// over expressions and projections of expressions, over a scan no row
// passes: names, types and scales against Volcano, fused and unfused,
// under the low- and the high-NDV group-by strategy.
TEST_F(EngineTest, EmptyResultsKeepDerivedMetas) {
  const auto none = [](std::vector<std::string> columns) {
    return LogicalNode::Scan("facts", std::move(columns),
                             {Predicate::CmpConst("f_qty", CmpOp::kGt, 100)});
  };
  const std::vector<std::string> cols = {"f_dim", "f_price", "f_qty", "f_day"};
  const ExprPtr gross = Expr::Mul(Expr::Col("f_price"), Expr::Col("f_qty"));
  const ExprPtr rebased = Expr::Add(Expr::Col("f_price"), Expr::Dec(0.5, 1));
  const std::vector<AggSpec> aggs = {
      {"sum_gross", AggFunc::kSum, gross, {}},
      {"max_rebased", AggFunc::kMax, rebased, {}},
      {"min_price", AggFunc::kMin, Expr::Col("f_price"), {}},
      {"cnt", AggFunc::kCount, nullptr, {}}};
  const std::vector<std::pair<std::string, ExprPtr>> projections = {
      {"gross", gross}, {"rebased", rebased}, {"f_day", Expr::Col("f_day")}};
  const std::vector<std::pair<std::string, LogicalPtr>> plans = {
      {"keyed", LogicalNode::GroupBy(none(cols),
                                     {{"f_dim", Expr::Col("f_dim")}}, aggs)},
      {"expression key",
       LogicalNode::GroupBy(none(cols),
                            {{"k", rebased}, {"f_day", Expr::Col("f_day")}},
                            aggs)},
      // Keyless over no rows, only COUNTs have a value (no NULL).
      {"keyless",
       LogicalNode::GroupBy(none(cols), {},
                            {{"cnt", AggFunc::kCount, nullptr, {}},
                             {"cnt_gross", AggFunc::kCount, gross, {}}})},
      {"scan project", LogicalNode::Project(none(cols), projections)},
      {"join project",
       LogicalNode::Project(
           LogicalNode::Join(none(cols), LogicalNode::Scan("dims", {"d_id"}),
                             {"f_dim"}, {"d_id"},
                             {"f_price", "f_qty", "f_day"}),
           projections)}};
  for (const auto& [name, plan] : plans) {
    auto host = hostdb::VolcanoExecutor::Execute(plan, host_catalog_);
    ASSERT_TRUE(host.ok()) << name << ": " << host.status().ToString();
    const ColumnSet& want = host.value();
    for (const bool fusion : {true, false}) {
      for (const size_t low_ndv_threshold : {size_t{8192}, size_t{0}}) {
        ExecOptions options;
        options.planner.enable_fusion = fusion;
        options.planner.low_ndv_threshold = low_ndv_threshold;
        auto result = engine_.Execute(plan, options);
        ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
        const ColumnSet& got = result.value().rows;
        EXPECT_EQ(got.num_rows(), want.num_rows()) << name;
        ASSERT_EQ(got.num_columns(), want.num_columns()) << name;
        for (size_t c = 0; c < want.num_columns(); ++c) {
          const std::string what = name + " " + want.meta(c).name +
                                   (fusion ? " fused" : " unfused") +
                                   " threshold " +
                                   std::to_string(low_ndv_threshold);
          EXPECT_EQ(got.meta(c).name, want.meta(c).name) << what;
          EXPECT_EQ(got.meta(c).type, want.meta(c).type) << what;
          EXPECT_EQ(got.meta(c).dsb_scale, want.meta(c).dsb_scale) << what;
        }
      }
    }
  }
}

}  // namespace
}  // namespace rapid::core
