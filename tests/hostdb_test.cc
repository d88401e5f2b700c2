// Tests for the System X substrate: SCN journal and admissibility,
// checkpointing into RAPID trackers, offload planning (full / partial
// / none), the RAPID placeholder operator with fallback, and the
// end-to-end HostDatabase query path.

#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "hostdb/database.h"
#include "hostdb/journal.h"
#include "hostdb/offload.h"
#include "tests/test_util.h"

namespace rapid::hostdb {
namespace {

using core::AggFunc;
using core::Expr;
using core::LogicalNode;
using core::LogicalPtr;
using core::Predicate;
using primitives::CmpOp;
using rapid::testing::ExpectSameRows;

std::pair<std::vector<storage::ColumnSpec>, std::vector<storage::ColumnData>>
SmallTable(int rows, int64_t value_offset = 0) {
  std::vector<storage::ColumnSpec> specs = {
      {"id", storage::ColumnKind::kInt64},
      {"v", storage::ColumnKind::kInt32}};
  std::vector<storage::ColumnData> data(2);
  for (int i = 0; i < rows; ++i) {
    data[0].ints.push_back(i);
    data[1].ints.push_back(value_offset + i % 10);
  }
  return {specs, data};
}

class HostDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto [specs, data] = SmallTable(5000);
    ASSERT_OK(host_.CreateTable("t", specs, data));
    ASSERT_OK(host_.LoadToRapid("t", &engine_));
  }

  LogicalPtr SumPlan() {
    return LogicalNode::GroupBy(
        LogicalNode::Scan("t", {"v"},
                          {Predicate::CmpConst("v", CmpOp::kLt, 5)}),
        {}, {{"s", AggFunc::kSum, Expr::Col("v"), {}}});
  }

  HostDatabase host_;
  // Pinned to the paper's 32-core DPU: offload decisions are
  // cost-based and must not flip under a RAPID_CORES override.
  core::RapidEngine engine_{dpu::DpuConfig{}};
};

// ---- Journal / admissibility -------------------------------------------

TEST_F(HostDbTest, JournalAdmissibility) {
  ScnJournal& journal = host_.journal();
  const uint64_t scn0 = journal.current_scn();
  EXPECT_TRUE(journal.Admissible("t", scn0));

  // An update creates a pending journal entry: queries at or after its
  // SCN are inadmissible until checkpointed.
  ASSERT_OK(host_.Update("t", {storage::RowChange{1, {1, 99}}}));
  const uint64_t scn1 = journal.current_scn();
  EXPECT_FALSE(journal.Admissible("t", scn1));
  EXPECT_TRUE(journal.Admissible("t", scn1 - 1));  // older query: fine
  EXPECT_EQ(journal.PendingCount("t"), 1u);

  ASSERT_OK(host_.Checkpoint(&engine_));
  EXPECT_TRUE(journal.Admissible("t", scn1));
  EXPECT_EQ(journal.PendingCount("t"), 0u);
  // The change reached RAPID's table and tracker.
  EXPECT_EQ(engine_.GetTable("t")->scn(), scn1);
  EXPECT_EQ(engine_.tracker("t")->Resolve(scn1, 1, 1).value(), 99);
}

TEST_F(HostDbTest, UpdateAppliesToHostTableInPlace) {
  ASSERT_OK(host_.Update("t", {storage::RowChange{10, {10, 77}}}));
  const storage::Table* t = host_.GetTable("t");
  // Row 10 lives in chunk 0 (2048 rows/chunk default).
  EXPECT_EQ(t->partition(0).chunk(0).column(1).GetInt(10), 77);
}

// ---- Offload planning ----------------------------------------------------

TEST_F(HostDbTest, FullOffloadWhenLoaded) {
  OffloadPlanner planner(engine_.dpu().config(), engine_.dpu().params());
  const OffloadDecision d =
      planner.Decide(SumPlan(), engine_, host_.catalog());
  EXPECT_EQ(d.kind, OffloadDecision::Kind::kFull);
  EXPECT_GT(d.local_seconds, d.rapid_seconds);
}

TEST_F(HostDbTest, NoOffloadWhenTableMissing) {
  auto [specs, data] = SmallTable(100);
  ASSERT_OK(host_.CreateTable("unloaded", specs, data));
  OffloadPlanner planner(engine_.dpu().config(), engine_.dpu().params());
  auto plan = LogicalNode::Scan("unloaded", {"v"});
  const OffloadDecision d = planner.Decide(plan, engine_, host_.catalog());
  EXPECT_EQ(d.kind, OffloadDecision::Kind::kNone);
}

TEST_F(HostDbTest, PartialOffloadPicksLoadedSubtree) {
  // Join between a loaded and an unloaded table: only the loaded
  // subtree can offload.
  auto [specs, data] = SmallTable(100);
  ASSERT_OK(host_.CreateTable("unloaded", specs, data));
  auto loaded = LogicalNode::Scan("t", {"id", "v"});
  auto missing = LogicalNode::Scan("unloaded", {"id", "v"});
  auto join =
      LogicalNode::Join(missing, loaded, {"id"}, {"id"}, {"v"});
  OffloadPlanner planner(engine_.dpu().config(), engine_.dpu().params());
  const OffloadDecision d = planner.Decide(join, engine_, host_.catalog());
  EXPECT_EQ(d.kind, OffloadDecision::Kind::kPartial);
  ASSERT_EQ(d.fragments.size(), 1u);
  EXPECT_EQ(d.fragments[0]->table, "t");
}

TEST_F(HostDbTest, MultiFragmentPartialOffload) {
  // Two loaded subtrees under an unloaded join: both must become
  // placeholders ("one or many place holder node(s)").
  auto [specs, data] = SmallTable(100);
  ASSERT_OK(host_.CreateTable("unloaded", specs, data));
  ASSERT_OK(host_.CreateTable("t2", specs, data));
  ASSERT_OK(host_.LoadToRapid("t2", &engine_));

  auto loaded1 = LogicalNode::Scan(
      "t", {"id", "v"}, {Predicate::CmpConst("v", CmpOp::kLt, 4)});
  auto loaded2 = LogicalNode::Scan("t2", {"id", "v"});
  auto lower = LogicalNode::Join(loaded1, LogicalNode::Scan("unloaded",
                                                            {"id"}),
                                 {"id"}, {"id"}, {"id", "v"});
  auto plan = LogicalNode::Join(loaded2, lower, {"id"}, {"id"}, {"v", "id"});

  OffloadPlanner planner(engine_.dpu().config(), engine_.dpu().params());
  const OffloadDecision d = planner.Decide(plan, engine_, host_.catalog());
  EXPECT_EQ(d.kind, OffloadDecision::Kind::kPartial);
  EXPECT_EQ(d.fragments.size(), 2u);

  ASSERT_OK_AND_ASSIGN(QueryReport report, host_.ExecuteQuery(plan, &engine_));
  EXPECT_TRUE(report.offloaded);
  ASSERT_OK_AND_ASSIGN(core::ColumnSet local, host_.ExecuteLocal(plan));
  ExpectSameRows(report.rows, local);
}

TEST_F(HostDbTest, BackgroundCheckpointerPropagates) {
  using namespace std::chrono_literals;
  host_.StartBackgroundCheckpointer(&engine_, 5ms);
  ASSERT_OK(host_.Update("t", {storage::RowChange{4, {4, 64}}}));
  // Wait for the background thread to drain the journal.
  for (int i = 0; i < 200 && host_.journal().PendingCount("t") > 0; ++i) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(host_.journal().PendingCount("t"), 0u);
  host_.StopBackgroundCheckpointer();
  // The change reached RAPID.
  const storage::Table* t = engine_.GetTable("t");
  EXPECT_EQ(t->partition(0).chunk(0).column(1).GetInt(4), 64);
}

TEST_F(HostDbTest, CollectTablesFindsAllScans) {
  auto join = LogicalNode::Join(LogicalNode::Scan("a", {"x"}),
                                LogicalNode::Scan("b", {"x"}), {"x"}, {"x"},
                                {"x"});
  std::vector<std::string> tables;
  OffloadPlanner::CollectTables(join, &tables);
  EXPECT_EQ(tables, (std::vector<std::string>{"a", "b"}));
}

// ---- ExecuteQuery end to end ---------------------------------------------

TEST_F(HostDbTest, FullOffloadExecutesOnRapid) {
  ASSERT_OK_AND_ASSIGN(QueryReport report,
                       host_.ExecuteQuery(SumPlan(), &engine_));
  EXPECT_EQ(report.decision, OffloadDecision::Kind::kFull);
  EXPECT_TRUE(report.offloaded);
  EXPECT_FALSE(report.fell_back);
  EXPECT_GT(report.rapid_modeled_seconds, 0);
  // Result matches local execution.
  ASSERT_OK_AND_ASSIGN(core::ColumnSet local, host_.ExecuteLocal(SumPlan()));
  ExpectSameRows(report.rows, local);
}

TEST_F(HostDbTest, PendingChangesForceFallback) {
  // An unpropagated change makes the query inadmissible; the RAPID
  // operator must fall back to System-X-only execution and still
  // return correct (host-fresh) results.
  ASSERT_OK(host_.Update("t", {storage::RowChange{2, {2, 3}}}));
  ASSERT_OK_AND_ASSIGN(QueryReport report,
                       host_.ExecuteQuery(SumPlan(), &engine_));
  EXPECT_TRUE(report.fell_back);
  EXPECT_FALSE(report.offloaded);
  ASSERT_OK_AND_ASSIGN(core::ColumnSet local, host_.ExecuteLocal(SumPlan()));
  ExpectSameRows(report.rows, local);

  // After checkpointing, offload resumes.
  ASSERT_OK(host_.Checkpoint(&engine_));
  ASSERT_OK_AND_ASSIGN(QueryReport after,
                       host_.ExecuteQuery(SumPlan(), &engine_));
  EXPECT_TRUE(after.offloaded);
  // And RAPID sees the updated value.
  ExpectSameRows(after.rows, local);
}

TEST_F(HostDbTest, RowNamedTwiceInOneBatchKeepsSecondValue) {
  // One batch changes row 7 twice: both engines must end on the second
  // value, as if the changes were applied one after the other.
  ASSERT_OK(host_.Update("t", {storage::RowChange{7, {7, 1}},
                               storage::RowChange{8, {8, 5}},
                               storage::RowChange{7, {7, 2}}}));
  ASSERT_OK(host_.Checkpoint(&engine_));
  const uint64_t scn = host_.journal().current_scn();
  EXPECT_EQ(engine_.tracker("t")->Resolve(scn, 7, 1).value(), 2);

  auto plan = LogicalNode::Scan("t", {"id", "v"},
                                {Predicate::CmpConst("id", CmpOp::kEq, 7)});
  ASSERT_OK_AND_ASSIGN(QueryReport report, host_.ExecuteQuery(plan, &engine_));
  EXPECT_TRUE(report.offloaded);
  ASSERT_EQ(report.rows.num_rows(), 1u);
  EXPECT_EQ(report.rows.Value(0, 1), 2);
  ASSERT_OK_AND_ASSIGN(core::ColumnSet local, host_.ExecuteLocal(plan));
  ASSERT_EQ(local.num_rows(), 1u);
  EXPECT_EQ(local.Value(0, 1), 2);
}

TEST_F(HostDbTest, PartialOffloadProducesCorrectJoin) {
  auto [specs, data] = SmallTable(300, 100);
  ASSERT_OK(host_.CreateTable("unloaded", specs, data));
  auto loaded = LogicalNode::Scan(
      "t", {"id", "v"}, {Predicate::CmpConst("v", CmpOp::kLt, 3)});
  auto missing = LogicalNode::Scan("unloaded", {"id"});
  auto join = LogicalNode::Join(loaded, missing, {"id"}, {"id"}, {"id", "v"});
  ASSERT_OK_AND_ASSIGN(QueryReport report,
                       host_.ExecuteQuery(join, &engine_));
  EXPECT_EQ(report.decision, OffloadDecision::Kind::kPartial);
  ASSERT_OK_AND_ASSIGN(core::ColumnSet local, host_.ExecuteLocal(join));
  ExpectSameRows(report.rows, local);
}

TEST_F(HostDbTest, LoadToRapidReflectsPriorUpdates) {
  // Update before loading a second engine: LOAD must ship current
  // content.
  ASSERT_OK(host_.Update("t", {storage::RowChange{3, {3, 42}}}));
  core::RapidEngine engine2;
  ASSERT_OK(host_.LoadToRapid("t", &engine2));
  const storage::Table* t = engine2.GetTable("t");
  EXPECT_EQ(t->partition(0).chunk(0).column(1).GetInt(3), 42);
}

TEST_F(HostDbTest, DictionariesEncodeIdenticallyAcrossEngines) {
  std::vector<storage::ColumnSpec> specs = {
      {"s", storage::ColumnKind::kString}};
  std::vector<storage::ColumnData> data(1);
  data[0].strings = {"zeta", "alpha", "zeta", "mid"};
  ASSERT_OK(host_.CreateTable("strs", specs, data));
  ASSERT_OK(host_.LoadToRapid("strs", &engine_));
  const storage::Table* h = host_.GetTable("strs");
  const storage::Table* r = engine_.GetTable("strs");
  for (const char* v : {"zeta", "alpha", "mid"}) {
    EXPECT_EQ(h->dictionary(0)->Lookup(v).value(),
              r->dictionary(0)->Lookup(v).value());
  }
}

TEST_F(HostDbTest, VolcanoIteratorLifecycle) {
  // Exercise the pull-based interface directly: start/fetch/close.
  auto plan = LogicalNode::Scan(
      "t", {"id"}, {Predicate::CmpConst("id", CmpOp::kLt, 3)});
  ASSERT_OK_AND_ASSIGN(IteratorPtr it,
                       VolcanoExecutor::Build(plan, host_.catalog()));
  ASSERT_OK(it->Start());
  Row row;
  int rows = 0;
  for (;;) {
    auto more = it->Fetch(&row);
    ASSERT_TRUE(more.ok());
    if (!more.value()) break;
    ++rows;
  }
  it->Close();
  EXPECT_EQ(rows, 3);
}

TEST_F(HostDbTest, MissingTableErrors) {
  EXPECT_FALSE(host_.LoadToRapid("nope", &engine_).ok());
  EXPECT_FALSE(host_.Update("nope", {}).ok());
  auto plan = LogicalNode::Scan("nope", {"x"});
  EXPECT_FALSE(host_.ExecuteLocal(plan).ok());
}

}  // namespace
}  // namespace rapid::hostdb
