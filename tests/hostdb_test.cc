// Tests for the System X substrate: SCN journal and admissibility,
// checkpointing into RAPID trackers, offload planning (full / partial
// / none), the RAPID placeholder operator with fallback, and the
// end-to-end HostDatabase query path.

#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "common/config.h"
#include "core/engine.h"
#include "hostdb/database.h"
#include "hostdb/journal.h"
#include "hostdb/offload.h"
#include "storage/encoding_stack.h"
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

TEST_F(HostDbTest, RejectedBatchChangesNothing) {
  // Row 3 is valid, row 100000 is not: the whole batch is refused
  // before any cell is written, no SCN is consumed, nothing is
  // journaled, and the offloaded and local answers stay the same.
  const storage::Table* t = host_.GetTable("t");
  const int64_t before = t->partition(0).chunk(0).column(1).GetInt(3);
  const uint64_t scn = host_.journal().current_scn();
  const Status st = host_.Update("t", {{3, {3, 42}}, {100000, {0, 0}}});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(t->partition(0).chunk(0).column(1).GetInt(3), before);
  EXPECT_EQ(t->scn(), scn);
  EXPECT_EQ(host_.journal().current_scn(), scn);
  EXPECT_EQ(host_.journal().PendingCount("t"), 0u);

  ASSERT_OK(host_.Checkpoint(&engine_));
  const auto plan = LogicalNode::Scan(
      "t", {"id", "v"}, {Predicate::CmpConst("id", CmpOp::kEq, 3)});
  ASSERT_OK_AND_ASSIGN(QueryReport report, host_.ExecuteQuery(plan, &engine_));
  EXPECT_TRUE(report.offloaded);
  ASSERT_OK_AND_ASSIGN(core::ColumnSet local, host_.ExecuteLocal(plan));
  ASSERT_EQ(local.num_rows(), 1u);
  EXPECT_EQ(local.Value(0, 1), before);
  ExpectSameRows(report.rows, local);
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

TEST_F(HostDbTest, MultiFragmentReportSumsEveryPlaceholdersStats) {
  // Two resident subtrees under a join with an unloaded table give two
  // placeholders; the report's stats must be their sum, equal to the
  // two fragments run alone, not the first placeholder's stats.
  ScopedConfig encoded(&Config::encoded_scan, EncodedScanMode::kAuto);
  std::vector<storage::ColumnSpec> specs = {
      {"id", storage::ColumnKind::kInt64},
      {"v", storage::ColumnKind::kInt32}};
  std::vector<storage::ColumnData> data(2);
  for (int i = 0; i < 4096; ++i) {
    data[0].ints.push_back(i);
    data[1].ints.push_back(i / 512);  // long runs: RLE-encoded vectors
  }
  for (const char* name : {"r1", "r2"}) {
    ASSERT_OK(host_.CreateTable(name, specs, data));
    ASSERT_OK(host_.LoadToRapid(name, &engine_));
  }
  auto [small_specs, small_data] = SmallTable(3000);
  ASSERT_OK(host_.CreateTable("unloaded", small_specs, small_data));

  auto lower = LogicalNode::Join(
      LogicalNode::Scan("r1", {"id", "v"},
                        {Predicate::CmpConst("v", CmpOp::kLt, 3)}),
      LogicalNode::Scan("unloaded", {"id"}), {"id"}, {"id"}, {"id", "v"});
  auto plan = LogicalNode::Join(
      LogicalNode::Scan("r2", {"id", "v"},
                        {Predicate::CmpConst("v", CmpOp::kGe, 2)}),
      lower, {"id"}, {"id"}, {"v", "id"});
  OffloadPlanner planner(engine_.dpu().config(), engine_.dpu().params());
  const OffloadDecision d = planner.Decide(plan, engine_, host_.catalog());
  ASSERT_EQ(d.kind, OffloadDecision::Kind::kPartial);
  ASSERT_EQ(d.fragments.size(), 2u);

  double modeled_seconds = 0;
  uint64_t encoded_bytes = 0;
  uint64_t plain_bytes = 0;
  for (const LogicalPtr& fragment : d.fragments) {
    ASSERT_OK_AND_ASSIGN(core::QueryResult alone, engine_.Execute(fragment));
    EXPECT_GT(alone.stats.modeled_seconds, 0);
    EXPECT_GT(alone.stats.encoded_bytes_moved, 0u);
    modeled_seconds += alone.stats.modeled_seconds;
    encoded_bytes += alone.stats.encoded_bytes_moved;
    plain_bytes += alone.stats.plain_bytes_moved;
  }

  ASSERT_OK_AND_ASSIGN(QueryReport report, host_.ExecuteQuery(plan, &engine_));
  EXPECT_TRUE(report.offloaded);
  EXPECT_FALSE(report.fell_back);
  EXPECT_DOUBLE_EQ(report.rapid_stats.modeled_seconds, modeled_seconds);
  EXPECT_EQ(report.rapid_stats.encoded_bytes_moved, encoded_bytes);
  EXPECT_EQ(report.rapid_stats.plain_bytes_moved, plain_bytes);
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
  EXPECT_GT(report.rapid_stats.modeled_seconds, 0);
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

// Every cell, stat, encoding and dictionary code of `got` equals
// `want`'s (the load-time SCN aside).
void ExpectSameTable(const storage::Table& want, const storage::Table& got) {
  ASSERT_EQ(got.schema().num_fields(), want.schema().num_fields());
  ASSERT_EQ(got.num_partitions(), want.num_partitions());
  EXPECT_EQ(got.rows_per_chunk(), want.rows_per_chunk());
  for (size_t p = 0; p < want.num_partitions(); ++p) {
    ASSERT_EQ(got.partition(p).num_chunks(), want.partition(p).num_chunks());
    for (size_t ch = 0; ch < want.partition(p).num_chunks(); ++ch) {
      const storage::Chunk& w = want.partition(p).chunk(ch);
      const storage::Chunk& g = got.partition(p).chunk(ch);
      ASSERT_EQ(g.num_rows(), w.num_rows());
      for (size_t c = 0; c < w.num_columns(); ++c) {
        EXPECT_EQ(g.column(c).dsb_scale(), w.column(c).dsb_scale());
        for (size_t r = 0; r < w.num_rows(); ++r) {
          ASSERT_EQ(g.column(c).GetInt(r), w.column(c).GetInt(r))
              << "partition " << p << " chunk " << ch << " column " << c
              << " row " << r;
        }
        const storage::EncodedColumn* we = w.encoding(c);
        const storage::EncodedColumn* ge = g.encoding(c);
        ASSERT_EQ(ge == nullptr, we == nullptr)
            << "partition " << p << " chunk " << ch << " column " << c;
        if (we == nullptr) continue;
        EXPECT_EQ(ge->values, we->values);
        EXPECT_EQ(ge->lengths, we->lengths);
        EXPECT_EQ(ge->starts, we->starts);
        EXPECT_EQ(ge->num_rows, we->num_rows);
        EXPECT_EQ(ge->width, we->width);
      }
    }
  }
  for (size_t c = 0; c < want.schema().num_fields(); ++c) {
    EXPECT_EQ(got.stats(c).min, want.stats(c).min) << c;
    EXPECT_EQ(got.stats(c).max, want.stats(c).max) << c;
    EXPECT_EQ(got.stats(c).ndv, want.stats(c).ndv) << c;
    EXPECT_EQ(got.stats(c).dsb_scale, want.stats(c).dsb_scale) << c;
    EXPECT_EQ(got.stats(c).compression_ratio, want.stats(c).compression_ratio)
        << c;
    const storage::Dictionary* wd = want.dictionary(c);
    ASSERT_EQ(got.dictionary(c) == nullptr, wd == nullptr) << c;
    if (wd == nullptr) continue;
    ASSERT_EQ(got.dictionary(c)->size(), wd->size());
    for (uint32_t code = 0; code < wd->size(); ++code) {
      EXPECT_EQ(got.dictionary(c)->Decode(code), wd->Decode(code));
    }
  }
}

TEST_F(HostDbTest, LoadToRapidMatchesFreshLoadOfUpdatedData) {
  // Every column kind; `run` is sorted so most chunks carry an RLE
  // encoding, which the updates below break and extend.
  const std::vector<storage::ColumnSpec> specs = {
      {"id", storage::ColumnKind::kInt64},
      {"qty", storage::ColumnKind::kInt8},
      {"code", storage::ColumnKind::kInt16},
      {"n", storage::ColumnKind::kInt32},
      {"day", storage::ColumnKind::kDate},
      {"price", storage::ColumnKind::kDecimal},
      {"mode", storage::ColumnKind::kString},
      {"run", storage::ColumnKind::kInt32}};
  const char* modes[] = {"AIR", "DELIVER IN PERSON", "TAKE BACK RETURN",
                         "RAIL"};
  std::vector<storage::ColumnData> data(specs.size());
  for (int i = 0; i < 1000; ++i) {
    data[0].ints.push_back(i * 7);
    data[1].ints.push_back(i % 50);
    data[2].ints.push_back(1000 - (i % 300));
    data[3].ints.push_back(i * i);
    data[4].ints.push_back(8035 + i % 2000);
    data[5].decimals.push_back(static_cast<double>(i % 400) * 0.25);
    data[6].strings.push_back(modes[i % 4]);
    data[7].ints.push_back(i / 100);
  }
  storage::LoadOptions opts;
  opts.rows_per_chunk = 64;
  opts.num_partitions = 3;
  ASSERT_OK(host_.CreateTable("x", specs, data, opts));

  // Row changes in pre-encoded form: price mantissas at scale 2, mode
  // codes from the host dictionary (first seen at rows 0-3, so a fresh
  // load of the updated data assigns the same codes).
  const storage::Dictionary* dict = host_.GetTable("x")->dictionary(6);
  const int64_t air = dict->Lookup("AIR").value();
  const int64_t rail = dict->Lookup("RAIL").value();
  // Two batches before LOAD; both touch chunk 2 (rows 128-191) and
  // name row 131, whose second image wins.
  const std::vector<std::vector<storage::RowChange>> batches = {
      {{130, {-5, -100, 30000, -7, 20000, 123456, rail, 77}},
       {131, {-6, 100, 30000, -7, 20000, 5, air, 1}},
       {999, {5000000000, 0, 0, 0, 0, -250, air, -3}},
       {640, {1, 1, 1, 1, 1, 1, air, 6}}},
      {{129, {-4, 3, 29999, 5, 20001, 250, air, 77}},
       {131, {-8, 99, 29999, 5, 20001, 7, rail, 2}}}};
  for (const auto& batch : batches) ASSERT_OK(host_.Update("x", batch));

  // Brute-force reference: the same changes applied to the staged
  // columns, then loaded from scratch.
  std::vector<storage::ColumnData> updated = data;
  std::vector<storage::RowChange> changes;
  for (const auto& batch : batches) {
    changes.insert(changes.end(), batch.begin(), batch.end());
  }
  for (const storage::RowChange& change : changes) {
    for (size_t c = 0; c < specs.size(); ++c) {
      const int64_t v = change.values[c];
      if (specs[c].kind == storage::ColumnKind::kDecimal) {
        updated[c].decimals[change.row_id] = static_cast<double>(v) / 100.0;
      } else if (specs[c].kind == storage::ColumnKind::kString) {
        updated[c].strings[change.row_id] =
            dict->Decode(static_cast<uint32_t>(v));
      } else {
        updated[c].ints[change.row_id] = v;
      }
    }
  }
  ASSERT_OK_AND_ASSIGN(storage::Table reference,
                       storage::LoadTable("x", specs, updated, opts));

  ASSERT_OK(host_.LoadToRapid("x", &engine_));
  const storage::Table* rapid = engine_.GetTable("x");
  ASSERT_NE(rapid, nullptr);
  EXPECT_EQ(rapid->scn(), host_.journal().current_scn());
  EXPECT_EQ(rapid->stats(1).min, -100);
  EXPECT_EQ(rapid->stats(0).max, 5000000000);
  ExpectSameTable(reference, *rapid);

  // The copy shares no storage with the host: a later host update that
  // is not checkpointed leaves RAPID's vectors as loaded.
  ASSERT_OK(host_.Update("x", {{131, {9, 9, 9, 9, 9, 9, rail, 9}},
                               {0, {9, 9, 9, 9, 9, 9, rail, 9}}}));
  EXPECT_EQ(host_.GetTable("x")->partition(0).chunk(0).column(0).GetInt(0),
            9);
  ExpectSameTable(reference, *engine_.GetTable("x"));
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
