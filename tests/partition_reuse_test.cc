// Tests for QComp's scan memo and partition reuse: identical
// table-source scans lower to one step, and a join whose input already
// has a partition on exactly its keys reads that partition (when its
// fan-out suffices and the cost gate passes) instead of partitioning
// again. Q18's group-by and final join then share one lineitem
// partition, which pipeline fusion makes the lineitem scan's sink.
// Results must stay bit-identical to the unfused plan and agree with
// Volcano; joins that cannot reuse plan their own partition; a shared
// scan never takes a join filter; and a fault after the shared
// partition completes resumes from it.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/config.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/simd.h"
#include "common/trace.h"
#include "core/engine.h"
#include "core/qcomp/pipeline_fusion.h"
#include "core/qcomp/planner.h"
#include "hostdb/database.h"
#include "hostdb/volcano.h"
#include "storage/loader.h"
#include "tests/test_util.h"
#include "tpch/queries.h"

namespace rapid {
namespace {

using core::AggFunc;
using core::ColumnSet;
using core::ExecOptions;
using core::Expr;
using core::GroupByStep;
using core::JoinStep;
using core::JoinType;
using core::LogicalNode;
using core::LogicalPtr;
using core::PartitionScheme;
using core::PartitionStep;
using core::PhysicalPlan;
using core::PipelineSpec;
using core::PipelineStageSpec;
using core::PipelineStep;
using core::PlanStep;
using core::Predicate;
using core::QueryResult;
using primitives::CmpOp;
using rapid::testing::CleanPollCount;
using rapid::testing::ExpectIdentical;
using rapid::testing::ExpectSameRows;

constexpr int kCoreCounts[] = {1, 4, 32};

ExecOptions Fused(bool on) {
  ExecOptions options;
  options.planner.enable_fusion = on;
  return options;
}

Result<PhysicalPlan> PlanOn(core::RapidEngine& engine, const LogicalPtr& plan,
                            const ExecOptions& options = Fused(true)) {
  core::Planner planner(engine.dpu().config(), engine.dpu().params(),
                        options.planner);
  return planner.Plan(plan, engine.catalog());
}

size_t Count(const std::string& text, const std::string& what) {
  size_t n = 0;
  for (size_t pos = text.find(what); pos != std::string::npos;
       pos = text.find(what, pos + 1)) {
    ++n;
  }
  return n;
}

// The steps of `plan` that read step `id`.
std::vector<const PlanStep*> Readers(const PhysicalPlan& plan, int id) {
  std::vector<const PlanStep*> out;
  for (const auto& step : plan.steps) {
    for (int in : step->Inputs()) {
      if (in == id) {
        out.push_back(step.get());
        break;
      }
    }
  }
  return out;
}

// The "#p" addresses of step `id`.
std::vector<std::string> PartitionAddresses(const PhysicalPlan& plan,
                                            int id) {
  std::vector<std::string> out;
  for (const auto& [path, sid] : plan.subtree_steps) {
    if (sid == id && path.size() >= 2 &&
        path.compare(path.size() - 2, 2, "#p") == 0) {
      out.push_back(path);
    }
  }
  return out;
}

// The partition steps of `plan` over a scan of `table` on `keys`:
// PARTITION steps over the scan and partition sinks ending its chain.
std::vector<int> PartitionsOver(const PhysicalPlan& plan,
                                const std::string& table,
                                const std::vector<std::string>& keys) {
  std::vector<int> out;
  for (const auto& step : plan.steps) {
    if (const auto* part = dynamic_cast<const PartitionStep*>(step.get())) {
      const auto* src = dynamic_cast<const PipelineStep*>(
          plan.steps[static_cast<size_t>(part->input())].get());
      if (part->key_columns() == keys && src != nullptr &&
          src->spec().table == table) {
        out.push_back(step->id());
      }
      continue;
    }
    const auto* sink = dynamic_cast<const PipelineStep*>(step.get());
    if (sink == nullptr || sink->spec().table != table) continue;
    const PipelineStageSpec& last = sink->spec().branches.front().stages.back();
    if (last.kind == PipelineStageSpec::Kind::kPartition &&
        last.partition_keys == keys) {
      out.push_back(step->id());
    }
  }
  return out;
}

// Q18's first fragment with `qty` in place of its 300 threshold (the
// real threshold leaves no order at the scale these tests load).
Result<LogicalPtr> Q18Shaped(const core::Catalog& catalog, double qty) {
  const storage::Table& lineitem = catalog.at("lineitem");
  RAPID_ASSIGN_OR_RETURN(size_t idx, lineitem.schema().IndexOf("l_quantity"));
  int64_t scale = 1;
  for (int s = 0; s < lineitem.stats(idx).dsb_scale; ++s) scale *= 10;
  const auto limit = static_cast<int64_t>(qty * static_cast<double>(scale));
  auto l1 = LogicalNode::Scan("lineitem", {"l_orderkey", "l_quantity"});
  auto g1 = LogicalNode::GroupBy(
      l1, {{"l_orderkey", Expr::Col("l_orderkey")}},
      {{"big_qty", AggFunc::kSum, Expr::Col("l_quantity"), {}}});
  auto f1 = LogicalNode::Filter(
      g1, {Predicate::CmpConst("big_qty", CmpOp::kGt, limit)}, {"l_orderkey"});
  auto o = LogicalNode::Scan(
      "orders", {"o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"});
  auto sj = LogicalNode::Join(
      f1, o, {"l_orderkey"}, {"o_orderkey"},
      {"o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"},
      JoinType::kSemi);
  auto c = LogicalNode::Scan("customer", {"c_custkey", "c_name"});
  auto j2 = LogicalNode::Join(
      c, sj, {"c_custkey"}, {"o_custkey"},
      {"c_name", "c_custkey", "o_orderkey", "o_orderdate", "o_totalprice"});
  auto l2 = LogicalNode::Scan("lineitem", {"l_orderkey", "l_quantity"});
  auto j3 = LogicalNode::Join(
      j2, l2, {"o_orderkey"}, {"l_orderkey"},
      {"c_name", "c_custkey", "o_orderkey", "o_orderdate", "o_totalprice",
       "l_quantity"});
  auto g = LogicalNode::GroupBy(
      j3,
      {{"c_name", Expr::Col("c_name")},
       {"c_custkey", Expr::Col("c_custkey")},
       {"o_orderkey", Expr::Col("o_orderkey")},
       {"o_orderdate", Expr::Col("o_orderdate")},
       {"o_totalprice", Expr::Col("o_totalprice")}},
      {{"sum_qty", AggFunc::kSum, Expr::Col("l_quantity"), {}}});
  return LogicalNode::TopK(
      g, {{"o_totalprice", false}, {"o_orderdate", true}}, 100);
}

// ---- TPC-H Q18 -------------------------------------------------------------

class PartitionReuseTpchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    host_ = new hostdb::HostDatabase();
    for (const int cores : kCoreCounts) {
      dpu::DpuConfig config;
      config.num_cores = cores;
      engines_.push_back(new core::RapidEngine(config));
    }
    RAPID_CHECK_OK(tpch::LoadTpch(0.01, host_, engines_[0], /*seed=*/5,
                                  /*rows_per_chunk=*/1024));
    for (size_t e = 1; e < engines_.size(); ++e) {
      for (const auto& [name, table] : host_->catalog()) {
        RAPID_CHECK_OK(host_->LoadToRapid(name, engines_[e]));
      }
    }
  }
  static void TearDownTestSuite() {
    for (core::RapidEngine* engine : engines_) delete engine;
    engines_.clear();
    delete host_;
    host_ = nullptr;
  }

  static LogicalPtr Q18() {
    auto query = tpch::BuildQuery("Q18");
    RAPID_CHECK_OK(query.status());
    auto plan = query.value().fragments[0](engines_[0]->catalog(), {});
    RAPID_CHECK_OK(plan.status());
    return plan.value();
  }

  // Q18 with a threshold low enough that orders qualify.
  static LogicalPtr Q18WithRows() {
    auto plan = Q18Shaped(engines_[0]->catalog(), 150.0);
    RAPID_CHECK_OK(plan.status());
    return plan.value();
  }

  static hostdb::HostDatabase* host_;
  static std::vector<core::RapidEngine*> engines_;
};

hostdb::HostDatabase* PartitionReuseTpchTest::host_ = nullptr;
std::vector<core::RapidEngine*> PartitionReuseTpchTest::engines_;

// One lineitem partition on l_orderkey, read by both the GROUPBY and
// the HASHJOIN's probe side: fused, it is the lineitem scan's sink;
// unfused, a PARTITION step over the one lineitem scan. Either way it
// answers to both subtrees' "#p" addresses.
TEST_F(PartitionReuseTpchTest, Q18PlansOneLineitemPartition) {
  for (size_t e = 0; e < engines_.size(); ++e) {
    for (const bool fused : {true, false}) {
      const std::string what = "cores " + std::to_string(kCoreCounts[e]) +
                               (fused ? " fused" : " unfused");
      ASSERT_OK_AND_ASSIGN(PhysicalPlan plan,
                           PlanOn(*engines_[e], Q18(), Fused(fused)));
      const std::string text = plan.Describe();
      const std::vector<int> parts =
          PartitionsOver(plan, "lineitem", {"l_orderkey"});
      ASSERT_EQ(parts.size(), 1u) << what << "\n" << text;
      const int part = parts.front();
      EXPECT_EQ(Count(text, "keys=(l_orderkey) scheme="), 2u)
          << what << "\n" << text;  // + the semi-join build's, over #2
      if (fused) {
        EXPECT_EQ(Count(text, "scan lineitem | filter+project preds=0 "
                              "proj=2 | partition keys=(l_orderkey)"),
                  1u)
            << what << "\n" << text;
        EXPECT_EQ(Count(text, "SCAN lineitem"), 0u) << what << "\n" << text;
      } else {
        EXPECT_EQ(Count(text, "SCAN lineitem"), 1u) << what << "\n" << text;
      }
      const std::vector<const PlanStep*> readers = Readers(plan, part);
      ASSERT_EQ(readers.size(), 2u) << what << "\n" << text;
      bool groupby = false;
      bool join_probe = false;
      for (const PlanStep* reader : readers) {
        groupby = groupby || dynamic_cast<const GroupByStep*>(reader);
        const auto* join = dynamic_cast<const JoinStep*>(reader);
        join_probe = join_probe ||
                     (join != nullptr && join->probe_input() == part &&
                      join->build_input() != part);
      }
      EXPECT_TRUE(groupby) << what << "\n" << text;
      EXPECT_TRUE(join_probe) << what << "\n" << text;
      EXPECT_EQ(PartitionAddresses(plan, part).size(), 2u)
          << what << "\n" << text;
    }
  }
}

// Q18's row-bearing variant against the unfused plan, bit for bit, and
// against Volcano, on every SIMD tier (at 4 cores) and at 1, 4 and 32
// cores (on the default tier); Q18 itself at each core count.
TEST_F(PartitionReuseTpchTest, Q18MatchesUnfusedAndVolcanoEverywhere) {
  const LogicalPtr variant = Q18WithRows();
  ASSERT_OK_AND_ASSIGN(ColumnSet volcano_variant,
                       hostdb::VolcanoExecutor::Execute(variant,
                                                        host_->catalog()));
  ASSERT_GT(volcano_variant.num_rows(), 0u);
  auto expect_variant_matches = [&](core::RapidEngine& engine,
                                    const std::string& what) {
    ASSERT_OK_AND_ASSIGN(QueryResult on, engine.Execute(variant, Fused(true)));
    ASSERT_OK_AND_ASSIGN(QueryResult off,
                         engine.Execute(variant, Fused(false)));
    ExpectIdentical(on.rows, off.rows, what);
    ExpectSameRows(on.rows, volcano_variant);
    EXPECT_EQ(on.stats.workload.partitioned_rows,
              off.stats.workload.partitioned_rows)
        << what;
  };
  for (int l = 0; l <= static_cast<int>(SimdLevelSupported()); ++l) {
    ScopedConfig config(&Config::simd, static_cast<SimdLevel>(l));
    expect_variant_matches(*engines_[1], "level " + std::to_string(l));
  }
  const tpch::TpchQuery q18 = tpch::BuildQuery("Q18").value();
  ASSERT_OK_AND_ASSIGN(tpch::QueryRun volcano_q18,
                       tpch::RunOnHost(*host_, q18));
  for (size_t e = 0; e < engines_.size(); ++e) {
    const std::string what = "cores " + std::to_string(kCoreCounts[e]);
    expect_variant_matches(*engines_[e], what);
    ASSERT_OK_AND_ASSIGN(tpch::QueryRun on,
                         tpch::RunOnRapid(*engines_[e], q18, Fused(true)));
    ASSERT_OK_AND_ASSIGN(tpch::QueryRun off,
                         tpch::RunOnRapid(*engines_[e], q18, Fused(false)));
    ExpectIdentical(on.result, off.result, "Q18 " + what);
    ExpectSameRows(on.result, volcano_q18.result);
  }
}

// The planner says why it reused, on the planner track; ExplainAnalyze
// prints the shared partition once and marks its second edge.
TEST_F(PartitionReuseTpchTest, TraceAndExplainShowTheSharedPartition) {
  core::RapidEngine& engine = *engines_[2];
  {
    ScopedConfig trace(&Config::trace, TraceMode::kSummary);
    ASSERT_OK(engine.Execute(Q18()).status());
    const std::string& json = core::RapidEngine::LastTrace();
    EXPECT_NE(json.find("\"planner.partition_reuse\""), std::string::npos);
    EXPECT_NE(json.find("\"side\":\"probe\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"reuse\":1"), std::string::npos) << json;
  }
  ASSERT_OK_AND_ASSIGN(std::string explain,
                       engine.ExplainAnalyze(Q18WithRows()));
  const std::string sink =
      "PIPELINE scan lineitem | filter+project preds=0 proj=2 | partition";
  EXPECT_EQ(Count(explain, sink), 2u) << explain;
  size_t shown_above = 0;
  for (size_t at = explain.find(sink); at != std::string::npos;
       at = explain.find(sink, at + 1)) {
    const std::string line =
        explain.substr(at, explain.find('\n', at) - at);
    shown_above += line.find("(shown above)") != std::string::npos ? 1 : 0;
  }
  EXPECT_EQ(shown_above, 1u) << explain;
}

// A partition-engine fault in the final join's build-side PARTITION
// step, after the shared partition completed, costs one in-place
// retry: the shared partition comes back from the checkpoint (both of
// its addresses name the one step) and the rows equal the clean run's.
TEST_F(PartitionReuseTpchTest, FaultAfterSharedPartitionResumesFromIt) {
  core::RapidEngine& engine = *engines_[1];
  const LogicalPtr plan = Q18WithRows();
  ExecOptions options = Fused(true);
  options.retry_budget = 2;
  ASSERT_OK_AND_ASSIGN(QueryResult clean, engine.Execute(plan, options));
  ASSERT_GT(clean.rows.num_rows(), 0u);
  ASSERT_OK_AND_ASSIGN(PhysicalPlan physical, PlanOn(engine, plan));
  const std::vector<int> parts =
      PartitionsOver(physical, "lineitem", {"l_orderkey"});
  ASSERT_EQ(parts.size(), 1u) << physical.Describe();
  ASSERT_EQ(PartitionAddresses(physical, parts.front()).size(), 2u);
  int build = -1;
  for (const PlanStep* reader : Readers(physical, parts.front())) {
    if (const auto* join = dynamic_cast<const JoinStep*>(reader)) {
      build = join->build_input();
    }
  }
  ASSERT_GT(build, parts.front()) << physical.Describe();
  ASSERT_NE(dynamic_cast<const PartitionStep*>(
                physical.steps[static_cast<size_t>(build)].get()),
            nullptr)
      << physical.Describe();

  // Partition descriptors of the steps before the build side's
  // PARTITION step, then of that step itself.
  auto prefix_polls = [&](int steps) {
    PhysicalPlan prefix = PlanOn(engine, plan).value();
    prefix.steps.resize(static_cast<size_t>(steps));
    prefix.root = steps - 1;
    return CleanPollCount(faults::kDmsPartition, [&] {
      ASSERT_OK(engine.ExecutePhysical(prefix, options).status());
    });
  };
  const uint64_t before = prefix_polls(build);
  const uint64_t polls = prefix_polls(build + 1) - before;
  ASSERT_GT(polls, 0u);
  ScopedFaultInjection fi(63);
  FaultInjector::SiteSpec spec;
  spec.skip_first = before + polls / 2;
  spec.max_failures = 4;  // exhausts exactly one descriptor
  fi.Arm(faults::kDmsPartition, spec);
  ASSERT_OK_AND_ASSIGN(QueryResult retried, engine.Execute(plan, options));
  EXPECT_EQ(retried.stats.dpu_retries, 1u);
  EXPECT_GE(retried.stats.reused_rounds, 1u);
  EXPECT_FALSE(retried.stats.demoted_to_unfused);
  ExpectIdentical(retried.rows, clean.rows, "retried");
}

// ---- Synthetic tables: the gate's refusals and the join-filter guard -------

// f: 20000 facts with a distinct key k, a group g (0..99) and a value v;
// d: 1000 dimension keys dk.
class PartitionReusePlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<storage::ColumnSpec> fspecs = {
        {"k", storage::ColumnKind::kInt32},
        {"g", storage::ColumnKind::kInt32},
        {"v", storage::ColumnKind::kInt32}};
    std::vector<storage::ColumnData> fdata(3);
    for (int r = 0; r < 20000; ++r) {
      fdata[0].ints.push_back((r * 7919) % 20000);
      fdata[1].ints.push_back(r % 100);
      fdata[2].ints.push_back(static_cast<int64_t>(r) * 104729 % 1000);
    }
    std::vector<storage::ColumnSpec> dspecs = {
        {"dk", storage::ColumnKind::kInt32}};
    std::vector<storage::ColumnData> ddata(1);
    for (int r = 0; r < 1000; ++r) ddata[0].ints.push_back(r);
    storage::LoadOptions geometry;
    geometry.rows_per_chunk = 1024;
    ASSERT_OK(host_.CreateTable("f", fspecs, fdata, geometry));
    ASSERT_OK(host_.CreateTable("d", dspecs, ddata, geometry));
    ASSERT_OK(host_.LoadToRapid("f", &engine_));
    ASSERT_OK(host_.LoadToRapid("d", &engine_));
  }

  static LogicalPtr Facts(std::vector<Predicate> preds = {}) {
    return LogicalNode::Scan("f", {"k", "g", "v"}, std::move(preds));
  }
  // SUM(v) per k over `input`: a high-NDV group-by, partitioned on k.
  static LogicalPtr SumPerKey(LogicalPtr input) {
    return LogicalNode::GroupBy(std::move(input), {{"gk", Expr::Col("k")}},
                                {{"sv", AggFunc::kSum, Expr::Col("v"), {}}});
  }

  void ExpectMatchesVolcano(const LogicalPtr& plan, const std::string& what) {
    ASSERT_OK_AND_ASSIGN(ColumnSet volcano, hostdb::VolcanoExecutor::Execute(
                                                plan, host_.catalog()));
    for (const bool fused : {true, false}) {
      ASSERT_OK_AND_ASSIGN(QueryResult rapid,
                           engine_.Execute(plan, Fused(fused)));
      ExpectSameRows(rapid.rows, volcano);
      EXPECT_GT(rapid.rows.num_rows(), 0u) << what;
    }
  }

  // The summary trace of one run of `plan`: the planner's reuse
  // decisions are its planner.partition_reuse spans.
  std::string ReuseTrace(const LogicalPtr& plan) {
    ScopedConfig trace(&Config::trace, TraceMode::kSummary);
    auto result = engine_.Execute(plan);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return core::RapidEngine::LastTrace();
  }

  hostdb::HostDatabase host_;
  core::RapidEngine engine_;
};

// Join(SUM(v) per k, f) on k: the join's build side needs no more ways
// than the group-by's partition has, so the join reads it; every f row
// is partitioned once.
TEST_F(PartitionReusePlanTest, JoinOnTheGroupByKeyReusesItsPartition) {
  const LogicalPtr plan = LogicalNode::Join(SumPerKey(Facts()), Facts(),
                                            {"gk"}, {"k"}, {"gk", "v"});
  ASSERT_OK_AND_ASSIGN(PhysicalPlan physical, PlanOn(engine_, plan));
  const std::vector<int> parts = PartitionsOver(physical, "f", {"k"});
  ASSERT_EQ(parts.size(), 1u) << physical.Describe();
  EXPECT_EQ(Readers(physical, parts.front()).size(), 2u)
      << physical.Describe();
  const std::string json = ReuseTrace(plan);
  EXPECT_NE(json.find("\"reuse\":1"), std::string::npos) << json;
  ExpectMatchesVolcano(plan, "reuse");
}

// The same join emitting five columns needs more ways than the
// group-by's partition has: it plans a partition of its own over f.
TEST_F(PartitionReusePlanTest, LargerRequiredFanoutPlansItsOwnPartition) {
  const LogicalPtr plan =
      LogicalNode::Join(SumPerKey(Facts()), Facts(), {"gk"}, {"k"},
                        {"gk", "sv", "k", "g", "v"});
  ASSERT_OK_AND_ASSIGN(PhysicalPlan physical,
                       PlanOn(engine_, plan, Fused(false)));
  const std::vector<int> parts = PartitionsOver(physical, "f", {"k"});
  ASSERT_EQ(parts.size(), 2u) << physical.Describe();
  for (const int part : parts) {
    EXPECT_EQ(Readers(physical, part).size(), 1u) << physical.Describe();
  }
  const std::string json = ReuseTrace(plan);
  EXPECT_NE(json.find("\"planner.partition_reuse\""), std::string::npos);
  EXPECT_EQ(json.find("\"reuse\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"reuse\":0"), std::string::npos) << json;
  ExpectMatchesVolcano(plan, "larger fan-out");
}

// A join on another key (g) or over another input (f filtered, where
// the group-by reads all of f) finds no partition to reuse.
TEST_F(PartitionReusePlanTest, OtherKeysOrInputPlanTheirOwnPartition) {
  const LogicalPtr other_keys = LogicalNode::Join(
      SumPerKey(Facts()), Facts(), {"gk"}, {"g"}, {"gk", "v"});
  const LogicalPtr other_input = LogicalNode::Join(
      SumPerKey(Facts()),
      Facts({Predicate::CmpConst("v", CmpOp::kLt, 500)}), {"gk"}, {"k"},
      {"gk", "v"});
  for (const LogicalPtr& plan : {other_keys, other_input}) {
    const std::string what = plan == other_keys ? "other keys" : "other input";
    ASSERT_OK_AND_ASSIGN(PhysicalPlan physical,
                         PlanOn(engine_, plan, Fused(false)));
    size_t partitions = 0;
    for (const auto& step : physical.steps) {
      if (dynamic_cast<const PartitionStep*>(step.get()) == nullptr) continue;
      ++partitions;
      EXPECT_EQ(Readers(physical, step->id()).size(), 1u)
          << what << "\n" << physical.Describe();
    }
    EXPECT_EQ(partitions, 3u) << what << "\n" << physical.Describe();
    EXPECT_EQ(ReuseTrace(plan).find("\"planner.partition_reuse\""),
              std::string::npos)
        << what;
    ExpectMatchesVolcano(plan, what);
  }
}

// A scan the memo shares between an aggregate and a semi-join's probe
// side takes no join filter, though the same semi-join alone pushes
// one into its scan: the filter would drop rows the aggregate needs.
// In the other order the semi-join's scan takes its filter first, and
// the aggregate's identical scan does not reuse it.
TEST_F(PartitionReusePlanTest, MemoSharedScanTakesNoJoinFilter) {
  auto dims = [] {
    return LogicalNode::Scan("d", {"dk"},
                             {Predicate::CmpConst("dk", CmpOp::kLt, 20)});
  };
  auto semi = [&] {
    return LogicalNode::Join(dims(), Facts(), {"dk"}, {"k"}, {"k", "g", "v"},
                             JoinType::kSemi);
  };
  auto scan_filters = [](const PhysicalPlan& plan) {
    size_t n = 0;
    for (const auto& step : plan.steps) {
      const auto* p = dynamic_cast<const PipelineStep*>(step.get());
      if (p != nullptr && p->spec().table == "f" &&
          p->spec().branches.front().stages.front().join_filter.enabled()) {
        ++n;
      }
    }
    return n;
  };
  ASSERT_OK_AND_ASSIGN(PhysicalPlan alone,
                       PlanOn(engine_, semi(), Fused(false)));
  ASSERT_EQ(scan_filters(alone), 1u) << alone.Describe();

  // d then f lowered on the left, both reused on the right: the semi
  // join's build step precedes its probe scan, as pushdown requires.
  const LogicalPtr per_group = LogicalNode::GroupBy(
      Facts(), {{"gg", Expr::Col("g")}},
      {{"sv", AggFunc::kSum, Expr::Col("v"), {}}});
  const LogicalPtr left = LogicalNode::Join(dims(), per_group, {"dk"},
                                            {"gg"}, {"gg", "sv"});
  const LogicalPtr plan = LogicalNode::Join(left, semi(), {"gg"}, {"g"},
                                            {"gg", "sv", "k", "v"});
  for (const bool fused : {true, false}) {
    ASSERT_OK_AND_ASSIGN(PhysicalPlan physical,
                         PlanOn(engine_, plan, Fused(fused)));
    EXPECT_EQ(Count(physical.Describe(), "SCAN f"), 1u)
        << physical.Describe();
    EXPECT_EQ(scan_filters(physical), 0u) << physical.Describe();
  }
  ExpectMatchesVolcano(plan, "shared scan");

  const LogicalPtr filtered_first = LogicalNode::Join(
      semi(), per_group, {"g"}, {"gg"}, {"k", "v", "gg", "sv"});
  ASSERT_OK_AND_ASSIGN(PhysicalPlan physical,
                       PlanOn(engine_, filtered_first, Fused(false)));
  EXPECT_EQ(Count(physical.Describe(), "SCAN f"), 2u) << physical.Describe();
  EXPECT_EQ(scan_filters(physical), 1u) << physical.Describe();
  ExpectMatchesVolcano(filtered_first, "filtered scan first");
}

// A partition with two consumers never becomes a broadcast probe: the
// hand-built join below fuses into its probe chain when the partition
// of f feeds only the join, and stays a partitioned HASHJOIN when a
// high-NDV group-by reads the same partition.
TEST_F(PartitionReusePlanTest, SharedPartitionIsNeverABroadcastProbe) {
  auto scan = [](const std::string& table, std::vector<std::string> cols) {
    PipelineSpec spec;
    spec.table = table;
    spec.base_columns = cols;
    spec.tile_rows = 256;
    PipelineStageSpec stage;
    for (const std::string& c : cols) {
      stage.projections.emplace_back(c, Expr::Col(c));
    }
    spec.branches.push_back(core::PipelineBranch{{stage}, false});
    return spec;
  };
  auto build = [&](bool shared) {
    PartitionScheme scheme;
    scheme.rounds = {{64, 32}};
    core::JoinSpec join;
    join.est_build_rows = 100;
    join.est_probe_rows = 20000;
    PhysicalPlan plan;
    plan.steps.push_back(
        std::make_unique<PipelineStep>(0, scan("d", {"dk"})));
    plan.steps.push_back(
        std::make_unique<PipelineStep>(1, scan("f", {"k", "v"})));
    plan.steps.push_back(std::make_unique<PartitionStep>(
        2, 0, std::vector<std::string>{"dk"}, scheme, 1024));
    plan.steps.push_back(std::make_unique<PartitionStep>(
        3, 1, std::vector<std::string>{"k"}, scheme, 1024));
    plan.steps.push_back(std::make_unique<JoinStep>(
        4, 2, 3, std::vector<std::string>{"dk"},
        std::vector<std::string>{"k"}, std::vector<std::string>{"k", "v"},
        JoinType::kInner, join));
    plan.root = 4;
    plan.subtree_steps = {{"", 4}, {"0", 0}, {"1", 1}, {"0#p", 2},
                          {"1#p", 3}};
    if (shared) {
      plan.steps.push_back(std::make_unique<GroupByStep>(
          5, 3,
          std::vector<std::pair<std::string, core::ExprPtr>>{
              {"k", Expr::Col("k")}},
          std::vector<core::AggSpec>{
              {"sv", AggFunc::kSum, Expr::Col("v"), {}}},
          1024));
    }
    return core::FusePipelines(std::move(plan), engine_.dpu().config(),
                               /*max_build_rows=*/8192,
                               engine_.dpu().params(), &engine_.catalog());
  };
  ASSERT_OK_AND_ASSIGN(PhysicalPlan alone, build(false));
  EXPECT_EQ(alone.Describe().find("HASHJOIN"), std::string::npos)
      << alone.Describe();
  EXPECT_NE(alone.Describe().find("probe"), std::string::npos)
      << alone.Describe();
  ASSERT_OK_AND_ASSIGN(PhysicalPlan shared, build(true));
  EXPECT_NE(shared.Describe().find("HASHJOIN"), std::string::npos)
      << shared.Describe();
  const std::vector<int> parts = PartitionsOver(shared, "f", {"k"});
  ASSERT_EQ(parts.size(), 1u) << shared.Describe();
  EXPECT_EQ(Readers(shared, parts.front()).size(), 2u) << shared.Describe();
}

}  // namespace
}  // namespace rapid
