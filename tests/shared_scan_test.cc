// Tests for shared scans: pipeline fusion merges the table-source
// chains of a plan that read the same table into one multi-branch
// PipelineStep (one DMS pass, one branch per chain, BRANCH steps for
// the extra branches' rows). Results must be bit-identical to the
// unshared plan (fusion off) and agree with Volcano; the gate must
// keep apart what sharing would not help or could not run; and a
// fault inside the shared step must retry, resume or demote to exactly
// the clean rows.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/config.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/engine.h"
#include "core/qcomp/planner.h"
#include "hostdb/database.h"
#include "hostdb/volcano.h"
#include "storage/loader.h"
#include "tests/test_util.h"
#include "tpch/queries.h"

namespace rapid {
namespace {

using core::ColumnSet;
using core::ExecOptions;
using core::Expr;
using core::LogicalNode;
using core::LogicalPtr;
using core::PhysicalPlan;
using core::PipelineStep;
using core::Predicate;
using core::QueryResult;
using primitives::CmpOp;
using rapid::testing::CleanPollCount;
using rapid::testing::ExpectIdentical;
using rapid::testing::Rows;
using rapid::testing::SortedRows;

ExecOptions Fused(bool on) {
  ExecOptions options;
  options.planner.enable_fusion = on;
  return options;
}

Result<PhysicalPlan> PlanOn(core::RapidEngine& engine, const LogicalPtr& plan,
                            const ExecOptions& options = ExecOptions{}) {
  core::Planner planner(engine.dpu().config(), engine.dpu().params(),
                        options.planner);
  return planner.Plan(plan, engine.catalog());
}

// The table-source pipelines of `plan` over `table`.
std::vector<const PipelineStep*> TableSteps(const PhysicalPlan& plan,
                                            const std::string& table) {
  std::vector<const PipelineStep*> out;
  for (const auto& step : plan.steps) {
    const auto* p = dynamic_cast<const PipelineStep*>(step.get());
    if (p != nullptr && p->spec().table == table) out.push_back(p);
  }
  return out;
}

size_t Count(const std::string& text, const std::string& what) {
  size_t n = 0;
  for (size_t pos = text.find(what); pos != std::string::npos;
       pos = text.find(what, pos + 1)) {
    ++n;
  }
  return n;
}

// Two engines' results: rows in order, then every column's name, type
// and scale, and dictionaries with the same strings (each engine keeps
// its own copy of a table's dictionaries).
void ExpectSameAcrossEngines(const ColumnSet& a, const ColumnSet& b,
                             const std::string& what) {
  ASSERT_EQ(a.num_columns(), b.num_columns()) << what;
  EXPECT_EQ(Rows(a), Rows(b)) << what;
  for (size_t c = 0; c < a.num_columns(); ++c) {
    const core::ColumnMeta& x = a.meta(c);
    const core::ColumnMeta& y = b.meta(c);
    EXPECT_EQ(x.name, y.name) << what << " col " << c;
    EXPECT_EQ(x.type, y.type) << what << " col " << c;
    EXPECT_EQ(x.dsb_scale, y.dsb_scale) << what << " col " << c;
    ASSERT_EQ(x.dict == nullptr, y.dict == nullptr) << what << " col " << c;
    if (x.dict == nullptr) continue;
    ASSERT_EQ(x.dict->size(), y.dict->size()) << what << " col " << c;
    for (uint32_t code = 0; code < x.dict->size(); ++code) {
      EXPECT_EQ(x.dict->Decode(code), y.dict->Decode(code))
          << what << " col " << c;
    }
  }
}

// ---- Plan shape and the sharing gate ---------------------------------------

// One table of eight small random int32 columns over many chunks (no
// column compresses, so no run staging changes the DMEM arithmetic).
class SharedScanPlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<storage::ColumnSpec> specs = {
        {"id", storage::ColumnKind::kInt32}};
    for (int c = 0; c < 8; ++c) {
      specs.push_back({"c" + std::to_string(c), storage::ColumnKind::kInt32});
    }
    std::vector<storage::ColumnData> data(specs.size());
    Rng rng(17);
    for (int r = 0; r < kRows; ++r) {
      data[0].ints.push_back(r);
      for (size_t c = 1; c < specs.size(); ++c) {
        data[c].ints.push_back(rng.NextInRange(0, 99));
      }
    }
    storage::LoadOptions geometry;
    geometry.rows_per_chunk = 512;
    ASSERT_OK(host_.CreateTable("w", specs, data, geometry));
    ASSERT_OK(host_.LoadToRapid("w", &engine_));
  }

  // A scan of `columns` of w filtered on `pred`, renamed to a0.. so
  // scans over different columns can meet in a UNION.
  static LogicalPtr RenamedScan(const std::vector<std::string>& columns,
                                Predicate pred) {
    std::vector<std::pair<std::string, core::ExprPtr>> renamed;
    for (size_t c = 0; c < columns.size(); ++c) {
      renamed.emplace_back("a" + std::to_string(c), Expr::Col(columns[c]));
    }
    return LogicalNode::Project(
        LogicalNode::Scan("w", columns, {std::move(pred)}),
        std::move(renamed));
  }

  static LogicalPtr Union(LogicalPtr a, LogicalPtr b) {
    return LogicalNode::SetOp(core::SetOpKind::kUnion, std::move(a),
                              std::move(b));
  }

  // Runs `plan` shared (fusion on) and unshared; both must succeed
  // without a demotion and return identical rows and metas. A join
  // fused into a broadcast probe emits its rows in another order than
  // the partitioned join, so `ordered` = false compares them sorted.
  void ExpectSharedMatchesUnshared(const LogicalPtr& plan,
                                   const std::string& what,
                                   bool ordered = true) {
    ASSERT_OK_AND_ASSIGN(QueryResult shared, engine_.Execute(plan, Fused(true)));
    ASSERT_OK_AND_ASSIGN(QueryResult unshared,
                         engine_.Execute(plan, Fused(false)));
    EXPECT_FALSE(shared.stats.demoted_to_unfused) << what;
    if (ordered) {
      ExpectIdentical(shared.rows, unshared.rows, what);
    } else {
      EXPECT_EQ(SortedRows(shared.rows), SortedRows(unshared.rows)) << what;
    }
  }

  static constexpr int kRows = 8 * 512;
  hostdb::HostDatabase host_;
  core::RapidEngine engine_{dpu::DpuConfig{}};
};

// One tile of three disjoint columns each costs fewer DMS cycles than
// one tile of all six (column contention grows with the square of the
// column count), so chains over disjoint columns stay apart. Chains
// over the same columns share.
TEST_F(SharedScanPlanTest, DisjointColumnsAreNotShared) {
  const LogicalPtr disjoint =
      Union(RenamedScan({"c0", "c1", "c2"},
                        Predicate::CmpConst("c0", CmpOp::kLt, 50)),
            RenamedScan({"c3", "c4", "c5"},
                        Predicate::CmpConst("c3", CmpOp::kLt, 50)));
  ASSERT_OK_AND_ASSIGN(PhysicalPlan plan, PlanOn(engine_, disjoint));
  EXPECT_EQ(TableSteps(plan, "w").size(), 2u) << plan.Describe();
  EXPECT_EQ(plan.Describe().find("branches="), std::string::npos)
      << plan.Describe();

  const LogicalPtr overlapping =
      Union(RenamedScan({"c0", "c1", "c2"},
                        Predicate::CmpConst("c0", CmpOp::kLt, 50)),
            RenamedScan({"c0", "c1", "c2"},
                        Predicate::CmpConst("c1", CmpOp::kLt, 50)));
  ASSERT_OK_AND_ASSIGN(PhysicalPlan shared, PlanOn(engine_, overlapping));
  const auto steps = TableSteps(shared, "w");
  ASSERT_EQ(steps.size(), 1u) << shared.Describe();
  EXPECT_EQ(steps.front()->spec().branches.size(), 2u);
  EXPECT_NE(shared.Describe().find("BRANCH 1 of #"), std::string::npos)
      << shared.Describe();
  ExpectSharedMatchesUnshared(disjoint, "disjoint");
  ExpectSharedMatchesUnshared(overlapping, "overlapping");
}

// A broadcast-probe self-join: the probe chain over w reads the build
// scan of w (probe stage and join filter). Merging them would make the
// shared step read its own output, so they stay two steps.
TEST_F(SharedScanPlanTest, SelfJoinProbeChainIsNotSharedWithItsBuild) {
  const LogicalPtr plan = LogicalNode::Join(
      LogicalNode::Scan("w", {"id", "c0"},
                        {Predicate::CmpConst("id", CmpOp::kLt, 40)}),
      LogicalNode::Scan("w", {"id", "c1"},
                        {Predicate::CmpConst("c1", CmpOp::kLt, 90)}),
      {"id"}, {"id"}, {"c0", "c1"});
  ASSERT_OK_AND_ASSIGN(PhysicalPlan physical, PlanOn(engine_, plan));
  const std::string text = physical.Describe();
  ASSERT_NE(text.find("| probe build=#"), std::string::npos) << text;
  EXPECT_EQ(TableSteps(physical, "w").size(), 2u) << text;
  EXPECT_EQ(text.find("branches="), std::string::npos) << text;
  ExpectSharedMatchesUnshared(plan, "self-join", /*ordered=*/false);
}

// Three chains that each project all eight columns. At the minimum
// 64-row tile the accessor needs 64 + 64 x 128 = 8,256 bytes and each
// branch 128 + 64 x 136 = 8,832 (filter and project vectors): stacked,
// 8,256 + 3 x 8,832 = 34,752 bytes exceed the 32 KiB scratchpad;
// overlaid, 8,256 + 3 x 128 + 64 x 136 = 17,344 fit. The chains share,
// and the runtime overlays their operators' scratch in the arena, which
// would otherwise fail the Open and demote the plan.
TEST_F(SharedScanPlanTest, OverlaidScratchFitsWhereSummedScratchDoesNot) {
  const std::vector<std::string> all = {"c0", "c1", "c2", "c3",
                                        "c4", "c5", "c6", "c7"};
  const LogicalPtr plan =
      Union(Union(RenamedScan(all, Predicate::CmpConst("c0", CmpOp::kLt, 30)),
                  RenamedScan(all, Predicate::Between("c0", 30, 60))),
            RenamedScan(all, Predicate::CmpConst("c0", CmpOp::kGt, 60)));
  ASSERT_OK_AND_ASSIGN(PhysicalPlan physical, PlanOn(engine_, plan));
  const auto steps = TableSteps(physical, "w");
  ASSERT_EQ(steps.size(), 1u) << physical.Describe();
  EXPECT_EQ(steps.front()->spec().branches.size(), 3u);
  ExpectSharedMatchesUnshared(plan, "three wide branches");
}

// ---- TPC-H Q18 and Q19 -----------------------------------------------------

class SharedScanTpchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    host_ = new hostdb::HostDatabase();
    engine_ = new core::RapidEngine();
    RAPID_CHECK_OK(tpch::LoadTpch(0.01, host_, engine_));
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
    delete host_;
    host_ = nullptr;
  }

  static LogicalPtr Fragment(const std::string& name) {
    auto query = tpch::BuildQuery(name);
    RAPID_CHECK_OK(query.status());
    auto plan = query.value().fragments[0](engine_->catalog(), {});
    RAPID_CHECK_OK(plan.status());
    return plan.value();
  }

  // The id of Q19's shared lineitem step in its fused plan.
  static int SharedQ19Step(const PhysicalPlan& plan) {
    for (const auto& step : plan.steps) {
      const auto* p = dynamic_cast<const PipelineStep*>(step.get());
      if (p != nullptr && p->spec().table == "lineitem") return p->id();
    }
    return -1;
  }

  // Polls of `site` over a clean run of the first `steps` steps of
  // `logical`'s fused plan.
  static uint64_t PrefixPolls(const char* site, const LogicalPtr& logical,
                              int steps) {
    if (steps <= 0) return 0;
    auto physical = PlanOn(*engine_, logical);
    RAPID_CHECK_OK(physical.status());
    PhysicalPlan plan = std::move(physical).value();
    plan.steps.resize(static_cast<size_t>(steps));
    plan.root = steps - 1;
    return CleanPollCount(site, [&] {
      ASSERT_OK(engine_->ExecutePhysical(plan, ExecOptions{}).status());
    });
  }

  static hostdb::HostDatabase* host_;
  static core::RapidEngine* engine_;
};

hostdb::HostDatabase* SharedScanTpchTest::host_ = nullptr;
core::RapidEngine* SharedScanTpchTest::engine_ = nullptr;

// Q19's three UNION branches read the same lineitem columns: one
// lineitem step with three branches, two BRANCH steps for branches 1
// and 2. Q18's two identical lineitem scans lower to one step, fused
// or not.
TEST_F(SharedScanTpchTest, Q19SharesOneLineitemPassAndQ18ScansItOnce) {
  ASSERT_OK_AND_ASSIGN(PhysicalPlan q19, PlanOn(*engine_, Fragment("Q19")));
  const auto lineitem = TableSteps(q19, "lineitem");
  ASSERT_EQ(lineitem.size(), 1u) << q19.Describe();
  EXPECT_EQ(lineitem.front()->spec().branches.size(), 3u);
  const std::string shared = "#" + std::to_string(lineitem.front()->id());
  EXPECT_NE(q19.Describe().find("BRANCH 1 of " + shared), std::string::npos)
      << q19.Describe();
  EXPECT_NE(q19.Describe().find("BRANCH 2 of " + shared), std::string::npos)
      << q19.Describe();
  ASSERT_OK_AND_ASSIGN(PhysicalPlan q19_unshared,
                       PlanOn(*engine_, Fragment("Q19"), Fused(false)));
  EXPECT_EQ(TableSteps(q19_unshared, "lineitem").size(), 3u);

  ASSERT_OK_AND_ASSIGN(PhysicalPlan q18, PlanOn(*engine_, Fragment("Q18")));
  EXPECT_EQ(Count(q18.Describe(), "scan lineitem |"), 1u) << q18.Describe();
  EXPECT_EQ(TableSteps(q18, "lineitem").size(), 1u);
  ASSERT_OK_AND_ASSIGN(PhysicalPlan q18_unfused,
                       PlanOn(*engine_, Fragment("Q18"), Fused(false)));
  EXPECT_EQ(Count(q18_unfused.Describe(), "SCAN lineitem"), 1u)
      << q18_unfused.Describe();
  EXPECT_EQ(TableSteps(q18_unfused, "lineitem").size(), 1u);

  // ExplainAnalyze prints the shared source once, its branches on
  // their own lines, and each BRANCH step's rows.
  ASSERT_OK_AND_ASSIGN(std::string explain,
                       engine_->ExplainAnalyze(Fragment("Q19")));
  EXPECT_EQ(Count(explain, "PIPELINE scan lineitem tile="), 3u) << explain;
  EXPECT_EQ(Count(explain, "(shown above)"), 4u) << explain;
  EXPECT_EQ(Count(explain, "\n          [2] filter+project"), 1u) << explain;
  EXPECT_EQ(Count(explain, "BRANCH 2 of " + shared + "  (rows="), 1u)
      << explain;
}

// Q19's UNION (its three branches' rows, in UNION order) and Q18 and
// Q19 end to end: shared against unshared (bit-identical, same
// dictionaries) and against Volcano, on every SIMD tier with encoded
// scans and join filters off and on.
TEST_F(SharedScanTpchTest, MatchesUnsharedAndVolcanoOnEveryTier) {
  const LogicalPtr q19_union = Fragment("Q19")->input;
  ASSERT_EQ(q19_union->kind, LogicalNode::Kind::kSetOp);
  ASSERT_OK_AND_ASSIGN(ColumnSet volcano_union,
                       hostdb::VolcanoExecutor::Execute(q19_union,
                                                        host_->catalog()));
  ASSERT_GT(volcano_union.num_rows(), 0u);
  std::vector<ColumnSet> volcano_queries;
  for (const char* name : {"Q18", "Q19"}) {
    ASSERT_OK_AND_ASSIGN(tpch::QueryRun run,
                         tpch::RunOnHost(*host_,
                                         tpch::BuildQuery(name).value()));
    volcano_queries.push_back(std::move(run.result));
  }
  for (int l = 0; l <= static_cast<int>(SimdLevelSupported()); ++l) {
    for (const auto encoded : {EncodedScanMode::kOff, EncodedScanMode::kAuto}) {
      for (const auto filter : {JoinFilterMode::kOff, JoinFilterMode::kAuto}) {
        ScopedConfig config(&Config::simd, static_cast<SimdLevel>(l));
        config.Set(&Config::encoded_scan, encoded);
        config.Set(&Config::join_filter, filter);
        const std::string where =
            " level " + std::to_string(l) + " encoded " +
            std::to_string(static_cast<int>(encoded)) + " joinfilter " +
            std::to_string(static_cast<int>(filter));
        ASSERT_OK_AND_ASSIGN(QueryResult shared,
                             engine_->Execute(q19_union, Fused(true)));
        ASSERT_OK_AND_ASSIGN(QueryResult unshared,
                             engine_->Execute(q19_union, Fused(false)));
        ASSERT_NE(shared.plan_text.find("branches=3"), std::string::npos);
        ExpectIdentical(shared.rows, unshared.rows, "Q19 union" + where);
        ExpectSameAcrossEngines(shared.rows, volcano_union,
                                "Q19 union vs Volcano" + where);
        // The shared pass reads lineitem once.
        EXPECT_LT(shared.stats.workload.scanned_rows,
                  unshared.stats.workload.scanned_rows)
            << where;

        for (size_t q = 0; q < 2; ++q) {
          const char* name = q == 0 ? "Q18" : "Q19";
          const tpch::TpchQuery query = tpch::BuildQuery(name).value();
          ASSERT_OK_AND_ASSIGN(tpch::QueryRun on,
                               tpch::RunOnRapid(*engine_, query, Fused(true)));
          ASSERT_OK_AND_ASSIGN(
              tpch::QueryRun off,
              tpch::RunOnRapid(*engine_, query, Fused(false)));
          ExpectIdentical(on.result, off.result, name + where);
          if (q == 0) {
            // Q18's one lineitem partition feeds its group-by and its
            // join, fused or not (its result at this scale is empty).
            EXPECT_EQ(on.workload.partitioned_rows,
                      off.workload.partitioned_rows)
                << where;
            EXPECT_EQ(on.workload.join_probe_rows,
                      off.workload.join_probe_rows)
                << where;
          }
          ExpectSameAcrossEngines(on.result, volcano_queries[q],
                                  std::string(name) + " vs Volcano" + where);
        }
      }
    }
  }
}

// The planner says why it shared, on the planner track, and tracing
// stays a pure observer: ExplainAnalyze (wall time aside) and the
// fault sites' poll counts are identical with tracing off, summary and
// full.
TEST_F(SharedScanTpchTest, TraceObservesSharingWithoutChangingIt) {
  const LogicalPtr plan = Fragment("Q19");
  // Masks the header's wall_ms and every node's wall_ms and
  // wall/modeled ratio.
  auto without_wall = [](std::string text) {
    for (const char* field : {" wall_ms=", " wall/modeled="}) {
      for (size_t at = text.find(field); at != std::string::npos;
           at = text.find(field, at)) {
        const size_t end = text.find_first_of(" )", at + 1);
        text.erase(at, end - at);
      }
    }
    return text;
  };
  // Warm the tile pools first: a cold pool's misses show in the
  // header of whichever run comes first, traced or not.
  ASSERT_OK(engine_->Execute(plan).status());
  std::vector<std::string> explains;
  std::vector<uint64_t> transfers;
  std::vector<uint64_t> allocs;
  for (const TraceMode mode :
       {TraceMode::kOff, TraceMode::kSummary, TraceMode::kFull}) {
    ScopedConfig trace(&Config::trace, mode);
    ASSERT_OK_AND_ASSIGN(std::string explain, engine_->ExplainAnalyze(plan));
    explains.push_back(without_wall(explain));
    transfers.push_back(CleanPollCount(faults::kDmsTransfer, [&] {
      ASSERT_OK(engine_->Execute(plan).status());
    }));
    allocs.push_back(CleanPollCount(faults::kDmemAlloc, [&] {
      ASSERT_OK(engine_->Execute(plan).status());
    }));
    if (mode == TraceMode::kSummary) {
      const std::string& json = core::RapidEngine::LastTrace();
      EXPECT_NE(json.find("\"fusion.shared_scan\""), std::string::npos);
      EXPECT_NE(json.find("\"members\":3"), std::string::npos);
      EXPECT_NE(json.find("\"share\":1"), std::string::npos);
    }
  }
  for (size_t m = 1; m < explains.size(); ++m) {
    EXPECT_EQ(explains[m], explains[0]) << "mode " << m;
    EXPECT_EQ(transfers[m], transfers[0]) << "mode " << m;
    EXPECT_EQ(allocs[m], allocs[0]) << "mode " << m;
  }
}

// ---- Faults inside the shared step -----------------------------------------

using SharedScanFaultTest = SharedScanTpchTest;

// A DMS descriptor inside the shared Q19 step that exhausts its
// attempts costs one in-place retry. The retry resumes the morsels
// that finished — a shared morsel is done only with every branch's
// rows in its slot — and returns exactly the clean rows.
TEST_F(SharedScanFaultTest, DmsFaultInSharedStepRetriesAndResumes) {
  const LogicalPtr plan = Fragment("Q19");
  ExecOptions options;
  options.retry_budget = 2;
  ASSERT_OK_AND_ASSIGN(QueryResult clean, engine_->Execute(plan, options));
  ASSERT_OK_AND_ASSIGN(PhysicalPlan physical, PlanOn(*engine_, plan));
  const int shared = SharedQ19Step(physical);
  ASSERT_GE(shared, 0) << physical.Describe();

  const uint64_t before =
      PrefixPolls(faults::kDmsTransfer, plan, shared);
  const uint64_t polls =
      PrefixPolls(faults::kDmsTransfer, plan, shared + 1) - before;
  ASSERT_GT(polls, 64u);
  for (const uint64_t skip : {polls / 4, polls / 2, polls - 2}) {
    ScopedFaultInjection fi(51);
    FaultInjector::SiteSpec spec;
    spec.skip_first = before + skip;
    spec.max_failures = 4;  // exhausts exactly one descriptor
    fi.Arm(faults::kDmsTransfer, spec);
    ASSERT_OK_AND_ASSIGN(QueryResult retried, engine_->Execute(plan, options));
    const std::string what = "skip " + std::to_string(skip);
    EXPECT_EQ(retried.stats.dpu_retries, 1u) << what;
    EXPECT_GT(retried.stats.resumed_morsels, 0u) << what;
    EXPECT_FALSE(retried.stats.demoted_to_unfused) << what;
    ExpectIdentical(retried.rows, clean.rows, what);
  }
}

// A DMEM OOM while a core opens the shared step's branches demotes to
// the unfused plan (three lineitem scans) and returns the clean rows.
TEST_F(SharedScanFaultTest, DmemOomInSharedOpenDemotesToUnshared) {
  const LogicalPtr plan = Fragment("Q19");
  ExecOptions options;
  options.retry_budget = 2;
  ASSERT_OK_AND_ASSIGN(QueryResult clean, engine_->Execute(plan, options));
  ASSERT_OK_AND_ASSIGN(PhysicalPlan physical, PlanOn(*engine_, plan));
  const int shared = SharedQ19Step(physical);
  ASSERT_GE(shared, 0) << physical.Describe();

  // The step's first allocation is an operator's, in its first core's
  // Open: the core opens its branches before the accessor stages tiles.
  const uint64_t before = PrefixPolls(faults::kDmemAlloc, plan, shared);
  ScopedFaultInjection fi(52);
  FaultInjector::SiteSpec spec;
  spec.code = StatusCode::kOutOfMemory;
  spec.skip_first = before;
  spec.max_failures = 1;
  fi.Arm(faults::kDmemAlloc, spec);
  ASSERT_OK_AND_ASSIGN(QueryResult demoted, engine_->Execute(plan, options));
  EXPECT_EQ(FaultInjector::Instance().failures(faults::kDmemAlloc), 1u);
  EXPECT_TRUE(demoted.stats.demoted_to_unfused);
  EXPECT_EQ(Count(demoted.plan_text, "SCAN lineitem"), 3u)
      << demoted.plan_text;
  ExpectIdentical(demoted.rows, clean.rows, "demoted");
}

}  // namespace
}  // namespace rapid
