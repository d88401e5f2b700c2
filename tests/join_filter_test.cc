// Join-filter pushdown (sideways information passing): build-side
// blocked Bloom filters pruning probe rows before partitioning and
// the hash probe. End-to-end contract: RAPID_JOIN_FILTER=off vs auto
// is bit-identical across SIMD tiers, join types
// (the filter never changes semi/anti/left-outer semantics) and
// injected DMS faults; the gate never changes plan shape; and the
// pruning counters are visible through ExecutionStats/QueryReport,
// zeroed on host fallback.

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/config.h"
#include "common/fault.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/engine.h"
#include "core/ops/join_exec.h"
#include "core/ops/partition_exec.h"
#include "core/qcomp/planner.h"
#include "core/qcomp/steps.h"
#include "dpu/dpu.h"
#include "hostdb/database.h"
#include "hostdb/offload.h"
#include "storage/loader.h"
#include "tests/test_util.h"

namespace rapid {
namespace {

using core::ColumnSet;
using core::ExecOptions;
using core::JoinExec;
using core::JoinSpec;
using core::JoinStats;
using core::JoinType;
using core::LogicalNode;
using core::LogicalPtr;
using core::PartitionedData;
using core::PartitionExec;
using core::PartitionRound;
using core::PartitionScheme;
using core::Predicate;
using core::QueryResult;
using hostdb::HostDatabase;
using hostdb::QueryReport;
using rapid::testing::ExpectSameRows;
using rapid::testing::MakeColumnSet;
using rapid::testing::Rows;
using rapid::testing::SortedRows;

// A selective FK join: dim keys 0..4095 with a ~1% filter on the
// payload, facts referencing the full key domain — ~99% of fact rows
// have no surviving build match and are Bloom-prunable.
class JoinFilterEngineTest : public ::testing::Test {
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
        {"v", storage::ColumnKind::kInt64}};
    std::vector<storage::ColumnData> fact_data(2);
    Rng rng(2026);
    for (int i = 0; i < 20000; ++i) {
      fact_data[0].ints.push_back(i);
      fact_data[1].ints.push_back(rng.NextInRange(0, 4095));
    }
    ASSERT_OK(host_.CreateTable("fact", fact_specs, fact_data));
    ASSERT_OK(host_.LoadToRapid("fact", &engine_));
  }

  // Build side (dim) filtered to ~1% of its keys; probe side scans
  // the whole fact table.
  static LogicalPtr SelectivePlan(JoinType type) {
    std::vector<std::string> outputs;
    switch (type) {
      case JoinType::kSemi:
      case JoinType::kAnti:
        outputs = {"id"};  // probe side only
        break;
      default:
        outputs = {"id", "w"};
    }
    return LogicalNode::Join(
        LogicalNode::Scan("dim", {"k", "w"},
                          {Predicate::Between("w", 0, 40, 0.01)}),
        LogicalNode::Scan("fact", {"id", "v"}), {"k"}, {"v"},
        std::move(outputs), type);
  }

  HostDatabase host_;
  core::RapidEngine engine_{dpu::DpuConfig{}};
};

TEST_F(JoinFilterEngineTest, OffAndAutoBitIdenticalAcrossTiersAndSchedulers) {
  QueryResult reference;
  {
    ScopedConfig off(&Config::join_filter, JoinFilterMode::kOff);
    ASSERT_OK_AND_ASSIGN(reference,
                         engine_.Execute(SelectivePlan(JoinType::kInner)));
    EXPECT_EQ(reference.stats.join_filter_built, 0u);
    EXPECT_EQ(reference.stats.rows_pruned_by_join_filter, 0u);
    EXPECT_EQ(reference.stats.filter_bytes, 0u);
  }
  ASSERT_GT(reference.rows.num_rows(), 0u);

  const SimdLevel levels[] = {SimdLevel::kScalar, SimdLevel::kSse42,
                              SimdLevel::kAvx2};
  for (SimdLevel level : levels) {
    ScopedConfig simd(&Config::simd, level);
    QueryResult off_run;
    QueryResult auto_run;
    {
      ScopedConfig off(&Config::join_filter, JoinFilterMode::kOff);
      ASSERT_OK_AND_ASSIGN(off_run,
                           engine_.Execute(SelectivePlan(JoinType::kInner)));
    }
    {
      ScopedConfig on(&Config::join_filter, JoinFilterMode::kAuto);
      ASSERT_OK_AND_ASSIGN(auto_run,
                           engine_.Execute(SelectivePlan(JoinType::kInner)));
    }
    ExpectSameRows(off_run.rows, reference.rows);
    ExpectSameRows(auto_run.rows, reference.rows);
    // The filter really ran and pruned: ~99% of fact rows reference
    // dim keys the build-side predicate dropped.
    EXPECT_GT(auto_run.stats.join_filter_built, 0u) << SimdLevelName(level);
    EXPECT_GT(auto_run.stats.rows_pruned_by_join_filter,
              auto_run.rows.num_rows())
        << SimdLevelName(level);
    EXPECT_GT(auto_run.stats.filter_bytes, 0u) << SimdLevelName(level);
    EXPECT_EQ(off_run.stats.rows_pruned_by_join_filter, 0u);
  }
}

TEST_F(JoinFilterEngineTest, SemiAntiLeftOuterSemanticsUnchanged) {
  // Anti and left-outer emit probe rows *without* a build match — the
  // rows a filter prunes — so these types exercise the guarantee that
  // pruning skips probe work without dropping output rows.
  const JoinType types[] = {JoinType::kSemi, JoinType::kAnti,
                            JoinType::kLeftOuter};
  const SimdLevel levels[] = {SimdLevel::kScalar, SimdLevel::kSse42,
                              SimdLevel::kAvx2};
  for (JoinType type : types) {
    QueryResult reference;
    {
      ScopedConfig off(&Config::join_filter, JoinFilterMode::kOff);
      ASSERT_OK_AND_ASSIGN(reference, engine_.Execute(SelectivePlan(type)));
    }
    ASSERT_GT(reference.rows.num_rows(), 0u);
    for (SimdLevel level : levels) {
      ScopedConfig simd(&Config::simd, level);
      ScopedConfig on(&Config::join_filter, JoinFilterMode::kAuto);
      ASSERT_OK_AND_ASSIGN(QueryResult auto_run,
                           engine_.Execute(SelectivePlan(type)));
      ExpectSameRows(auto_run.rows, reference.rows);
    }
  }
  // Anti join output covers the pruned key range: pruning never
  // removed a no-match row.
  ScopedConfig on(&Config::join_filter, JoinFilterMode::kAuto);
  ASSERT_OK_AND_ASSIGN(QueryResult anti,
                       engine_.Execute(SelectivePlan(JoinType::kAnti)));
  EXPECT_GT(anti.rows.num_rows(), 15000u);
}

TEST_F(JoinFilterEngineTest, SurvivesInjectedDmsFaultBitIdentical) {
  ScopedConfig on(&Config::join_filter, JoinFilterMode::kAuto);
  ASSERT_OK_AND_ASSIGN(QueryResult clean,
                       engine_.Execute(SelectivePlan(JoinType::kInner)));
  ASSERT_GT(clean.stats.rows_pruned_by_join_filter, 0u);

  // Transient dms.transfer faults: descriptor retries and checkpoint
  // replays must rebuild/re-evaluate the filter to the same rows.
  ScopedFaultInjection fi(93);
  FaultInjector::SiteSpec spec;
  spec.max_failures = 2;
  fi.Arm(faults::kDmsTransfer, spec);

  ASSERT_OK_AND_ASSIGN(QueryResult faulted,
                       engine_.Execute(SelectivePlan(JoinType::kInner)));
  EXPECT_EQ(FaultInjector::Instance().failures(faults::kDmsTransfer), 2u);
  ExpectSameRows(faulted.rows, clean.rows);
  EXPECT_GT(faulted.stats.rows_pruned_by_join_filter, 0u);
}

TEST_F(JoinFilterEngineTest, QueryReportExposesCountersAndZerosOnFallback) {
  ScopedConfig on(&Config::join_filter, JoinFilterMode::kAuto);
  LogicalPtr plan = SelectivePlan(JoinType::kInner);
  ASSERT_OK_AND_ASSIGN(QueryReport report, host_.ExecuteQuery(plan, &engine_));
  ASSERT_FALSE(report.fell_back);
  EXPECT_GT(report.rapid_stats.join_filter_built, 0u);
  EXPECT_GT(report.rapid_stats.rows_pruned_by_join_filter, 0u);
  EXPECT_GT(report.rapid_stats.filter_bytes, 0u);

  {
    ScopedConfig off(&Config::join_filter, JoinFilterMode::kOff);
    ASSERT_OK_AND_ASSIGN(QueryReport off_report,
                         host_.ExecuteQuery(plan, &engine_));
    EXPECT_EQ(off_report.rapid_stats.rows_pruned_by_join_filter, 0u);
    EXPECT_EQ(off_report.rapid_stats.join_filter_built, 0u);
    ExpectSameRows(report.rows, off_report.rows);
  }

  // Persistent DMS fault: the query falls back to the host, which
  // builds no Bloom filters — all counters must read zero while the
  // rows stay bit-identical.
  ScopedFaultInjection fi(94);
  fi.Arm(faults::kDmsTransfer, FaultInjector::SiteSpec{});  // always fails
  ASSERT_OK_AND_ASSIGN(QueryReport fallback,
                       host_.ExecuteQuery(plan, &engine_));
  EXPECT_TRUE(fallback.fell_back);
  EXPECT_EQ(fallback.rapid_stats.join_filter_built, 0u);
  EXPECT_EQ(fallback.rapid_stats.rows_pruned_by_join_filter, 0u);
  EXPECT_EQ(fallback.rapid_stats.filter_bytes, 0u);
  EXPECT_EQ(SortedRows(fallback.rows), SortedRows(report.rows));
}

// ---- Plan shape ------------------------------------------------------------

// Lowers a plan (fusion disabled so steps stay inspectable) and
// returns the probe-side ScanStep's filter ref state.
bool ProbeScanHasFilterRef(const core::Catalog& catalog,
                           const LogicalPtr& plan) {
  core::PlannerOptions options;
  options.enable_fusion = false;
  core::Planner planner(dpu::DpuConfig::Default(), dpu::CostParams::Default(),
                        options);
  auto lowered = planner.Plan(plan, catalog);
  EXPECT_TRUE(lowered.ok()) << lowered.status().ToString();
  if (!lowered.ok()) return false;
  for (const auto& step : lowered.value().steps) {
    if (auto* scan = dynamic_cast<core::ScanStep*>(step.get())) {
      if (scan->join_filter().enabled()) return true;
    }
  }
  return false;
}

TEST(JoinFilterPlanTest, RefAttachmentIndependentOfGateAndTypeAware) {
  std::vector<storage::ColumnSpec> dim_specs = {
      {"k", storage::ColumnKind::kInt64},
      {"w", storage::ColumnKind::kInt32}};
  std::vector<storage::ColumnData> dim_data(2);
  for (int i = 0; i < 4096; ++i) {
    dim_data[0].ints.push_back(i);
    dim_data[1].ints.push_back(i);
  }
  std::vector<storage::ColumnSpec> fact_specs = {
      {"id", storage::ColumnKind::kInt64},
      {"v", storage::ColumnKind::kInt64}};
  std::vector<storage::ColumnData> fact_data(2);
  for (int i = 0; i < 20000; ++i) {
    fact_data[0].ints.push_back(i);
    fact_data[1].ints.push_back(i % 4096);
  }
  core::Catalog catalog;
  ASSERT_OK_AND_ASSIGN(storage::Table dim,
                       storage::LoadTable("dim", dim_specs, dim_data));
  catalog.emplace("dim", std::move(dim));
  ASSERT_OK_AND_ASSIGN(storage::Table fact,
                       storage::LoadTable("fact", fact_specs, fact_data));
  catalog.emplace("fact", std::move(fact));

  auto plan = [](JoinType type) {
    return LogicalNode::Join(
        LogicalNode::Scan("dim", {"k", "w"},
                          {Predicate::Between("w", 0, 40, 0.01)}),
        LogicalNode::Scan("fact", {"id", "v"}), {"k"}, {"v"},
        std::vector<std::string>{"id"}, type);
  };

  // The gate is runtime-only: the planner attaches the ref in both
  // modes, so toggling RAPID_JOIN_FILTER never changes plan shape.
  {
    ScopedConfig off(&Config::join_filter, JoinFilterMode::kOff);
    EXPECT_TRUE(ProbeScanHasFilterRef(catalog, plan(JoinType::kInner)));
  }
  {
    ScopedConfig on(&Config::join_filter, JoinFilterMode::kAuto);
    EXPECT_TRUE(ProbeScanHasFilterRef(catalog, plan(JoinType::kInner)));
    EXPECT_TRUE(ProbeScanHasFilterRef(catalog, plan(JoinType::kSemi)));
    // Anti and left-outer emit probe rows without a match; a scan-side
    // prune would drop their output, so no ref is ever attached.
    EXPECT_FALSE(ProbeScanHasFilterRef(catalog, plan(JoinType::kAnti)));
    EXPECT_FALSE(ProbeScanHasFilterRef(catalog, plan(JoinType::kLeftOuter)));
  }
}

// ---- Join-kernel internal filter -------------------------------------------

// The partitioned join kernel's own per-pair filter (the path used
// when no scan-side pushdown covers the probe input): exercises both
// the batched probe (inner/semi/anti) and the per-row probe
// (left-outer) with spec.build_join_filter set.
class JoinKernelFilterTest : public ::testing::Test {
 protected:
  struct Inputs {
    PartitionedData build;
    PartitionedData probe;
  };

  // Build keys cover 1/8 of the probe key domain: most probe rows are
  // prunable.
  Inputs MakeInputs() {
    std::vector<int64_t> bk, bv, pk, pv;
    for (int64_t i = 0; i < 256; ++i) {
      bk.push_back(i);
      bv.push_back(i * 10);
    }
    Rng rng(5150);
    for (int64_t i = 0; i < 4000; ++i) {
      pk.push_back(rng.NextInRange(0, 2047));
      pv.push_back(i);
    }
    ColumnSet build = MakeColumnSet({"k", "bv"}, {bk, bv});
    ColumnSet probe = MakeColumnSet({"k", "pv"}, {pk, pv});
    PartitionScheme scheme;
    scheme.rounds.push_back(PartitionRound{32, 32});
    Inputs in;
    in.build = PartitionExec::Execute(dpu_, build, {0}, scheme, 128).value();
    in.probe = PartitionExec::Execute(dpu_, probe, {0}, scheme, 128).value();
    return in;
  }

  static JoinSpec Spec(JoinType type) {
    JoinSpec spec;
    spec.type = type;
    spec.build_keys = {0};
    spec.probe_keys = {0};
    spec.build_join_filter = true;
    if (type == JoinType::kSemi || type == JoinType::kAnti) {
      spec.outputs = {{false, 0}, {false, 1}};
    } else {
      spec.outputs = {{true, 1}, {false, 0}, {false, 1}};
    }
    return spec;
  }

  // The per-core join-filter tallies summed over the DPU since the
  // last ResetCores — what ExecutePhysical folds into ExecutionStats.
  dpu::CoreCounters SummedCounters() {
    dpu::CoreCounters sum;
    for (int c = 0; c < dpu_.num_cores(); ++c) {
      sum.Accumulate(dpu_.core(c).counters());
    }
    return sum;
  }

  dpu::Dpu dpu_;
};

TEST_F(JoinKernelFilterTest, PrunesWithoutChangingAnyJoinTypeOutput) {
  Inputs in = MakeInputs();
  const JoinType types[] = {JoinType::kInner, JoinType::kSemi,
                            JoinType::kAnti, JoinType::kLeftOuter};
  for (JoinType type : types) {
    ColumnSet off_result;
    JoinStats off_stats;
    dpu::CoreCounters off_counters;
    {
      ScopedConfig off(&Config::join_filter, JoinFilterMode::kOff);
      dpu_.ResetCores();
      ASSERT_OK_AND_ASSIGN(off_result,
                           JoinExec::Execute(dpu_, in.build, in.probe,
                                             Spec(type), &off_stats));
      off_counters = SummedCounters();
    }
    ColumnSet auto_result;
    JoinStats auto_stats;
    dpu::CoreCounters auto_counters;
    {
      ScopedConfig on(&Config::join_filter, JoinFilterMode::kAuto);
      dpu_.ResetCores();
      ASSERT_OK_AND_ASSIGN(auto_result,
                           JoinExec::Execute(dpu_, in.build, in.probe,
                                             Spec(type), &auto_stats));
      auto_counters = SummedCounters();
    }
    // Exact emission order must match, not just the row multiset.
    EXPECT_EQ(Rows(off_result), Rows(auto_result))
        << "type=" << static_cast<int>(type);
    EXPECT_EQ(off_counters.join_filter_built, 0u);
    EXPECT_EQ(off_counters.rows_pruned_by_join_filter, 0u);
    EXPECT_GT(auto_counters.join_filter_built, 0u)
        << "type=" << static_cast<int>(type);
    // ~7/8 of probe keys fall outside the build domain.
    EXPECT_GT(auto_counters.rows_pruned_by_join_filter, 2000u)
        << "type=" << static_cast<int>(type);
    EXPECT_GT(auto_counters.filter_bytes, 0u);
    EXPECT_EQ(auto_stats.matches, off_stats.matches);
  }
}

TEST_F(JoinKernelFilterTest, SpecFlagOffMeansNoFilterEvenInAutoMode) {
  Inputs in = MakeInputs();
  ScopedConfig on(&Config::join_filter, JoinFilterMode::kAuto);
  JoinSpec spec = Spec(JoinType::kInner);
  spec.build_join_filter = false;  // planner cost gate said no
  dpu_.ResetCores();
  ASSERT_OK_AND_ASSIGN(ColumnSet result,
                       JoinExec::Execute(dpu_, in.build, in.probe, spec));
  EXPECT_EQ(SummedCounters().join_filter_built, 0u);
  EXPECT_EQ(SummedCounters().rows_pruned_by_join_filter, 0u);
  EXPECT_GT(result.num_rows(), 0u);
}

}  // namespace
}  // namespace rapid
