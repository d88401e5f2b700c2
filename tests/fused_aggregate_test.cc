// Tests for the low-NDV group-by fused into its scan pipeline as the
// chain's aggregate sink: every result must be bit-identical to the
// unfused plan (rows, row order, types, scales and dictionaries) on
// every SIMD tier and core count, and a retry must restart the step
// rather than resume a core's half-built table.

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/config.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/simd.h"
#include "core/engine.h"
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
using core::LogicalNode;
using core::LogicalPtr;
using core::Predicate;
using core::QueryResult;
using primitives::CmpOp;
using rapid::testing::CleanPollCount;
using rapid::testing::ExpectIdentical;

constexpr int kCoreCounts[] = {1, 4, 32};

ExecOptions Fused(bool on) {
  ExecOptions options;
  options.planner.enable_fusion = on;
  return options;
}

bool HasAggregateStage(const QueryResult& result) {
  return result.plan_text.find("| aggregate low-ndv") != std::string::npos;
}

// ---- TPC-H -----------------------------------------------------------------

class FusedAggregateTpchTest : public ::testing::Test {
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

  // Runs every fragment of `name` fused and unfused on `engine` and
  // compares each fragment's result. Returns whether any fused
  // fragment plan carried an aggregate stage.
  static bool CompareQuery(core::RapidEngine& engine, const std::string& name,
                           const std::string& what) {
    auto query = tpch::BuildQuery(name);
    EXPECT_TRUE(query.ok()) << name;
    if (!query.ok()) return false;
    bool fused_aggregate = false;
    std::vector<ColumnSet> prev;
    for (size_t f = 0; f < query.value().fragments.size(); ++f) {
      auto plan = query.value().fragments[f](engine.catalog(), prev);
      EXPECT_TRUE(plan.ok()) << what;
      if (!plan.ok()) return false;
      auto fused = engine.Execute(plan.value(), Fused(true));
      auto unfused = engine.Execute(plan.value(), Fused(false));
      EXPECT_TRUE(fused.ok() && unfused.ok()) << what;
      if (!fused.ok() || !unfused.ok()) return false;
      EXPECT_FALSE(HasAggregateStage(unfused.value())) << what;
      fused_aggregate = fused_aggregate || HasAggregateStage(fused.value());
      ExpectIdentical(fused.value().rows, unfused.value().rows,
                      what + " fragment " + std::to_string(f));
      // Workload volumes feed the perf/watt model: fusion moves none.
      EXPECT_EQ(fused.value().stats.workload.agg_rows,
                unfused.value().stats.workload.agg_rows)
          << what;
      EXPECT_EQ(fused.value().stats.workload.scanned_rows,
                unfused.value().stats.workload.scanned_rows)
          << what;
      prev.push_back(std::move(fused.value().rows));
    }
    return fused_aggregate;
  }

  static hostdb::HostDatabase* host_;
  static std::vector<core::RapidEngine*> engines_;
};

hostdb::HostDatabase* FusedAggregateTpchTest::host_ = nullptr;
std::vector<core::RapidEngine*> FusedAggregateTpchTest::engines_;

TEST_F(FusedAggregateTpchTest, ScanQueriesMatchUnfusedOnEveryTierAndCoreCount) {
  for (int l = 0; l <= static_cast<int>(SimdLevelSupported()); ++l) {
    ScopedConfig config(&Config::simd, static_cast<SimdLevel>(l));
    for (size_t e = 0; e < engines_.size(); ++e) {
      const std::string where = " level " + std::to_string(l) + " cores " +
                                std::to_string(kCoreCounts[e]);
      // Q1 and Q6 aggregate inside their lineitem scan, Q11's global
      // SUM inside its broadcast-probe pipeline (its keyed group-by
      // aggregates the probe's stored output in a step of its own).
      EXPECT_TRUE(CompareQuery(*engines_[e], "Q1", "Q1" + where));
      EXPECT_TRUE(CompareQuery(*engines_[e], "Q6", "Q6" + where));
      EXPECT_TRUE(CompareQuery(*engines_[e], "Q11", "Q11" + where));
    }
  }
}

TEST_F(FusedAggregateTpchTest, FusedQ1SkipsTheIntermediate) {
  auto query = tpch::BuildQuery("Q1");
  ASSERT_TRUE(query.ok());
  auto plan = query.value().fragments[0](engines_[2]->catalog(), {});
  ASSERT_TRUE(plan.ok());
  ASSERT_OK_AND_ASSIGN(QueryResult fused,
                       engines_[2]->Execute(plan.value(), Fused(true)));
  ASSERT_OK_AND_ASSIGN(QueryResult unfused,
                       engines_[2]->Execute(plan.value(), Fused(false)));
  // Scan + group-by collapse into one step: the 59K qualifying
  // lineitem rows are never stored and re-read.
  EXPECT_EQ(fused.stats.steps.size() + 1, unfused.stats.steps.size())
      << fused.plan_text << unfused.plan_text;
  EXPECT_LT(fused.stats.total_dms_cycles, 0.75 * unfused.stats.total_dms_cycles);
  EXPECT_LT(fused.stats.modeled_seconds, unfused.stats.modeled_seconds);
  EXPECT_EQ(fused.stats.workload.agg_rows, unfused.stats.workload.agg_rows);
  ASSERT_OK_AND_ASSIGN(std::string explain,
                       engines_[2]->ExplainAnalyze(plan.value()));
  EXPECT_NE(explain.find("PIPELINE scan lineitem | filter+project preds=1 "
                         "proj=6 | aggregate low-ndv keys=2 aggs=6"),
            std::string::npos)
      << explain;
}

// Q4 and Q14 group a join's output, Q19 a UNION's: a group-by over a
// breaker reads its input as aggregation, not as a scan. Its input rows
// count once, in agg_rows. scanned_rows counts what the plan's steps
// read by DMS scan: each table-source step's table, and each
// filter/project over an intermediate's input. These volumes feed the
// perf/watt model's Xeon side, fused and unfused alike. A 512-row
// broadcast gate keeps Q14's join partitioned at SF 0.01, as it is at
// SF 0.1.
TEST_F(FusedAggregateTpchTest, GroupByOverABreakerCountsItsInputOnce) {
  core::RapidEngine& engine = *engines_[1];
  for (const std::string name : {"Q4", "Q14", "Q19"}) {
    auto query = tpch::BuildQuery(name);
    ASSERT_TRUE(query.ok());
    auto plan = query.value().fragments[0](engine.catalog(), {});
    ASSERT_TRUE(plan.ok());
    for (const bool fusion : {true, false}) {
      const std::string what = name + (fusion ? " fused" : " unfused");
      ExecOptions options = Fused(fusion);
      options.planner.fusion_max_build_rows = 512;
      ASSERT_OK_AND_ASSIGN(QueryResult result,
                           engine.Execute(plan.value(), options));
      auto rows_out = [&result](const std::string& step) {
        uint64_t rows = 0;
        for (const core::StepTiming& t : result.stats.steps) {
          if ("#" + std::to_string(t.step_id) == step) rows += t.rows_out;
        }
        return rows;
      };
      uint64_t scanned = 0;
      uint64_t grouped = 0;
      size_t group_bys = 0;
      std::istringstream lines(result.plan_text);
      for (std::string line; std::getline(lines, line);) {
        // "#3 PIPELINE scan t ...", "#5 PIPE #4 ...", "#8 GROUPBY #7 ...";
        // a shared scan's "  [k] ..." branch lines read nothing more.
        std::istringstream words(line);
        std::string id;
        std::string kind;
        std::string source;
        words >> id >> kind >> source;
        if (kind == "PIPELINE" && source == "scan") words >> source;
        if (kind == "SCAN" || kind == "PIPELINE" || kind == "PIPE") {
          if (source.rfind('#', 0) == 0) {
            scanned += rows_out(source);
          } else {
            ASSERT_NE(engine.GetTable(source), nullptr) << what << ": " << line;
            scanned += engine.GetTable(source)->num_rows();
          }
        } else if (kind == "GROUPBY") {
          ++group_bys;
          grouped += rows_out(source);
        }
      }
      EXPECT_EQ(group_bys, 1u) << what << "\n" << result.plan_text;
      EXPECT_GT(grouped, 0u) << what;
      EXPECT_EQ(result.stats.workload.agg_rows, grouped) << what;
      EXPECT_EQ(result.stats.workload.scanned_rows, scanned)
          << what << "\n" << result.plan_text;
    }
  }
}

// ---- Synthetic tables ------------------------------------------------------

// Columns: a scale-2 decimal key `dk` (8 values), an int key `g`
// (5 values), a scale-2 decimal value `v` and a filter column `f`.
// Rows [0, dead_rows) all carry f = 9.
struct Synthetic {
  std::vector<storage::ColumnSpec> specs = {
      {"dk", storage::ColumnKind::kDecimal},
      {"g", storage::ColumnKind::kInt32},
      {"v", storage::ColumnKind::kDecimal},
      {"f", storage::ColumnKind::kInt32}};
  std::vector<storage::ColumnData> data = std::vector<storage::ColumnData>(4);

  Synthetic(int rows, int dead_rows) {
    for (int r = 0; r < rows; ++r) {
      data[0].decimals.push_back(static_cast<double>((r * 7) % 8) + 0.25);
      data[1].ints.push_back((r * 13 + r / 211) % 5);
      data[2].decimals.push_back(
          static_cast<double>((r * 104729) % 20011 - 10000) / 100.0);
      data[3].ints.push_back(r < dead_rows ? 9 : r % 7);
    }
  }
};

std::vector<core::AggSpec> FilteredAggs() {
  auto pass = [] {
    return std::make_shared<Predicate>(
        Predicate::CmpConst("f", CmpOp::kLt, 4));
  };
  return {{"sum_f", AggFunc::kSum, Expr::Col("v"), pass()},
          {"min_f", AggFunc::kMin, Expr::Col("v"), pass()},
          {"max_f", AggFunc::kMax, Expr::Col("v"), pass()},
          {"cnt_f", AggFunc::kCount, nullptr, pass()},
          {"sum", AggFunc::kSum, Expr::Col("v"), {}},
          {"cnt", AggFunc::kCount, nullptr, {}}};
}

// Loads table "s" into one engine per core count.
std::vector<std::unique_ptr<core::RapidEngine>> LoadEverywhere(
    const std::vector<storage::ColumnSpec>& specs,
    const std::vector<storage::ColumnData>& data, size_t rows_per_chunk) {
  std::vector<std::unique_ptr<core::RapidEngine>> engines;
  storage::LoadOptions opts;
  opts.rows_per_chunk = rows_per_chunk;
  for (const int cores : kCoreCounts) {
    dpu::DpuConfig config;
    config.num_cores = cores;
    engines.push_back(std::make_unique<core::RapidEngine>(config));
    auto table = storage::LoadTable("s", specs, data, opts);
    RAPID_CHECK_OK(table.status());
    RAPID_CHECK_OK(engines.back()->Load(std::move(table).value()));
  }
  return engines;
}

// Runs `plan` fused and unfused on every engine and SIMD tier.
void ExpectFusedMatchesUnfused(
    const std::vector<std::unique_ptr<core::RapidEngine>>& engines,
    const LogicalPtr& plan, const std::string& what) {
  for (int l = 0; l <= static_cast<int>(SimdLevelSupported()); ++l) {
    ScopedConfig config(&Config::simd, static_cast<SimdLevel>(l));
    for (size_t e = 0; e < engines.size(); ++e) {
      const std::string where = what + " level " + std::to_string(l) +
                                " cores " + std::to_string(kCoreCounts[e]);
      ASSERT_OK_AND_ASSIGN(QueryResult fused,
                           engines[e]->Execute(plan, Fused(true)));
      ASSERT_OK_AND_ASSIGN(QueryResult unfused,
                           engines[e]->Execute(plan, Fused(false)));
      EXPECT_TRUE(HasAggregateStage(fused)) << where << "\n"
                                            << fused.plan_text;
      ExpectIdentical(fused.rows, unfused.rows, where);
      EXPECT_EQ(fused.stats.workload.agg_rows,
                unfused.stats.workload.agg_rows)
          << where;
    }
  }
}

TEST(FusedAggregateTest, DecimalKeysAndFilteredAggregatesMatchUnfused) {
  const Synthetic data(5000, 0);
  const auto engines = LoadEverywhere(data.specs, data.data, 512);
  const LogicalPtr plan = LogicalNode::GroupBy(
      LogicalNode::Scan("s", {"dk", "g", "v", "f"},
                        {Predicate::CmpConst("g", CmpOp::kLt, 4)}),
      {{"dk", Expr::Col("dk")}, {"g", Expr::Col("g")}}, FilteredAggs());
  ExpectFusedMatchesUnfused(engines, plan, "two keys");
  ASSERT_OK_AND_ASSIGN(QueryResult result, engines[1]->Execute(plan));
  ASSERT_EQ(result.rows.num_rows(), 32u);
  EXPECT_EQ(result.rows.meta(0).dsb_scale, 2);
  EXPECT_EQ(result.rows.meta(0).type, storage::DataType::kDecimal);
  EXPECT_EQ(result.rows.meta(2).dsb_scale, 2);
}

TEST(FusedAggregateTest, AllRowsFilteredMatchesUnfused) {
  const Synthetic data(3000, 0);
  const auto engines = LoadEverywhere(data.specs, data.data, 512);
  const auto none = [] {
    return LogicalNode::Scan("s", {"dk", "g", "v", "f"},
                             {Predicate::CmpConst("f", CmpOp::kGt, 100)});
  };
  ExpectFusedMatchesUnfused(
      engines,
      LogicalNode::GroupBy(none(), {{"g", Expr::Col("g")}}, FilteredAggs()),
      "keyed");
  // Keyless, only COUNTs have a value over no rows (see
  // KeylessAggregateOverNoRows).
  const std::vector<core::AggSpec> counts = {
      {"cnt_f", AggFunc::kCount, nullptr,
       std::make_shared<Predicate>(Predicate::CmpConst("f", CmpOp::kLt, 4))},
      {"cnt", AggFunc::kCount, nullptr, {}}};
  ExpectFusedMatchesUnfused(engines, LogicalNode::GroupBy(none(), {}, counts),
                            "global");
}

// A keyless aggregate over no rows: one row of COUNT zeros, or, for a
// SUM, MIN or MAX (these engines have no NULL), a NotSupported error
// rather than an empty OK result. Both engines, fused and unfused, on
// every engine and SIMD tier.
TEST(FusedAggregateTest, KeylessAggregateOverNoRows) {
  const Synthetic data(3000, 0);
  const auto engines = LoadEverywhere(data.specs, data.data, 512);
  core::Catalog host;
  {
    auto table = storage::LoadTable("s", data.specs, data.data);
    RAPID_CHECK_OK(table.status());
    host.emplace("s", std::move(table).value());
  }
  const auto none = [] {
    return LogicalNode::Scan("s", {"dk", "g", "v", "f"},
                             {Predicate::CmpConst("f", CmpOp::kGt, 100)});
  };
  const std::vector<core::AggSpec> counts = {
      {"cnt", AggFunc::kCount, nullptr, {}},
      {"cnt_v", AggFunc::kCount, Expr::Col("v"), {}}};
  const LogicalPtr count_plan = LogicalNode::GroupBy(none(), {}, counts);
  auto want = hostdb::VolcanoExecutor::Execute(count_plan, host);
  ASSERT_OK(want.status());
  ASSERT_EQ(want.value().num_rows(), 1u);
  EXPECT_EQ(want.value().Value(0, 0), 0);
  EXPECT_EQ(want.value().Value(0, 1), 0);
  for (const AggFunc func : {AggFunc::kSum, AggFunc::kMin, AggFunc::kMax}) {
    const LogicalPtr plan = LogicalNode::GroupBy(
        none(), {},
        {{"cnt", AggFunc::kCount, nullptr, {}},
         {"x", func, Expr::Col("v"), {}}});
    const auto host_result = hostdb::VolcanoExecutor::Execute(plan, host);
    EXPECT_EQ(host_result.status().code(), StatusCode::kNotSupported)
        << host_result.status().ToString();
  }
  for (int l = 0; l <= static_cast<int>(SimdLevelSupported()); ++l) {
    ScopedConfig config(&Config::simd, static_cast<SimdLevel>(l));
    for (size_t e = 0; e < engines.size(); ++e) {
      for (const bool fused : {true, false}) {
        const std::string where = "level " + std::to_string(l) + " cores " +
                                  std::to_string(kCoreCounts[e]) +
                                  (fused ? " fused" : " unfused");
        ASSERT_OK_AND_ASSIGN(QueryResult got,
                             engines[e]->Execute(count_plan, Fused(fused)));
        ExpectIdentical(got.rows, want.value(), where);
        for (const AggFunc func :
             {AggFunc::kSum, AggFunc::kMin, AggFunc::kMax}) {
          const LogicalPtr plan = LogicalNode::GroupBy(
              none(), {}, {{"x", func, Expr::Col("v"), {}}});
          const auto result = engines[e]->Execute(plan, Fused(fused));
          EXPECT_EQ(result.status().code(), StatusCode::kNotSupported)
              << where << ": " << result.status().ToString();
        }
      }
    }
  }
}

TEST(FusedAggregateTest, CoresWithoutRowsLeaveTheScalesAlone) {
  // Three 1024-row chunks and a 200-row tail. Every row of the first
  // chunk fails the scan predicate, so the core the largest-first deal
  // gives it aggregates nothing; at 4 and 32 cores some cores get no
  // morsel at all. The decimal key and SUM must keep scale 2 whichever
  // core's table the merge starts from.
  const Synthetic data(3272, 1024);
  const auto engines = LoadEverywhere(data.specs, data.data, 1024);
  const auto live = [] {
    return LogicalNode::Scan("s", {"dk", "g", "v", "f"},
                             {Predicate::CmpConst("f", CmpOp::kLt, 9)});
  };
  const std::vector<core::AggSpec> sum = {
      {"s", AggFunc::kSum, Expr::Col("v"), {}}};
  const LogicalPtr keyed =
      LogicalNode::GroupBy(live(), {{"dk", Expr::Col("dk")}}, sum);
  const LogicalPtr global = LogicalNode::GroupBy(live(), {}, sum);
  ExpectFusedMatchesUnfused(engines, keyed, "keyed");
  ExpectFusedMatchesUnfused(engines, global, "global");
  for (const auto& engine : engines) {
    ASSERT_OK_AND_ASSIGN(QueryResult k, engine->Execute(keyed));
    EXPECT_EQ(k.rows.meta(0).dsb_scale, 2);
    EXPECT_EQ(k.rows.meta(1).dsb_scale, 2);
    ASSERT_OK_AND_ASSIGN(QueryResult g, engine->Execute(global));
    ASSERT_EQ(g.rows.num_rows(), 1u);
    EXPECT_EQ(g.rows.meta(0).dsb_scale, 2);
  }
}

TEST(FusedAggregateTest, GroupsKeepGlobalFirstAppearanceOrder) {
  // Eight 256-row chunks; chunk c holds only key 3 * (7 - c), and the
  // tail of the last chunk adds key 100. At 4 and 32 cores each core's
  // table holds the keys of the chunks it ran, so only the position
  // stamps put the merged groups back in chunk order.
  std::vector<storage::ColumnSpec> specs = {
      {"k", storage::ColumnKind::kInt32}, {"v", storage::ColumnKind::kInt32}};
  std::vector<storage::ColumnData> data(2);
  for (int r = 0; r < 8 * 256; ++r) {
    const int chunk = r / 256;
    data[0].ints.push_back(r >= 8 * 256 - 10 ? 100 : 3 * (7 - chunk));
    data[1].ints.push_back(r % 11);
  }
  const auto engines = LoadEverywhere(specs, data, 256);
  const LogicalPtr plan = LogicalNode::GroupBy(
      LogicalNode::Scan("s", {"k", "v"}), {{"k", Expr::Col("k")}},
      {{"s", AggFunc::kSum, Expr::Col("v"), {}}});
  ExpectFusedMatchesUnfused(engines, plan, "chunk keys");
  for (const auto& engine : engines) {
    ASSERT_OK_AND_ASSIGN(QueryResult result, engine->Execute(plan));
    EXPECT_EQ(result.rows.Values(0),
              (std::vector<int64_t>{21, 18, 15, 12, 9, 6, 3, 0, 100}));
  }
}

// ---- Retry -----------------------------------------------------------------

// Faults inside the fused Q1 and Q6 aggregate pipelines: a DMS
// descriptor that exhausts its attempts gets one in-place retry, which
// must restart the step (no morsel resumes) and return exactly the
// clean rows; an operator's DMEM OOM demotes to the unfused plan, same
// rows.
TEST_F(FusedAggregateTpchTest, FaultInsideFusedAggregateRestartsTheStep) {
  core::RapidEngine& engine = *engines_[1];
  for (const std::string name : {"Q1", "Q6"}) {
    auto query = tpch::BuildQuery(name);
    ASSERT_TRUE(query.ok());
    auto plan = query.value().fragments[0](engine.catalog(), {});
    ASSERT_TRUE(plan.ok());
    ExecOptions options;
    options.retry_budget = 2;
    ASSERT_OK_AND_ASSIGN(QueryResult clean,
                         engine.Execute(plan.value(), options));
    ASSERT_TRUE(HasAggregateStage(clean)) << clean.plan_text;

    const uint64_t transfers = CleanPollCount(faults::kDmsTransfer, [&] {
      ASSERT_OK(engine.Execute(plan.value(), options).status());
    });
    ASSERT_GT(transfers, 8u);
    for (const uint64_t skip : {transfers / 4, transfers / 2,
                                transfers - 2}) {
      ScopedFaultInjection fi(31);
      FaultInjector::SiteSpec spec;
      spec.skip_first = skip;
      spec.max_failures = 4;  // exhausts exactly one descriptor
      fi.Arm(faults::kDmsTransfer, spec);
      ASSERT_OK_AND_ASSIGN(QueryResult retried,
                           engine.Execute(plan.value(), options));
      const std::string what = name + " skip " + std::to_string(skip);
      EXPECT_EQ(retried.stats.dpu_retries, 1u) << what;
      EXPECT_EQ(retried.stats.resumed_morsels, 0u) << what;
      EXPECT_FALSE(retried.stats.demoted_to_unfused) << what;
      ExpectIdentical(retried.rows, clean.rows, what);
    }

    const uint64_t allocs = CleanPollCount(faults::kDmemAlloc, [&] {
      ASSERT_OK(engine.Execute(plan.value(), options).status());
    });
    ASSERT_GT(allocs, 0u);
    for (const uint64_t skip : {uint64_t{0}, allocs / 2, allocs - 1}) {
      ScopedFaultInjection fi(32);
      FaultInjector::SiteSpec spec;
      spec.code = StatusCode::kOutOfMemory;
      spec.skip_first = skip;
      spec.max_failures = 1;
      fi.Arm(faults::kDmemAlloc, spec);
      ASSERT_OK_AND_ASSIGN(QueryResult demoted,
                           engine.Execute(plan.value(), options));
      const std::string what = name + " alloc skip " + std::to_string(skip);
      // A failed run-staging allocation falls back to plain transfers
      // instead of failing, so only the first (an operator's) demotes
      // for certain.
      if (skip == 0) {
        EXPECT_TRUE(demoted.stats.demoted_to_unfused) << what;
      }
      ExpectIdentical(demoted.rows, clean.rows, what);
    }
  }
}

}  // namespace
}  // namespace rapid
