// Tests for the partition sink: pipeline fusion ends a single-consumer
// scan/filter/project chain in its PARTITION step, so the chain's tiles
// scatter straight into the first round's buckets. Every bucket must be
// bit-identical (rows, row order, types, scales, dictionaries) to the
// unfused SCAN + PARTITION pair on every SIMD tier and core count, the
// workload counters must not move, later rounds must run through
// PartitionExec, and a fault inside the fused step must resume by
// morsel, resume from a completed round, or demote to the unfused pair.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/config.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/simd.h"
#include "core/engine.h"
#include "core/qcomp/pipeline_fusion.h"
#include "core/qcomp/planner.h"
#include "hostdb/database.h"
#include "storage/loader.h"
#include "tests/test_util.h"
#include "tpch/queries.h"

namespace rapid {
namespace {

using core::AggFunc;
using core::ColumnSet;
using core::ExecOptions;
using core::Expr;
using core::LogicalPtr;
using core::PartitionedData;
using core::PartitionScheme;
using core::PartitionStep;
using core::PhysicalPlan;
using core::PipelineSpec;
using core::PipelineStageSpec;
using core::PipelineStep;
using core::Predicate;
using core::QueryResult;
using core::StepOutput;
using core::WorkloadCounters;
using primitives::CmpOp;
using rapid::testing::CleanPollCount;
using rapid::testing::ExpectIdentical;
using rapid::testing::ExpectSameRows;

constexpr int kCoreCounts[] = {1, 4, 32};

// At SF 0.01 the broadcast gate fuses Q5's and Q10's lineitem probes;
// a 512-row gate keeps the partitioned joins SF 0.1 plans, whose inputs
// the sinks end.
ExecOptions Fused(bool on) {
  ExecOptions options;
  options.planner.enable_fusion = on;
  options.planner.fusion_max_build_rows = 512;
  return options;
}

Result<PhysicalPlan> PlanOn(core::RapidEngine& engine, const LogicalPtr& plan,
                            const ExecOptions& options = Fused(true)) {
  core::Planner planner(engine.dpu().config(), engine.dpu().params(),
                        options.planner);
  return planner.Plan(plan, engine.catalog());
}

bool IsSink(const core::PlanStep& step) {
  const auto* p = dynamic_cast<const PipelineStep*>(&step);
  return p != nullptr && p->spec().branches.front().stages.back().kind ==
                             PipelineStageSpec::Kind::kPartition;
}

size_t Count(const std::string& text, const std::string& what) {
  size_t n = 0;
  for (size_t pos = text.find(what); pos != std::string::npos;
       pos = text.find(what, pos + 1)) {
    ++n;
  }
  return n;
}

// `plan` with every partition sink split back into its chain and a
// PARTITION step over the chain's output: the plan fusion builds
// without partition sinks. Addresses follow the split (the chain has
// none, the PARTITION step keeps the sink's "X#p").
PhysicalPlan SplitSinks(PhysicalPlan plan) {
  PhysicalPlan out;
  std::vector<int> old_to_new(plan.steps.size(), -1);
  for (auto& step : plan.steps) {
    const int old_id = step->id();
    if (IsSink(*step)) {
      PipelineSpec chain = static_cast<const PipelineStep&>(*step).spec();
      const PipelineStageSpec sink = chain.branches.front().stages.back();
      chain.branches.front().stages.pop_back();
      const int chain_id = static_cast<int>(out.steps.size());
      auto scan = std::make_unique<PipelineStep>(chain_id, std::move(chain));
      scan->RemapInputs(old_to_new);
      out.steps.push_back(std::move(scan));
      const int part_id = static_cast<int>(out.steps.size());
      out.steps.push_back(std::make_unique<PartitionStep>(
          part_id, chain_id, sink.partition_keys, sink.partition_scheme,
          sink.partition_tile_rows));
      old_to_new[static_cast<size_t>(old_id)] = part_id;
      continue;
    }
    step->RemapInputs(old_to_new);
    old_to_new[static_cast<size_t>(old_id)] =
        static_cast<int>(out.steps.size());
    step->set_id(static_cast<int>(out.steps.size()));
    out.steps.push_back(std::move(step));
  }
  out.root = old_to_new[static_cast<size_t>(plan.root)];
  for (const auto& [path, id] : plan.subtree_steps) {
    out.subtree_steps.emplace_back(path, old_to_new[static_cast<size_t>(id)]);
  }
  return out;
}

// Every step's output of one run of `plan`, step by step.
std::vector<StepOutput> RunSteps(core::RapidEngine& engine,
                                 const PhysicalPlan& plan) {
  core::ExecEnv env;
  env.dpu = &engine.dpu();
  env.catalog = &engine.catalog();
  env.outputs.resize(plan.steps.size());
  for (const auto& step : plan.steps) {
    const Status st = step->Execute(env);
    EXPECT_TRUE(st.ok()) << step->Describe() << ": " << st.ToString();
    if (!st.ok()) break;
  }
  return env.outputs;
}

int StepAt(const PhysicalPlan& plan, const std::string& path) {
  for (const auto& [p, id] : plan.subtree_steps) {
    if (p == path) return id;
  }
  return -1;
}

void ExpectSameParts(const PartitionedData& a, const PartitionedData& b,
                     const std::string& what) {
  EXPECT_EQ(a.bits_used, b.bits_used) << what;
  EXPECT_EQ(a.rounds, b.rounds) << what;
  ASSERT_EQ(a.partitions.size(), b.partitions.size()) << what;
  for (size_t p = 0; p < a.partitions.size(); ++p) {
    ExpectIdentical(a.partitions[p], b.partitions[p],
                    what + " bucket " + std::to_string(p));
  }
}

void ExpectSameCounters(const WorkloadCounters& a, const WorkloadCounters& b,
                        const std::string& what) {
  EXPECT_EQ(a.scanned_rows, b.scanned_rows) << what;
  EXPECT_EQ(a.scanned_bytes, b.scanned_bytes) << what;
  EXPECT_EQ(a.partitioned_rows, b.partitioned_rows) << what;
  EXPECT_EQ(a.groupby_repartitions, b.groupby_repartitions) << what;
  EXPECT_EQ(a.groupby_chain_steps, b.groupby_chain_steps) << what;
  EXPECT_EQ(a.join_build_rows, b.join_build_rows) << what;
  EXPECT_EQ(a.join_probe_rows, b.join_probe_rows) << what;
  EXPECT_EQ(a.agg_rows, b.agg_rows) << what;
  EXPECT_EQ(a.sorted_rows, b.sorted_rows) << what;
}

// Runs `fused` (a plan with partition sinks) and its split twin step by
// step on `engine`: every sink's buckets must equal the PARTITION
// step's at the same address, the roots' rows must be identical, and
// through the engine the counters must agree while the sinks save DMS
// cycles (the store's, when they have rows to store). Returns the
// number of sinks compared.
size_t ExpectSinksMatchSplit(core::RapidEngine& engine,
                             const PhysicalPlan& fused,
                             const PhysicalPlan& split,
                             const std::string& what) {
  const std::vector<StepOutput> on = RunSteps(engine, fused);
  const std::vector<StepOutput> off = RunSteps(engine, split);
  size_t sinks = 0;
  size_t sink_rows = 0;
  for (const auto& [path, id] : fused.subtree_steps) {
    if (!IsSink(*fused.steps[static_cast<size_t>(id)])) continue;
    const int twin = StepAt(split, path);
    EXPECT_GE(twin, 0) << what << " " << path;
    if (twin < 0) continue;
    EXPECT_NE(dynamic_cast<const PartitionStep*>(
                  split.steps[static_cast<size_t>(twin)].get()),
              nullptr)
        << what << " " << path;
    const StepOutput& a = on[static_cast<size_t>(id)];
    const StepOutput& b = off[static_cast<size_t>(twin)];
    EXPECT_TRUE(a.partitioned && b.partitioned) << what << " " << path;
    ExpectSameParts(a.parts, b.parts, what + " " + path);
    for (const ColumnSet& bucket : a.parts.partitions) {
      sink_rows += bucket.num_rows();
    }
    ++sinks;
  }
  ExpectIdentical(on[static_cast<size_t>(fused.root)].set,
                  off[static_cast<size_t>(split.root)].set, what + " root");

  auto fused_run = engine.ExecutePhysical(fused, Fused(true));
  auto split_run = engine.ExecutePhysical(split, Fused(true));
  EXPECT_TRUE(fused_run.ok() && split_run.ok()) << what;
  if (fused_run.ok() && split_run.ok()) {
    ExpectSameCounters(fused_run.value().stats.workload,
                       split_run.value().stats.workload, what);
    ExpectIdentical(fused_run.value().rows, split_run.value().rows, what);
    EXPECT_LE(fused_run.value().stats.total_dms_cycles,
              split_run.value().stats.total_dms_cycles)
        << what;
    if (sink_rows > 0) {
      EXPECT_LT(fused_run.value().stats.total_dms_cycles,
                split_run.value().stats.total_dms_cycles)
          << what;
    }
  }
  return sinks;
}

// ---- TPC-H -----------------------------------------------------------------

const char* const kJoinQueries[] = {"Q3", "Q4", "Q5", "Q10", "Q18"};

class PartitionSinkTpchTest : public ::testing::Test {
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

  // The logical plan of `name`'s first fragment on `engine`.
  static LogicalPtr Fragment(core::RapidEngine& engine,
                             const std::string& name) {
    auto query = tpch::BuildQuery(name);
    RAPID_CHECK_OK(query.status());
    auto plan = query.value().fragments[0](engine.catalog(), {});
    RAPID_CHECK_OK(plan.status());
    return plan.value();
  }

  static hostdb::HostDatabase* host_;
  static std::vector<core::RapidEngine*> engines_;
};

hostdb::HostDatabase* PartitionSinkTpchTest::host_ = nullptr;
std::vector<core::RapidEngine*> PartitionSinkTpchTest::engines_;

// The lineitem chains of Q3, Q4, Q5, Q10 and Q18 end in their
// PARTITION round; Q18's one l_orderkey partition serves its group-by
// and its join, so its lineitem scan has that sink as its only
// consumer. Every sink takes over its partition's "#p" address, and no
// address names its chain.
TEST_F(PartitionSinkTpchTest, PlanShape) {
  core::RapidEngine& engine = *engines_[2];
  for (const char* name : kJoinQueries) {
    ASSERT_OK_AND_ASSIGN(PhysicalPlan plan,
                         PlanOn(engine, Fragment(engine, name)));
    const std::string text = plan.Describe();
    size_t sinks = 0;
    for (const auto& step : plan.steps) {
      if (!IsSink(*step)) continue;
      ++sinks;
      bool partition_address = false;
      for (const auto& [path, id] : plan.subtree_steps) {
        if (id != step->id()) continue;
        EXPECT_TRUE(path.size() >= 2 &&
                    path.compare(path.size() - 2, 2, "#p") == 0)
            << name << " " << path << "\n"
            << text;
        partition_address = true;
      }
      EXPECT_TRUE(partition_address) << name << "\n" << text;
    }
    EXPECT_GT(sinks, 0u) << name << "\n" << text;
    EXPECT_NE(text.find("PIPELINE scan lineitem | filter+project"),
              std::string::npos)
        << name << "\n" << text;
    EXPECT_NE(text.find("| partition keys=("), std::string::npos)
        << name << "\n" << text;
    ASSERT_OK_AND_ASSIGN(PhysicalPlan unfused,
                         PlanOn(engine, Fragment(engine, name), Fused(false)));
    EXPECT_EQ(unfused.Describe().find("| partition"), std::string::npos);
  }
  ASSERT_OK_AND_ASSIGN(PhysicalPlan q5, PlanOn(engine, Fragment(engine, "Q5")));
  EXPECT_NE(q5.Describe().find("PIPELINE scan lineitem | filter+project "
                               "preds=0 proj=4 | partition "
                               "keys=(l_orderkey) scheme="),
            std::string::npos)
      << q5.Describe();
  ASSERT_OK_AND_ASSIGN(PhysicalPlan q18,
                       PlanOn(engine, Fragment(engine, "Q18")));
  EXPECT_EQ(Count(q18.Describe(), "SCAN lineitem"), 0u) << q18.Describe();
  EXPECT_EQ(Count(q18.Describe(), "scan lineitem |"), 1u) << q18.Describe();
  EXPECT_EQ(Count(q18.Describe(), "scan lineitem | filter+project preds=0 "
                                  "proj=2 | partition keys=(l_orderkey)"),
            1u)
      << q18.Describe();
  // The other l_orderkey partition is the semi-join build's, over the
  // group-by's output.
  EXPECT_EQ(Count(q18.Describe(), "keys=(l_orderkey) scheme="), 2u)
      << q18.Describe();
  // Queries without a scan -> partition edge plan no sink.
  for (const char* name : {"Q1", "Q6", "Q19"}) {
    ASSERT_OK_AND_ASSIGN(PhysicalPlan plan,
                         PlanOn(engine, Fragment(engine, name)));
    EXPECT_EQ(plan.Describe().find("| partition"), std::string::npos)
        << name << "\n"
        << plan.Describe();
  }
}

// Every sink's buckets against the unfused SCAN + PARTITION pair, and
// the counters behind the perf/watt model, on every SIMD tier, core
// count, encoded scan mode and join-filter mode.
TEST_F(PartitionSinkTpchTest, BucketsMatchUnfusedOnEveryTier) {
  for (int l = 0; l <= static_cast<int>(SimdLevelSupported()); ++l) {
    for (const auto encoded : {EncodedScanMode::kOff, EncodedScanMode::kAuto}) {
      for (const auto filter : {JoinFilterMode::kOff, JoinFilterMode::kAuto}) {
        ScopedConfig config(&Config::simd, static_cast<SimdLevel>(l));
        config.Set(&Config::encoded_scan, encoded);
        config.Set(&Config::join_filter, filter);
        for (size_t e = 0; e < engines_.size(); ++e) {
          for (const char* name : kJoinQueries) {
            const std::string what =
                std::string(name) + " level " + std::to_string(l) +
                " encoded " + std::to_string(static_cast<int>(encoded)) +
                " joinfilter " + std::to_string(static_cast<int>(filter)) +
                " cores " + std::to_string(kCoreCounts[e]);
            const LogicalPtr logical = Fragment(*engines_[e], name);
            ASSERT_OK_AND_ASSIGN(PhysicalPlan fused,
                                 PlanOn(*engines_[e], logical));
            ASSERT_OK_AND_ASSIGN(PhysicalPlan twin,
                                 PlanOn(*engines_[e], logical));
            const PhysicalPlan split = SplitSinks(std::move(twin));
            EXPECT_GT(ExpectSinksMatchSplit(*engines_[e], fused, split, what),
                      0u)
                << what;
          }
        }
      }
    }
  }
}

// All 11 queries end to end: identical to fusion off, and the same rows
// as Volcano, on every SIMD tier.
TEST_F(PartitionSinkTpchTest, QueriesMatchFusionOffAndVolcano) {
  const std::vector<tpch::TpchQuery> queries = tpch::BuildQuerySet();
  ASSERT_EQ(queries.size(), 11u);
  std::vector<ColumnSet> volcano;
  for (const tpch::TpchQuery& query : queries) {
    ASSERT_OK_AND_ASSIGN(tpch::QueryRun run, tpch::RunOnHost(*host_, query));
    volcano.push_back(std::move(run.result));
  }
  for (int l = 0; l <= static_cast<int>(SimdLevelSupported()); ++l) {
    ScopedConfig config(&Config::simd, static_cast<SimdLevel>(l));
    for (size_t q = 0; q < queries.size(); ++q) {
      const tpch::TpchQuery& query = queries[q];
      const std::string what = query.name + " level " + std::to_string(l);
      ASSERT_OK_AND_ASSIGN(tpch::QueryRun on,
                           tpch::RunOnRapid(*engines_[1], query, Fused(true)));
      ASSERT_OK_AND_ASSIGN(tpch::QueryRun off,
                           tpch::RunOnRapid(*engines_[1], query, Fused(false)));
      ExpectIdentical(on.result, off.result, what);
      ExpectSameRows(on.result, volcano[q]);
    }
  }
}

// ---- Faults inside the fused step ------------------------------------------

using PartitionSinkFaultTest = PartitionSinkTpchTest;

// The id of Q5's lineitem sink in its fused plan.
int LineitemSink(const PhysicalPlan& plan) {
  for (const auto& step : plan.steps) {
    const auto* p = dynamic_cast<const PipelineStep*>(step.get());
    if (p != nullptr && p->spec().table == "lineitem" && IsSink(*p)) {
      return p->id();
    }
  }
  return -1;
}

// The modeled time of step `id` in `result`, or -1 when it did not run.
double StepSeconds(const QueryResult& result, int id) {
  for (const core::StepTiming& t : result.stats.steps) {
    if (t.step_id == id) return t.modeled_seconds;
  }
  return -1;
}

// Polls of `site` over a clean run of the first `steps` steps of
// `plan` on `engine`.
uint64_t PrefixPolls(core::RapidEngine& engine, const char* site,
                     const LogicalPtr& logical, int steps) {
  if (steps <= 0) return 0;
  auto physical = PlanOn(engine, logical);
  RAPID_CHECK_OK(physical.status());
  PhysicalPlan plan = std::move(physical).value();
  plan.steps.resize(static_cast<size_t>(steps));
  plan.root = steps - 1;
  return CleanPollCount(site, [&] {
    ASSERT_OK(engine.ExecutePhysical(plan, Fused(true)).status());
  });
}

// A DMS transfer descriptor inside Q5's fused lineitem step that
// exhausts its attempts costs one in-place retry. The retry resumes the
// morsels that finished, their slots already grouped by partition, and
// replays their charges: the rows, and the step's modeled time, equal
// the clean run's. (The query's total differs: the steps before the
// sink are restored from the checkpoint, not run again.)
TEST_F(PartitionSinkFaultTest, DmsTransferFaultResumesByMorsel) {
  core::RapidEngine& engine = *engines_[1];
  const LogicalPtr plan = Fragment(engine, "Q5");
  ExecOptions options = Fused(true);
  options.retry_budget = 2;
  ASSERT_OK_AND_ASSIGN(QueryResult clean, engine.Execute(plan, options));
  ASSERT_OK_AND_ASSIGN(PhysicalPlan physical, PlanOn(engine, plan));
  const int sink = LineitemSink(physical);
  ASSERT_GE(sink, 0) << physical.Describe();

  const uint64_t before = PrefixPolls(engine, faults::kDmsTransfer, plan, sink);
  const uint64_t polls =
      PrefixPolls(engine, faults::kDmsTransfer, plan, sink + 1) - before;
  ASSERT_GT(polls, 64u);
  for (const uint64_t skip : {polls / 4, polls / 2, polls - 2}) {
    ScopedFaultInjection fi(61);
    FaultInjector::SiteSpec spec;
    spec.skip_first = before + skip;
    spec.max_failures = 4;  // exhausts exactly one descriptor
    fi.Arm(faults::kDmsTransfer, spec);
    ASSERT_OK_AND_ASSIGN(QueryResult retried, engine.Execute(plan, options));
    const std::string what = "skip " + std::to_string(skip);
    EXPECT_EQ(retried.stats.dpu_retries, 1u) << what;
    EXPECT_GT(retried.stats.resumed_morsels, 0u) << what;
    EXPECT_FALSE(retried.stats.demoted_to_unfused) << what;
    EXPECT_EQ(StepSeconds(retried, sink), StepSeconds(clean, sink)) << what;
    ExpectIdentical(retried.rows, clean.rows, what);
  }
}

// A DMEM OOM while a core opens Q5's fused lineitem step demotes to the
// unfused plan: SCAN lineitem and a PARTITION step at the sink's "#p"
// address. Slots the fused step saved there belong to another pipeline,
// so nothing resumes from them, and the rows equal the clean run's.
TEST_F(PartitionSinkFaultTest, DmemOomInOpenDemotesToScanAndPartition) {
  core::RapidEngine& engine = *engines_[1];
  const LogicalPtr plan = Fragment(engine, "Q5");
  ExecOptions options = Fused(true);
  options.retry_budget = 2;
  ASSERT_OK_AND_ASSIGN(QueryResult clean, engine.Execute(plan, options));
  ASSERT_OK_AND_ASSIGN(PhysicalPlan physical, PlanOn(engine, plan));
  const int sink = LineitemSink(physical);
  ASSERT_GE(sink, 0) << physical.Describe();

  const uint64_t before = PrefixPolls(engine, faults::kDmemAlloc, plan, sink);
  const uint64_t allocs =
      PrefixPolls(engine, faults::kDmemAlloc, plan, sink + 1) - before;
  ASSERT_GT(allocs, 1u);
  for (const uint64_t skip : {uint64_t{0}, allocs / 2}) {
    ScopedFaultInjection fi(62);
    FaultInjector::SiteSpec spec;
    spec.code = StatusCode::kOutOfMemory;
    spec.skip_first = before + skip;
    spec.max_failures = 1;
    fi.Arm(faults::kDmemAlloc, spec);
    ASSERT_OK_AND_ASSIGN(QueryResult demoted, engine.Execute(plan, options));
    const std::string what = "alloc skip " + std::to_string(skip);
    // The step's first allocation is an operator's, in its first core's
    // Open; a later one may be a run-staging buffer, which falls back
    // to plain transfers instead of failing.
    if (skip == 0) {
      EXPECT_TRUE(demoted.stats.demoted_to_unfused) << what;
    }
    if (demoted.stats.demoted_to_unfused) {
      EXPECT_NE(demoted.plan_text.find("SCAN lineitem"), std::string::npos)
          << what << "\n"
          << demoted.plan_text;
      EXPECT_NE(demoted.plan_text.find("PARTITION #"), std::string::npos)
          << what;
      EXPECT_EQ(demoted.plan_text.find("| partition"), std::string::npos)
          << what;
      EXPECT_EQ(demoted.stats.resumed_morsels, 0u) << what;
    }
    ExpectIdentical(demoted.rows, clean.rows, what);
  }
}

// ---- Synthetic tables ------------------------------------------------------

// Columns: an int key `k`, a scale-2 decimal `v`, a dictionary string
// `s` and a filter column `f` (0..9). A skewed key puts the first 70%
// of the rows (so whole chunks) on key 42 and the rest on 37 others.
struct Synthetic {
  std::vector<storage::ColumnSpec> specs = {
      {"k", storage::ColumnKind::kInt32},
      {"v", storage::ColumnKind::kDecimal},
      {"s", storage::ColumnKind::kString},
      {"f", storage::ColumnKind::kInt32}};
  std::vector<storage::ColumnData> data = std::vector<storage::ColumnData>(4);

  explicit Synthetic(int rows, bool skewed = false) {
    for (int r = 0; r < rows; ++r) {
      if (skewed) {
        data[0].ints.push_back(r < rows / 10 * 7 ? 42 : (r % 37) * 3);
      } else {
        data[0].ints.push_back((r * 7919) % 50021);
      }
      data[1].decimals.push_back(
          static_cast<double>((r * 104729) % 20011 - 10000) / 100.0);
      data[2].strings.push_back("s" + std::to_string(r % 13));
      data[3].ints.push_back(r % 10);
    }
  }
};

std::unique_ptr<core::RapidEngine> LoadSynthetic(const Synthetic& table,
                                                 int cores) {
  dpu::DpuConfig config;
  config.num_cores = cores;
  auto engine = std::make_unique<core::RapidEngine>(config);
  storage::LoadOptions opts;
  opts.rows_per_chunk = 512;
  auto loaded = storage::LoadTable("x", table.specs, table.data, opts);
  RAPID_CHECK_OK(loaded.status());
  RAPID_CHECK_OK(engine->Load(std::move(loaded).value()));
  return engine;
}

// A hand-built plan: a scan of x filtered on f and projected to k, v,
// s and a computed decimal w = v * f (whose type and scale only its
// tiles carry), partitioned on k by `scheme`, under a high-NDV
// group-by (SUM(v) per k), with the addresses the planner would
// record.
PhysicalPlan ScanPartitionGroupBy(const PartitionScheme& scheme,
                                  int64_t f_below) {
  PipelineSpec scan;
  scan.table = "x";
  scan.base_columns = {"k", "v", "s", "f"};
  scan.tile_rows = 256;
  PipelineStageSpec stage;
  stage.predicates = {Predicate::CmpConst("f", CmpOp::kLt, f_below)};
  stage.projections = {{"k", Expr::Col("k")},
                       {"v", Expr::Col("v")},
                       {"s", Expr::Col("s")},
                       {"w", Expr::Mul(Expr::Col("v"), Expr::Col("f"))}};
  scan.branches.push_back(core::PipelineBranch{{stage}, false});
  PhysicalPlan plan;
  plan.steps.push_back(std::make_unique<PipelineStep>(0, std::move(scan)));
  plan.steps.push_back(std::make_unique<PartitionStep>(
      1, 0, std::vector<std::string>{"k"}, scheme, 1024));
  plan.steps.push_back(std::make_unique<core::GroupByStep>(
      2, 1,
      std::vector<std::pair<std::string, core::ExprPtr>>{{"k", Expr::Col("k")}},
      std::vector<core::AggSpec>{{"sum_v", AggFunc::kSum, Expr::Col("v"), {}}},
      1024));
  plan.root = 2;
  plan.subtree_steps = {{"", 2}, {"0", 0}, {"0#p", 1}};
  return plan;
}

Result<PhysicalPlan> Fuse(core::RapidEngine& engine, PhysicalPlan plan) {
  return core::FusePipelines(std::move(plan), engine.dpu().config(),
                             /*max_build_rows=*/0, engine.dpu().params(),
                             &engine.catalog());
}

PartitionScheme TwoRounds() {
  PartitionScheme scheme;
  scheme.rounds = {{64, 32}, {16, 1}};
  return scheme;
}

// A two-round scheme fuses its first round only: PartitionExec's
// second round over the sink's round-1 buckets must produce the
// unfused plan's 1024 buckets bit for bit, the computed column's
// decimal type and scale included. A skewed key (70% of the rows on
// one key, so whole morsels fall in one partition and most partitions
// stay empty) must match the unfused plan in one round and in two.
TEST(PartitionSinkTest, MultiRoundFusesRoundOneAndRunsTheRestThroughExec) {
  const Synthetic uniform(20000);
  const Synthetic skewed(20000, /*skewed=*/true);
  PartitionScheme one_round;
  one_round.rounds = {{64, 32}};
  const struct {
    const Synthetic* table;
    PartitionScheme scheme;
    const char* name;
  } inputs[] = {{&uniform, TwoRounds(), "uniform"},
                {&skewed, one_round, "skewed"},
                {&skewed, TwoRounds(), "skewed"}};
  for (const auto& input : inputs) {
    const bool two = input.scheme.NumRounds() == 2;
    for (const int cores : kCoreCounts) {
      auto engine = LoadSynthetic(*input.table, cores);
      ASSERT_OK_AND_ASSIGN(
          PhysicalPlan fused,
          Fuse(*engine, ScanPartitionGroupBy(input.scheme, 7)));
      ASSERT_EQ(fused.steps.size(), 2u) << fused.Describe();
      EXPECT_NE(fused.Describe().find(two ? "| partition keys=(k) "
                                            "scheme=64(hw32)x16"
                                          : "| partition keys=(k) "
                                            "scheme=64(hw32) "),
                std::string::npos)
          << fused.Describe();
      EXPECT_EQ(StepAt(fused, "0#p"), 0);
      EXPECT_EQ(StepAt(fused, "0"), -1);
      for (int l = 0; l <= static_cast<int>(SimdLevelSupported()); ++l) {
        ScopedConfig config(&Config::simd, static_cast<SimdLevel>(l));
        const std::string what = std::string(input.name) + " rounds " +
                                 std::to_string(input.scheme.NumRounds()) +
                                 " cores " + std::to_string(cores) +
                                 " level " + std::to_string(l);
        const PhysicalPlan split = SplitSinks(
            Fuse(*engine, ScanPartitionGroupBy(input.scheme, 7)).value());
        EXPECT_EQ(ExpectSinksMatchSplit(*engine, fused, split, what), 1u);
        const std::vector<StepOutput> out = RunSteps(*engine, fused);
        EXPECT_EQ(out[0].parts.partitions.size(), two ? 1024u : 64u) << what;
        EXPECT_EQ(out[0].parts.bits_used, two ? 10 : 6) << what;
        EXPECT_EQ(out[0].parts.rounds, two ? 2 : 1) << what;
        size_t rows = 0;
        size_t largest = 0;
        size_t empty = 0;
        for (const ColumnSet& bucket : out[0].parts.partitions) {
          EXPECT_EQ(bucket.meta(3).type, storage::DataType::kDecimal) << what;
          EXPECT_EQ(bucket.meta(3).dsb_scale, 2) << what;
          rows += bucket.num_rows();
          largest = std::max(largest, bucket.num_rows());
          if (bucket.num_rows() == 0) ++empty;
        }
        EXPECT_EQ(rows, 14000u) << what;
        if (input.table == &skewed) {
          EXPECT_GE(largest, 9800u) << what;
          EXPECT_GT(empty, 0u) << what;
        }
      }
    }
  }
}

// A scan whose every row fails the filter still partitions: every
// bucket is empty but keeps the key's type, the decimal's scale and the
// string's dictionary, exactly as the unfused PARTITION step's (whose
// computed column, never seen in a tile, keeps its planned meta too).
TEST(PartitionSinkTest, AllRowsFilteredKeepsEveryBucketsMeta) {
  const Synthetic table(3000);
  for (const int cores : kCoreCounts) {
    auto engine = LoadSynthetic(table, cores);
    PartitionScheme one_round;
    one_round.rounds = {{64, 32}};
    for (const PartitionScheme& scheme : {one_round, TwoRounds()}) {
      ASSERT_OK_AND_ASSIGN(PhysicalPlan fused,
                           Fuse(*engine, ScanPartitionGroupBy(scheme, 0)));
      ASSERT_TRUE(IsSink(*fused.steps[0])) << fused.Describe();
      const PhysicalPlan split = SplitSinks(
          Fuse(*engine, ScanPartitionGroupBy(scheme, 0)).value());
      const std::string what = "cores " + std::to_string(cores) + " rounds " +
                               std::to_string(scheme.NumRounds());
      ExpectSinksMatchSplit(*engine, fused, split, what);
      const std::vector<StepOutput> out = RunSteps(*engine, fused);
      ASSERT_FALSE(out[0].parts.partitions.empty()) << what;
      for (const ColumnSet& bucket : out[0].parts.partitions) {
        ASSERT_EQ(bucket.num_columns(), 4u) << what;
        EXPECT_EQ(bucket.num_rows(), 0u) << what;
        EXPECT_EQ(bucket.meta(0).type, storage::DataType::kInt32) << what;
        EXPECT_EQ(bucket.meta(1).type, storage::DataType::kDecimal) << what;
        EXPECT_EQ(bucket.meta(1).dsb_scale, 2) << what;
        EXPECT_NE(bucket.meta(2).dict, nullptr) << what;
      }
    }
  }
}

// The gate budgets the round's software fan-out staging: a 1024-way
// software round stages 1024 64-byte lines, which do not fit
// the 32 KiB scratchpad, so the PARTITION step stays a breaker. The
// same fan-out with 32 ways in hardware fits.
TEST(PartitionSinkTest, DmemGateRefusesStagingThatDoesNotFit) {
  const Synthetic table(2000);
  auto engine = LoadSynthetic(table, 4);
  PartitionScheme software;
  software.rounds = {{1024, 1}};
  ASSERT_OK_AND_ASSIGN(PhysicalPlan refused,
                       Fuse(*engine, ScanPartitionGroupBy(software, 7)));
  ASSERT_EQ(refused.steps.size(), 3u) << refused.Describe();
  EXPECT_NE(refused.steps[1]->Describe().find("PARTITION #0"),
            std::string::npos)
      << refused.Describe();
  EXPECT_EQ(refused.Describe().find("| partition"), std::string::npos);
  EXPECT_EQ(StepAt(refused, "0"), 0);

  PartitionScheme hardware;
  hardware.rounds = {{1024, 32}};
  ASSERT_OK_AND_ASSIGN(PhysicalPlan fused,
                       Fuse(*engine, ScanPartitionGroupBy(hardware, 7)));
  ASSERT_EQ(fused.steps.size(), 2u) << fused.Describe();
  EXPECT_TRUE(IsSink(*fused.steps[0])) << fused.Describe();

  // The refused plan still runs, and agrees with the fused one.
  ASSERT_OK_AND_ASSIGN(QueryResult a, engine->ExecutePhysical(refused, {}));
  ASSERT_OK_AND_ASSIGN(QueryResult b, engine->ExecutePhysical(fused, {}));
  EXPECT_EQ(testing::SortedRows(a.rows), testing::SortedRows(b.rows));
}

// A partition-engine descriptor that exhausts its attempts in round 2
// of a fused two-round scheme: the failed attempt checkpoints round 1's
// buckets under the sink's "#p" address, and the in-place retry resumes
// from them (one reused round) without rerunning the chain.
TEST_F(PartitionSinkFaultTest,
       DmsPartitionFaultInRoundTwoResumesFromRoundOne) {
  const Synthetic table(20000);
  auto engine = LoadSynthetic(table, 4);
  ASSERT_OK_AND_ASSIGN(PhysicalPlan fused,
                       Fuse(*engine, ScanPartitionGroupBy(TwoRounds(), 7)));
  ASSERT_TRUE(IsSink(*fused.steps[0])) << fused.Describe();
  ASSERT_OK_AND_ASSIGN(QueryResult clean, engine->ExecutePhysical(fused, {}));

  // Round 1 programs one partition descriptor per morsel (one per
  // chunk); round 2's follow, one per work unit.
  const size_t chunks = (20000 + 511) / 512;
  const uint64_t polls = CleanPollCount(faults::kDmsPartition, [&] {
    ASSERT_OK(engine->ExecutePhysical(fused, {}).status());
  });
  ASSERT_GT(polls, chunks);
  core::FragmentCheckpoint ckpt;
  {
    ScopedFaultInjection fi(63);
    FaultInjector::SiteSpec spec;
    spec.skip_first = chunks + 1;
    spec.max_failures = 4;  // exhausts exactly one descriptor
    fi.Arm(faults::kDmsPartition, spec);
    auto failed = engine->ExecutePhysical(fused, {}, &ckpt);
    ASSERT_FALSE(failed.ok());
    EXPECT_TRUE(failed.status().IsRetryExhausted()) << failed.status().ToString();
  }
  ASSERT_EQ(ckpt.in_progress.size(), 1u);
  EXPECT_EQ(ckpt.in_progress.front().path, "0#p");
  EXPECT_EQ(ckpt.in_progress.front().progress.partition.rounds_done, 1);
  const uint64_t transfers_clean = CleanPollCount(faults::kDmsTransfer, [&] {
    ASSERT_OK(engine->ExecutePhysical(fused, {}).status());
  });
  uint64_t transfers_resumed = 0;
  QueryResult resumed;
  transfers_resumed = CleanPollCount(faults::kDmsTransfer, [&] {
    auto r = engine->ExecutePhysical(fused, {}, &ckpt);
    ASSERT_OK(r.status());
    resumed = std::move(r).value();
  });
  EXPECT_EQ(resumed.stats.reused_rounds, 1u);
  EXPECT_EQ(resumed.stats.resumed_morsels, 0u);
  // The chain's scan did not run again.
  EXPECT_LT(transfers_resumed, transfers_clean);
  ExpectIdentical(resumed.rows, clean.rows, "resumed");
}

}  // namespace
}  // namespace rapid
