// Fault-injected execution tests: deterministic fault injector
// behavior, DPU-layer recovery (DMS retry, ATE redelivery, join
// build-overflow repartitioning, DMEM-OOM pipeline demotion), query
// cancellation/deadlines, and the host-fallback contract — every
// injected fault must end in recovery or a clean host fallback whose
// rows are bit-identical to a fault-free run. Never a crash, hang, or
// wrong answer.

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/arena.h"
#include "common/cancel.h"
#include "common/config.h"
#include "common/fault.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/engine.h"
#include "core/ops/join_exec.h"
#include "core/ops/partition_exec.h"
#include "dpu/ate.h"
#include "dpu/dpu.h"
#include "hostdb/database.h"
#include "storage/loader.h"
#include "hostdb/offload.h"
#include "tests/test_util.h"

namespace rapid {
namespace {

using core::ColumnSet;
using core::ExecOptions;
using core::JoinExec;
using core::JoinSpec;
using core::JoinStats;
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
using primitives::CmpOp;
using rapid::testing::CleanPollCount;
using rapid::testing::ExpectSameRows;
using rapid::testing::MakeColumnSet;
using rapid::testing::SortedRows;

// ---- FaultInjector unit behavior -------------------------------------------

TEST(FaultInjectorTest, DisabledByDefaultAndZeroStateAfterReset) {
  FaultInjector::Instance().Reset();
  EXPECT_FALSE(FaultInjector::enabled());
  EXPECT_TRUE(FaultInjector::Instance().Poll("nobody.armed").ok());
  EXPECT_TRUE(FaultInjector::Instance().PollIfEnabled("nobody.armed").ok());
}

TEST(FaultInjectorTest, DeterministicUnderSeed) {
  auto run_pattern = [](uint64_t seed) {
    ScopedFaultInjection fi(seed);
    FaultInjector::SiteSpec spec;
    spec.probability = 0.5;
    fi.Arm("test.site", spec);
    std::vector<bool> pattern;
    for (int i = 0; i < 64; ++i) {
      pattern.push_back(!FaultInjector::Instance().Poll("test.site").ok());
    }
    return pattern;
  };
  const std::vector<bool> a = run_pattern(42);
  const std::vector<bool> b = run_pattern(42);
  EXPECT_EQ(a, b);
  // A 0.5-probability site must neither always fire nor never fire.
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), true), 64);
}

TEST(FaultInjectorTest, SkipFirstAndMaxFailuresTriggers) {
  ScopedFaultInjection fi(7);
  FaultInjector::SiteSpec spec;
  spec.code = StatusCode::kInternal;
  spec.skip_first = 2;   // hits 1-2 pass
  spec.max_failures = 3; // hits 3-5 fail, 6+ pass again
  fi.Arm("test.ordinal", spec);
  std::vector<bool> failed;
  for (int i = 0; i < 8; ++i) {
    failed.push_back(!FaultInjector::Instance().Poll("test.ordinal").ok());
  }
  EXPECT_EQ(failed, (std::vector<bool>{false, false, true, true, true, false,
                                       false, false}));
  EXPECT_EQ(FaultInjector::Instance().hits("test.ordinal"), 8u);
  EXPECT_EQ(FaultInjector::Instance().failures("test.ordinal"), 3u);
}

TEST(FaultInjectorTest, InjectedStatusCarriesConfiguredCode) {
  ScopedFaultInjection fi(1);
  FaultInjector::SiteSpec spec;
  spec.code = StatusCode::kOutOfMemory;
  fi.Arm("test.code", spec);
  const Status st = FaultInjector::Instance().Poll("test.code");
  EXPECT_TRUE(st.IsOutOfMemory());
}

// ---- ATE delivery faults ---------------------------------------------------

TEST(AteFaultTest, TransientLossIsRedelivered) {
  ScopedFaultInjection fi(11);
  FaultInjector::SiteSpec spec;
  spec.max_failures = 2;  // two dropped hops, budget is 4 attempts
  fi.Arm(faults::kAteSend, spec);

  dpu::Ate ate(2);
  ASSERT_OK(ate.Send(0, 1, /*tag=*/7, {1, 2, 3}));
  auto msg = ate.TryReceive(1);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->tag, 7u);
  EXPECT_EQ(FaultInjector::Instance().failures(faults::kAteSend), 2u);
}

TEST(AteFaultTest, PersistentLossExhaustsAttemptsWithoutEnqueue) {
  ScopedFaultInjection fi(12);
  FaultInjector::SiteSpec spec;  // probability 1, unlimited
  fi.Arm(faults::kAteSend, spec);

  dpu::Ate ate(2);
  const Status st = ate.Send(0, 1, /*tag=*/9);
  EXPECT_TRUE(st.IsRetryExhausted()) << st.ToString();
  EXPECT_FALSE(ate.TryReceive(1).has_value());  // nothing half-delivered
}

TEST(AteFaultTest, BarrierWaitUnblocksOnCancellation) {
  dpu::AteBarrier barrier(2);
  CancelToken token;
  token.Cancel();
  // A cancelled participant must abandon the barrier promptly instead
  // of waiting forever for a peer that will never come.
  const Status st = barrier.Wait(&token);
  EXPECT_TRUE(st.IsCancelled()) << st.ToString();
  // Its arrival still counted: the surviving participant completes the
  // barrier instead of being stranded behind the dead query.
  EXPECT_TRUE(barrier.Wait().ok());
}

// ---- DMS retry policy ------------------------------------------------------

class FaultEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto [specs, data] = TableData(4000);
    ASSERT_OK(host_.CreateTable("t", specs, data));
    ASSERT_OK(host_.LoadToRapid("t", &engine_));
    auto [dspecs, ddata] = DimData(64);
    ASSERT_OK(host_.CreateTable("d", dspecs, ddata));
    ASSERT_OK(host_.LoadToRapid("d", &engine_));
  }

  static std::pair<std::vector<storage::ColumnSpec>,
                   std::vector<storage::ColumnData>>
  TableData(int rows) {
    std::vector<storage::ColumnSpec> specs = {
        {"id", storage::ColumnKind::kInt64},
        {"v", storage::ColumnKind::kInt32}};
    std::vector<storage::ColumnData> data(2);
    Rng rng(77);
    for (int i = 0; i < rows; ++i) {
      data[0].ints.push_back(i);
      data[1].ints.push_back(rng.NextInRange(0, 63));
    }
    return {specs, data};
  }

  static std::pair<std::vector<storage::ColumnSpec>,
                   std::vector<storage::ColumnData>>
  DimData(int rows) {
    std::vector<storage::ColumnSpec> specs = {
        {"k", storage::ColumnKind::kInt64},
        {"w", storage::ColumnKind::kInt32}};
    std::vector<storage::ColumnData> data(2);
    for (int i = 0; i < rows; ++i) {
      data[0].ints.push_back(i);
      data[1].ints.push_back(i * 3);
    }
    return {specs, data};
  }

  // Scan + filter + group-by: exercises accessor tile loops, DMEM
  // allocation and (fused) pipelines.
  LogicalPtr AggPlan() {
    return LogicalNode::GroupBy(
        LogicalNode::Scan("t", {"v"},
                          {Predicate::CmpConst("v", CmpOp::kLt, 48)}),
        {}, {{"s", core::AggFunc::kSum, core::Expr::Col("v"), {}}});
  }

  // Partitioned hash join: exercises partition descriptors and the
  // join build/probe kernels.
  LogicalPtr JoinPlan() {
    return LogicalNode::Join(LogicalNode::Scan("t", {"id", "v"}),
                             LogicalNode::Scan("d", {"k", "w"}), {"v"}, {"k"},
                             {"id", "w"});
  }

  HostDatabase host_;
  // Pinned to the paper's 32-core DPU: offload decisions are
  // cost-based and must not flip under a RAPID_CORES override.
  core::RapidEngine engine_{dpu::DpuConfig{}};
};

TEST_F(FaultEngineTest, TransientDmsFaultIsRetriedAndQuerySucceeds) {
  // Clean reference run first.
  ASSERT_OK_AND_ASSIGN(QueryResult clean, engine_.Execute(AggPlan()));

  ScopedFaultInjection fi(21);
  FaultInjector::SiteSpec spec;
  spec.max_failures = 2;  // heals within the 4-attempt descriptor budget
  fi.Arm(faults::kDmsTransfer, spec);

  ASSERT_OK_AND_ASSIGN(QueryResult faulted, engine_.Execute(AggPlan()));
  EXPECT_EQ(FaultInjector::Instance().failures(faults::kDmsTransfer), 2u);
  EXPECT_GT(FaultInjector::Instance().hits(faults::kDmsTransfer), 2u);
  ExpectSameRows(faulted.rows, clean.rows);
}

TEST_F(FaultEngineTest, PersistentDmsFaultSurfacesAsRetryExhausted) {
  ScopedFaultInjection fi(22);
  fi.Arm(faults::kDmsTransfer, FaultInjector::SiteSpec{});  // always fails
  auto result = engine_.Execute(AggPlan());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsRetryExhausted())
      << result.status().ToString();
}

// ---- DMEM OOM -> pipeline demotion ----------------------------------------

TEST_F(FaultEngineTest, DmemOomDemotesFusedPipelineAndSucceeds) {
  ASSERT_OK_AND_ASSIGN(QueryResult clean, engine_.Execute(AggPlan()));

  ScopedFaultInjection fi(23);
  FaultInjector::SiteSpec spec;
  spec.code = StatusCode::kOutOfMemory;
  spec.max_failures = 1;  // fused attempt dies, unfused retry is clean
  fi.Arm(faults::kDmemAlloc, spec);

  ExecOptions options;
  ASSERT_TRUE(options.planner.enable_fusion);
  ASSERT_OK_AND_ASSIGN(QueryResult demoted, engine_.Execute(AggPlan(),
                                                            options));
  EXPECT_TRUE(demoted.stats.demoted_to_unfused);
  ExpectSameRows(demoted.rows, clean.rows);
}

// ---- Join build overflow recovery -----------------------------------------

ColumnSet RandomKv(size_t n, uint64_t seed, int64_t key_range) {
  Rng rng(seed);
  std::vector<int64_t> keys(n);
  std::vector<int64_t> vals(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = rng.NextInRange(0, key_range - 1);
    vals[i] = static_cast<int64_t>(i);
  }
  return MakeColumnSet({"k", "v"}, {keys, vals});
}

struct JoinInputs {
  PartitionedData build;
  PartitionedData probe;
};

JoinInputs MakeJoinInputs(dpu::Dpu& dpu) {
  JoinInputs in;
  ColumnSet build = RandomKv(600, 5, 90);
  ColumnSet probe = RandomKv(1500, 6, 90);
  PartitionScheme scheme;
  scheme.rounds.push_back(PartitionRound{4, 4});
  in.build = PartitionExec::Execute(dpu, build, {0}, scheme, 128).value();
  in.probe = PartitionExec::Execute(dpu, probe, {0}, scheme, 128).value();
  return in;
}

JoinSpec KvJoinSpec() {
  JoinSpec spec;
  spec.build_keys = {0};
  spec.probe_keys = {0};
  spec.outputs = {{true, 1}, {false, 0}, {false, 1}};
  return spec;
}

TEST(JoinFaultTest, InjectedBuildCapacityFaultRecoversByRepartition) {
  dpu::Dpu dpu;
  JoinInputs in = MakeJoinInputs(dpu);
  ASSERT_OK_AND_ASSIGN(ColumnSet clean,
                       JoinExec::Execute(dpu, in.build, in.probe,
                                         KvJoinSpec()));

  ScopedFaultInjection fi(31);
  FaultInjector::SiteSpec spec;
  spec.code = StatusCode::kCapacityExceeded;
  spec.max_failures = 1;  // one kernel overflows once, then recovers
  fi.Arm(faults::kJoinBuild, spec);

  JoinStats stats;
  ASSERT_OK_AND_ASSIGN(ColumnSet recovered,
                       JoinExec::Execute(dpu, in.build, in.probe, KvJoinSpec(),
                                         &stats));
  EXPECT_GE(stats.overflow_recoveries, 1u);
  EXPECT_EQ(SortedRows(recovered), SortedRows(clean));
}

TEST(JoinFaultTest, HardDmemCapacityRepartitionsWithoutInjection) {
  dpu::Dpu dpu;
  JoinInputs in = MakeJoinInputs(dpu);
  ASSERT_OK_AND_ASSIGN(ColumnSet clean,
                       JoinExec::Execute(dpu, in.build, in.probe,
                                         KvJoinSpec()));

  JoinSpec spec = KvJoinSpec();
  spec.hard_capacity = true;
  spec.dmem_capacity_rows = 32;  // every ~150-row build side must split
  JoinStats stats;
  ASSERT_OK_AND_ASSIGN(ColumnSet recovered,
                       JoinExec::Execute(dpu, in.build, in.probe, spec,
                                         &stats));
  EXPECT_GE(stats.overflow_recoveries, 1u);
  EXPECT_EQ(SortedRows(recovered), SortedRows(clean));
}

TEST(JoinFaultTest, UnrecoverableCapacityFaultSurfacesCleanly) {
  dpu::Dpu dpu;
  JoinInputs in = MakeJoinInputs(dpu);
  ScopedFaultInjection fi(32);
  FaultInjector::SiteSpec spec;
  spec.code = StatusCode::kCapacityExceeded;  // every attempt overflows
  fi.Arm(faults::kJoinBuild, spec);
  auto result = JoinExec::Execute(dpu, in.build, in.probe, KvJoinSpec());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCapacityExceeded())
      << result.status().ToString();
}

// ---- Cancellation and deadlines -------------------------------------------

TEST_F(FaultEngineTest, CancelledTokenStopsQueryBeforeWork) {
  CancelToken token;
  token.Cancel();
  ExecOptions options;
  options.cancel = &token;
  auto result = engine_.Execute(AggPlan(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled());
}

TEST_F(FaultEngineTest, ExpiredDeadlineSurfacesAsDeadlineExceeded) {
  ExecOptions options;
  options.timeout_seconds = 1e-9;  // expires before the first barrier
  auto result = engine_.Execute(AggPlan(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
}

TEST_F(FaultEngineTest, DeadlineComposesWithCallerToken) {
  CancelToken token;
  token.Cancel();
  ExecOptions options;
  options.cancel = &token;
  options.timeout_seconds = 3600;  // generous: the token trips first
  auto result = engine_.Execute(AggPlan(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled());
}

TEST(JoinFaultTest, CancelUnwindsJoinAtTileBoundary) {
  // Tile loops poll the token: a cancelled query exits the kernel
  // within one tile round instead of finishing build/probe.
  dpu::Dpu dpu;
  JoinInputs in = MakeJoinInputs(dpu);
  CancelToken token;
  token.Cancel();
  auto result = JoinExec::Execute(dpu, in.build, in.probe, KvJoinSpec(),
                                  nullptr, &token);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled());
}

TEST_F(FaultEngineTest, MidQueryCancelFromAnotherThreadNeverCrashes) {
  // Non-deterministic interleaving by design: the cancel lands at some
  // arbitrary point of the query. Whatever the timing, the engine must
  // either finish cleanly or return kCancelled — never crash or hang.
  for (int round = 0; round < 8; ++round) {
    CancelToken token;
    ExecOptions options;
    options.cancel = &token;
    std::thread killer([&token, round] {
      std::this_thread::sleep_for(std::chrono::microseconds(50 * round));
      token.Cancel();
    });
    auto result = engine_.Execute(JoinPlan(), options);
    killer.join();
    if (!result.ok()) {
      EXPECT_TRUE(result.status().IsCancelled())
          << result.status().ToString();
    }
  }
}

TEST_F(FaultEngineTest, CancellationPropagatesThroughHostWithoutFallback) {
  // A dead query must NOT be resurrected on the Volcano path: the host
  // propagates cancellation instead of falling back.
  CancelToken token;
  token.Cancel();
  ExecOptions options;
  options.cancel = &token;
  auto report = host_.ExecuteQuery(AggPlan(), &engine_, options);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsCancelled()) << report.status().ToString();
}

// ---- Host fallback hardening ----------------------------------------------

TEST_F(FaultEngineTest, AdmissionDeniedRecordsFallbackReason) {
  ASSERT_OK(host_.Update("t", {storage::RowChange{1, {1, 9}}}));
  ASSERT_OK_AND_ASSIGN(QueryReport report,
                       host_.ExecuteQuery(AggPlan(), &engine_));
  EXPECT_TRUE(report.fell_back);
  EXPECT_NE(report.fallback_reason.find("AdmissionDenied"), std::string::npos)
      << report.fallback_reason;
}

TEST_F(FaultEngineTest, CapacityExceededFallsBackWithReason) {
  ASSERT_OK_AND_ASSIGN(core::ColumnSet local, host_.ExecuteLocal(JoinPlan()));

  ScopedFaultInjection fi(41);
  FaultInjector::SiteSpec spec;
  spec.code = StatusCode::kCapacityExceeded;  // unrecoverable: every build
  fi.Arm(faults::kJoinBuild, spec);

  ExecOptions options;
  options.planner.enable_fusion = false;  // force the partitioned join
  ASSERT_OK_AND_ASSIGN(QueryReport report,
                       host_.ExecuteQuery(JoinPlan(), &engine_, options));
  EXPECT_TRUE(report.fell_back);
  EXPECT_NE(report.fallback_reason.find("CapacityExceeded"),
            std::string::npos)
      << report.fallback_reason;
  ExpectSameRows(report.rows, local);
}

// The acceptance matrix: >= 4 fault sites x deterministic seeds. Every
// injected fault must end in silent recovery or host fallback with
// rows bit-identical to the fault-free run.
TEST_F(FaultEngineTest, FaultMatrixRecoversOrFallsBackBitIdentical) {
  struct SiteCase {
    const char* site;
    StatusCode code;
  };
  const SiteCase cases[] = {
      {faults::kDmsTransfer, StatusCode::kInternal},
      {faults::kDmsPartition, StatusCode::kInternal},
      {faults::kDmemAlloc, StatusCode::kOutOfMemory},
      {faults::kJoinBuild, StatusCode::kCapacityExceeded},
  };
  const uint64_t seeds[] = {101, 202, 303};

  ExecOptions options;
  options.planner.enable_fusion = false;  // partitioned join: all sites hot
  ASSERT_OK_AND_ASSIGN(QueryReport clean,
                       host_.ExecuteQuery(JoinPlan(), &engine_, options));
  ASSERT_FALSE(clean.fell_back);
  const auto clean_rows = SortedRows(clean.rows);

  for (const SiteCase& c : cases) {
    for (uint64_t seed : seeds) {
      ScopedFaultInjection fi(seed);
      FaultInjector::SiteSpec spec;
      spec.code = c.code;
      spec.probability = 0.3;  // sometimes heals in-retry, sometimes not
      fi.Arm(c.site, spec);

      auto result = host_.ExecuteQuery(JoinPlan(), &engine_, options);
      ASSERT_TRUE(result.ok()) << c.site << " seed " << seed << ": "
                               << result.status().ToString();
      const QueryReport& report = result.value();
      EXPECT_GT(FaultInjector::Instance().hits(c.site), 0u)
          << c.site << " was never exercised";
      EXPECT_EQ(SortedRows(report.rows), clean_rows)
          << c.site << " seed " << seed << " (fell_back=" << report.fell_back
          << " reason=" << report.fallback_reason << ")";
    }
  }
}

// ---- Fragment checkpointing: round reuse, morsel resume, DPU retry --------

TEST(PartitionFaultTest, RoundFailureResumesFromCompletedRounds) {
  dpu::Dpu dpu;
  ColumnSet input = RandomKv(20000, 9, 5000);
  PartitionScheme scheme;
  scheme.rounds.push_back(PartitionRound{4, 4});
  scheme.rounds.push_back(PartitionRound{4, 1});

  ASSERT_OK_AND_ASSIGN(
      PartitionedData clean,
      PartitionExec::Execute(dpu, input, {0}, scheme, 256));
  EXPECT_EQ(clean.rounds, 2);

  const uint64_t polls = CleanPollCount(faults::kDmsPartition, [&] {
    ASSERT_OK(
        PartitionExec::Execute(dpu, input, {0}, scheme, 256).status());
  });
  ASSERT_GT(polls, 1u);

  // Rounds are barriers, so poll `polls` (the last first-attempt
  // descriptor) always lands in round 2. Failing it and everything
  // after exhausts the DMS retry budget and kills the pass with round
  // 1 fully reassembled.
  ScopedFaultInjection fi(52);
  FaultInjector::SiteSpec spec;
  spec.skip_first = polls - 1;  // unlimited failures from there on
  fi.Arm(faults::kDmsPartition, spec);

  core::PartitionProgress progress;
  auto failed = PartitionExec::Execute(dpu, input, {0}, scheme, 256,
                                       nullptr, &progress);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsRetryExhausted())
      << failed.status().ToString();
  ASSERT_EQ(progress.rounds_done, 1);
  EXPECT_TRUE(progress.CompatibleWith(scheme));

  // Retry with the checkpoint: round 1 is skipped, round 2 re-runs,
  // and the output is bit-identical to the fault-free pass.
  FaultInjector::Instance().Disarm(faults::kDmsPartition);
  ASSERT_OK_AND_ASSIGN(
      PartitionedData resumed,
      PartitionExec::Execute(dpu, input, {0}, scheme, 256, nullptr,
                             &progress));
  EXPECT_TRUE(progress.empty());  // consumed by the resume
  EXPECT_EQ(resumed.rounds, 2);
  EXPECT_EQ(resumed.bits_used, clean.bits_used);
  ASSERT_EQ(resumed.partitions.size(), clean.partitions.size());
  for (size_t p = 0; p < clean.partitions.size(); ++p) {
    EXPECT_EQ(SortedRows(resumed.partitions[p]),
              SortedRows(clean.partitions[p]))
        << "partition " << p;
  }
}

TEST(PartitionFaultTest, PoolAcquireFaultSurfacesAndReleasesScratch) {
  // Fresh DPU: cold tile pools, so the first partition scratch acquire
  // takes the would-allocate path that polls the fault point.
  dpu::Dpu dpu;
  ColumnSet input = RandomKv(4000, 11, 500);
  PartitionScheme scheme;
  scheme.rounds.push_back(PartitionRound{8, 1});

  ScopedFaultInjection fi(72);
  FaultInjector::SiteSpec spec;
  spec.code = StatusCode::kOutOfMemory;
  spec.max_failures = 1;
  fi.Arm(faults::kPoolAcquire, spec);

  auto result = PartitionExec::Execute(dpu, input, {0}, scheme, 256);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsOutOfMemory()) << result.status().ToString();
  EXPECT_EQ(FaultInjector::Instance().failures(faults::kPoolAcquire), 1u);

  // Every scratch handle acquired before the failure was returned.
  TilePoolStats stats;
  for (int c = 0; c < dpu.num_cores(); ++c) {
    stats.Accumulate(dpu.core(c).pool().stats());
  }
  EXPECT_EQ(stats.outstanding(), 0u);

  // The fault is spent: the same pass now succeeds.
  FaultInjector::Instance().Disarm(faults::kPoolAcquire);
  ASSERT_OK(PartitionExec::Execute(dpu, input, {0}, scheme, 256).status());
}

TEST(PartitionFaultTest, MidSplitFailureReleasesEarlierScratchHandles) {
  // Fail the *third* scratch acquire of the pass: whichever unit draws
  // it is already holding two pooled buffers, so this exercises the
  // unwind with live handles mid-SplitRange.
  dpu::Dpu dpu;
  ColumnSet input = RandomKv(4000, 13, 500);
  PartitionScheme scheme;
  scheme.rounds.push_back(PartitionRound{8, 1});

  ScopedFaultInjection fi(73);
  FaultInjector::SiteSpec spec;
  spec.code = StatusCode::kOutOfMemory;
  spec.skip_first = 2;
  spec.max_failures = 1;
  fi.Arm(faults::kPoolAcquire, spec);

  auto result = PartitionExec::Execute(dpu, input, {0}, scheme, 256);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsOutOfMemory()) << result.status().ToString();

  TilePoolStats stats;
  for (int c = 0; c < dpu.num_cores(); ++c) {
    stats.Accumulate(dpu.core(c).pool().stats());
  }
  EXPECT_EQ(stats.outstanding(), 0u);
}

TEST(PartitionFaultTest, CancelDuringPartitionReleasesPoolAndSavesNothing) {
  dpu::Dpu dpu;
  ColumnSet input = RandomKv(4000, 12, 500);
  PartitionScheme scheme;
  scheme.rounds.push_back(PartitionRound{4, 1});
  scheme.rounds.push_back(PartitionRound{4, 1});

  CancelToken token;
  token.Cancel();
  core::PartitionProgress progress;
  auto result = PartitionExec::Execute(dpu, input, {0}, scheme, 256, &token,
                                       &progress);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
  // A killed query is abandoned, not retried: no checkpoint, and all
  // pooled scratch back in the free lists (the ASan job leak-checks
  // this test on top of the gauge).
  EXPECT_TRUE(progress.empty());
  TilePoolStats stats;
  for (int c = 0; c < dpu.num_cores(); ++c) {
    stats.Accumulate(dpu.core(c).pool().stats());
  }
  EXPECT_EQ(stats.outstanding(), 0u);
}

// The reuse acceptance matrix: inject a failure after the partition
// rounds complete and require (a) an in-place DPU retry within budget,
// (b) completed rounds restored instead of re-executed, and (c) rows
// bit-identical to the fault-free run — across 3 injector seeds and
// every supported SIMD tier.
TEST_F(FaultEngineTest, ReuseMatrixRestoresRoundsBitIdenticalAcrossModes) {
  ExecOptions options;
  options.planner.enable_fusion = false;  // partitioned join plan
  options.retry_budget = 2;

  ASSERT_OK_AND_ASSIGN(QueryReport clean,
                       host_.ExecuteQuery(JoinPlan(), &engine_, options));
  ASSERT_FALSE(clean.fell_back);
  const auto clean_rows = SortedRows(clean.rows);

  const uint64_t seeds[] = {101, 202, 303};
  for (int lvl = 0; lvl <= static_cast<int>(SimdLevelSupported()); ++lvl) {
    ScopedConfig config(&Config::simd, static_cast<SimdLevel>(lvl));

    const uint64_t polls = CleanPollCount(faults::kDmsPartition, [&] {
      auto r = host_.ExecuteQuery(JoinPlan(), &engine_, options);
      ASSERT_OK(r.status());
    });
    ASSERT_GT(polls, 0u);

    for (uint64_t seed : seeds) {
      ScopedFaultInjection fi(seed);
      FaultInjector::SiteSpec spec;
      spec.skip_first = polls - 1;
      // Exactly the DMS descriptor budget: the last partition unit
      // exhausts its in-DMS retries (one engine-level transient
      // failure), then the fragment retry runs clean.
      spec.max_failures = 4;
      fi.Arm(faults::kDmsPartition, spec);

      auto result = host_.ExecuteQuery(JoinPlan(), &engine_, options);
      ASSERT_TRUE(result.ok())
          << result.status().ToString() << " simd=" << lvl << " seed=" << seed;
      const QueryReport& report = result.value();
      EXPECT_FALSE(report.fell_back) << report.fallback_reason;
      EXPECT_EQ(report.rapid_stats.dpu_retries, 1u)
          << "simd=" << lvl << " seed=" << seed;
      // At minimum the other side's completed partition rounds were
      // restored from the checkpoint instead of re-partitioned.
      EXPECT_GE(report.rapid_stats.reused_rounds, 1u);
      EXPECT_EQ(SortedRows(report.rows), clean_rows)
          << "simd=" << lvl << " seed=" << seed;
    }
  }
}

TEST_F(FaultEngineTest, PersistentPipelineFaultFallsBackWithMorselResume) {
  // Many-chunk fact table: the fused probe pipeline gets one morsel
  // per chunk, so a late fault leaves plenty of completed morsels.
  storage::LoadOptions geometry;
  geometry.rows_per_chunk = 64;
  auto [specs, data] = TableData(6400);
  ASSERT_OK(host_.CreateTable("bigt", specs, data, geometry));
  ASSERT_OK(host_.LoadToRapid("bigt", &engine_));
  LogicalPtr plan =
      LogicalNode::Join(LogicalNode::Scan("bigt", {"id", "v"}),
                        LogicalNode::Scan("d", {"k", "w"}), {"v"}, {"k"},
                        {"id", "w"});

  ExecOptions options;
  options.retry_budget = 2;
  ASSERT_TRUE(options.planner.enable_fusion);

  ASSERT_OK_AND_ASSIGN(QueryReport clean,
                       host_.ExecuteQuery(plan, &engine_, options));
  ASSERT_FALSE(clean.fell_back);
  const auto clean_rows = SortedRows(clean.rows);

  const uint64_t polls = CleanPollCount(faults::kDmsTransfer, [&] {
    auto r = host_.ExecuteQuery(plan, &engine_, options);
    ASSERT_OK(r.status());
  });
  ASSERT_GT(polls, 0u);

  // Unlimited failures from the last transfer onward: the first
  // attempt dies on the one morsel owning that transfer (every other
  // morsel already completed), both in-place retries restore the
  // completed morsels and die on the same one, and the query falls
  // back to the host with the resume accounting attached.
  ScopedFaultInjection fi(61);
  FaultInjector::SiteSpec spec;
  spec.skip_first = polls - 1;
  fi.Arm(faults::kDmsTransfer, spec);

  ASSERT_OK_AND_ASSIGN(QueryReport report,
                       host_.ExecuteQuery(plan, &engine_, options));
  EXPECT_TRUE(report.fell_back);
  EXPECT_EQ(report.rapid_stats.dpu_retries, 2u);
  EXPECT_GE(report.rapid_stats.resumed_morsels, 1u);
  EXPECT_EQ(SortedRows(report.rows), clean_rows);
}

TEST_F(FaultEngineTest, PoolAcquireFaultGetsInPlaceRetry) {
  ExecOptions options;
  options.planner.enable_fusion = false;
  options.retry_budget = 2;
  ASSERT_OK_AND_ASSIGN(QueryReport clean,
                       host_.ExecuteQuery(JoinPlan(), &engine_, options));
  const auto clean_rows = SortedRows(clean.rows);

  // Fresh engine: cold tile pools, so partition scratch acquires take
  // the would-allocate path that polls pool.acquire.
  core::RapidEngine cold{dpu::DpuConfig{}};
  ASSERT_OK(host_.LoadToRapid("t", &cold));
  ASSERT_OK(host_.LoadToRapid("d", &cold));

  ScopedFaultInjection fi(71);
  FaultInjector::SiteSpec spec;
  spec.code = StatusCode::kOutOfMemory;
  spec.max_failures = 1;
  fi.Arm(faults::kPoolAcquire, spec);

  ASSERT_OK_AND_ASSIGN(QueryReport report,
                       host_.ExecuteQuery(JoinPlan(), &cold, options));
  EXPECT_GT(FaultInjector::Instance().hits(faults::kPoolAcquire), 0u);
  EXPECT_EQ(FaultInjector::Instance().failures(faults::kPoolAcquire), 1u);
  // Allocator pressure on an unfused plan is transient: one in-place
  // retry, no host fallback, same rows.
  EXPECT_FALSE(report.fell_back) << report.fallback_reason;
  EXPECT_EQ(report.rapid_stats.dpu_retries, 1u);
  EXPECT_EQ(SortedRows(report.rows), clean_rows);
}

}  // namespace
}  // namespace rapid
