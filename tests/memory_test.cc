// Tile-local memory subsystem tests: arena alignment/growth/reset,
// tile-buffer-pool recycling (steady state allocates nothing new),
// partition round layout across a round-2 fault, the dmem.alloc fault
// path with pooled operators, and host-fallback reuse of completed
// DPU subtree results.

#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "common/arena.h"
#include "common/config.h"
#include "common/fault.h"
#include "common/simd.h"
#include "core/engine.h"
#include "hostdb/database.h"
#include "hostdb/offload.h"
#include "tests/test_util.h"

namespace rapid {
namespace {

using core::ExecOptions;
using core::LogicalNode;
using core::LogicalPtr;
using core::Predicate;
using core::QueryResult;
using hostdb::HostDatabase;
using hostdb::QueryReport;
using primitives::CmpOp;
using rapid::testing::ExpectSameRows;
using rapid::testing::SortedRows;

bool Aligned(const void* p, size_t alignment) {
  return reinterpret_cast<uintptr_t>(p) % alignment == 0;
}

// ---- Arena -----------------------------------------------------------------

TEST(ArenaTest, AllocationsAre64ByteAlignedByDefault) {
  Arena arena;
  // Odd sizes force the bump pointer off alignment between calls.
  for (size_t bytes : {1u, 7u, 63u, 64u, 65u, 1000u}) {
    void* p = arena.Allocate(bytes);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(Aligned(p, Arena::kDefaultAlignment)) << bytes;
    std::memset(p, 0xAB, bytes);  // must be writable
  }
  EXPECT_EQ(arena.stats().alloc_calls, 6u);
  EXPECT_GE(arena.stats().bytes_reserved, arena.stats().bytes_used);
}

TEST(ArenaTest, GrowsByChunksAndTracksHighWater) {
  Arena arena(4096);
  EXPECT_EQ(arena.stats().chunk_count, 0u);
  arena.Allocate(1024);
  EXPECT_EQ(arena.stats().chunk_count, 1u);
  // Larger than the chunk size: the arena must still serve it.
  void* big = arena.Allocate(64 * 1024);
  ASSERT_NE(big, nullptr);
  EXPECT_GE(arena.stats().chunk_count, 2u);
  EXPECT_GE(arena.stats().high_water, 64u * 1024);
}

TEST(ArenaTest, ResetRewindsButKeepsChunks) {
  Arena arena(4096);
  for (int i = 0; i < 8; ++i) arena.Allocate(1024);
  const size_t chunks = arena.stats().chunk_count;
  const size_t reserved = arena.stats().bytes_reserved;
  arena.Reset();
  EXPECT_EQ(arena.stats().bytes_used, 0u);
  EXPECT_EQ(arena.stats().chunk_count, chunks);
  // Refilling after Reset reuses the retained chunks: no new memory.
  for (int i = 0; i < 8; ++i) arena.Allocate(1024);
  EXPECT_EQ(arena.stats().bytes_reserved, reserved);
}

TEST(ArenaTest, TypedArrayRespectsElementAlignment) {
  Arena arena;
  arena.Allocate(1);  // misalign the cursor
  int64_t* v = arena.AllocateArray<int64_t>(100);
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(Aligned(v, alignof(int64_t)));
  for (int i = 0; i < 100; ++i) v[i] = i;
  EXPECT_EQ(v[99], 99);
}

// ---- TileBufferPool --------------------------------------------------------

TEST(TileBufferPoolTest, BuffersAreAlignedAndSizedUp) {
  Arena arena;
  TileBufferPool pool(&arena);
  auto h = pool.Acquire(100);
  ASSERT_TRUE(h);
  EXPECT_TRUE(Aligned(h.data(), Arena::kDefaultAlignment));
  EXPECT_GE(h.size(), 100u);  // rounded up to the size class
}

TEST(TileBufferPoolTest, SteadyStateStopsAllocating) {
  Arena arena;
  TileBufferPool pool(&arena);
  // Warm-up: first acquire of each class is a miss.
  { auto a = pool.Acquire(4096); auto b = pool.Acquire(4096); }
  const size_t warm_misses = pool.stats().misses;
  const size_t warm_used = arena.stats().bytes_used;
  // Cross-"tile" reuse: the same working set must recycle forever.
  for (int tile = 0; tile < 100; ++tile) {
    auto a = pool.Acquire(4096);
    auto b = pool.Acquire(4096);
    std::memset(a.data(), tile, a.size());
  }
  EXPECT_EQ(pool.stats().misses, warm_misses);
  EXPECT_EQ(arena.stats().bytes_used, warm_used);
  EXPECT_GE(pool.stats().reuses, 200u);
}

TEST(TileBufferPoolTest, BypassModeBuysNothingButStaysCorrect) {
  Arena arena;
  TileBufferPool pool(&arena);
  {
    ScopedConfig bypass(&Config::tile_pool_bypass, true);
    for (int i = 0; i < 4; ++i) {
      auto h = pool.AcquireArray<int64_t>(512);
      ASSERT_TRUE(h);
      h.as<int64_t>()[511] = i;
    }
  }
  // Every bypass acquire went to the heap: no reuse, no arena growth.
  EXPECT_EQ(pool.stats().acquires, 4u);
  EXPECT_EQ(pool.stats().reuses, 0u);
  EXPECT_EQ(arena.stats().bytes_used, 0u);
}

TEST(TileBufferPoolTest, HandleMoveTransfersOwnership) {
  Arena arena;
  TileBufferPool pool(&arena);
  auto a = pool.Acquire(256);
  uint8_t* p = a.data();
  TileBufferPool::Handle b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): post-move probe
  EXPECT_EQ(b.data(), p);
  b.reset();
  // The buffer went back to the free list: next acquire reuses it.
  auto c = pool.Acquire(256);
  EXPECT_EQ(c.data(), p);
}

// ---- Partition round layout -------------------------------------------------

TEST(PartitionLayoutTest, RoundTwoFaultCheckpointsRoundOneAndResumesExactly) {
  // Rounds lay out exact-size buckets and units scatter into disjoint
  // ranges of them. A fault midway through round 2 of 3 leaves some of
  // round 2's buckets half written; the checkpoint must still hold
  // round 1's complete buckets, and the resumed pass must produce the
  // fault-free bytes.
  dpu::Dpu dpu;
  std::mt19937_64 rng(21);
  std::vector<std::vector<int64_t>> cols(2, std::vector<int64_t>(30000));
  for (size_t i = 0; i < cols[0].size(); ++i) {
    cols[0][i] = static_cast<int64_t>(rng() % 4000);
    cols[1][i] = static_cast<int64_t>(i);
  }
  const core::ColumnSet input =
      rapid::testing::MakeColumnSet({"k", "v"}, cols);
  core::PartitionScheme scheme;
  scheme.rounds = {{4, 4}, {8, 1}, {4, 1}};
  auto prefix = [&](size_t rounds) {
    core::PartitionScheme p;
    p.rounds.assign(scheme.rounds.begin(), scheme.rounds.begin() + rounds);
    return p;
  };
  auto polls = [&](size_t rounds) {
    return rapid::testing::CleanPollCount(faults::kDmsPartition, [&] {
      ASSERT_OK(core::PartitionExec::Execute(dpu, input, {0}, prefix(rounds),
                                             128)
                    .status());
    });
  };
  const uint64_t round1 = polls(1);
  const uint64_t round2 = polls(2) - round1;
  ASSERT_GT(round2, 2u);

  ASSERT_OK_AND_ASSIGN(core::PartitionedData clean,
                       core::PartitionExec::Execute(dpu, input, {0}, scheme,
                                                    128));
  core::PartitionProgress progress;
  {
    ScopedFaultInjection fi(8);
    FaultInjector::SiteSpec spec;
    spec.skip_first = round1 + round2 / 2;  // mid-round 2, never healing
    fi.Arm(faults::kDmsPartition, spec);
    auto failed = core::PartitionExec::Execute(dpu, input, {0}, scheme, 128,
                                               nullptr, &progress);
    ASSERT_FALSE(failed.ok());
  }
  const rapid::testing::StablePartition ref1 =
      rapid::testing::StablePartitionOf(input, {0}, scheme, 1);
  ASSERT_EQ(progress.rounds_done, 1);
  EXPECT_EQ(progress.bits_used, 2);
  ASSERT_EQ(progress.buckets.size(), ref1.buckets.size());
  for (size_t b = 0; b < ref1.buckets.size(); ++b) {
    EXPECT_EQ(rapid::testing::Rows(progress.buckets[b]),
              rapid::testing::Rows(ref1.buckets[b]))
        << "bucket " << b;
    EXPECT_EQ(progress.bucket_hashes[b], ref1.hashes[b]) << "bucket " << b;
  }

  ASSERT_OK_AND_ASSIGN(core::PartitionedData resumed,
                       core::PartitionExec::Execute(dpu, input, {0}, scheme,
                                                    128, nullptr, &progress));
  EXPECT_TRUE(progress.empty());
  ASSERT_EQ(resumed.partitions.size(), clean.partitions.size());
  for (size_t p = 0; p < clean.partitions.size(); ++p) {
    EXPECT_EQ(rapid::testing::Rows(resumed.partitions[p]),
              rapid::testing::Rows(clean.partitions[p]))
        << "partition " << p;
  }
}

// ---- Engine-level identity and pool behavior -------------------------------

class MemoryEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<storage::ColumnSpec> specs = {
        {"id", storage::ColumnKind::kInt64},
        {"v", storage::ColumnKind::kInt32}};
    std::vector<storage::ColumnData> data(2);
    std::mt19937_64 rng(9);
    for (int i = 0; i < 6000; ++i) {
      data[0].ints.push_back(i);
      data[1].ints.push_back(static_cast<int64_t>(rng() % 512));
    }
    ASSERT_OK(host_.CreateTable("t", specs, data));
    ASSERT_OK(host_.LoadToRapid("t", &engine_));

    std::vector<storage::ColumnSpec> dspecs = {
        {"k", storage::ColumnKind::kInt64},
        {"w", storage::ColumnKind::kInt32}};
    std::vector<storage::ColumnData> ddata(2);
    for (int i = 0; i < 512; ++i) {
      ddata[0].ints.push_back(i);
      ddata[1].ints.push_back(i * 7);
    }
    ASSERT_OK(host_.CreateTable("d", dspecs, ddata));
    ASSERT_OK(host_.LoadToRapid("d", &engine_));
  }

  // Partitioned join: drives the software-partition scatter path.
  LogicalPtr JoinPlan() {
    return LogicalNode::Join(LogicalNode::Scan("t", {"id", "v"}),
                             LogicalNode::Scan("d", {"k", "w"}), {"v"}, {"k"},
                             {"id", "w"});
  }

  // Filter + arithmetic projection + aggregate: the Q6-shaped pooled
  // pipeline (filter gather, expression temporaries).
  LogicalPtr AggPlan() {
    return LogicalNode::GroupBy(
        LogicalNode::Scan("t", {"id", "v"},
                          {Predicate::CmpConst("v", CmpOp::kLt, 300)}),
        {},
        {{"s", core::AggFunc::kSum,
          core::Expr::Mul(core::Expr::Col("id"), core::Expr::Col("v")), {}}});
  }

  HostDatabase host_;
  core::RapidEngine engine_{dpu::DpuConfig{}};
};

TEST_F(MemoryEngineTest, ScatterPathBitIdenticalAcrossSimdAndSched) {
  // Force the partitioned join so the partition scatter runs.
  ExecOptions options;
  options.planner.enable_fusion = false;

  ScopedConfig config;
  std::vector<std::vector<std::vector<int64_t>>> results;
  for (int l = 0; l <= static_cast<int>(SimdLevelSupported()); ++l) {
    config.Set(&Config::simd, static_cast<SimdLevel>(l));
    auto result = engine_.Execute(JoinPlan(), options);
    ASSERT_OK(result.status());
    results.push_back(SortedRows(result.value().rows));
  }
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[0], results[i]) << "combination " << i;
  }
}

TEST_F(MemoryEngineTest, TilePoolWarmsUpAcrossQueries) {
  ASSERT_OK_AND_ASSIGN(QueryResult first, engine_.Execute(AggPlan()));
  EXPECT_GT(first.stats.tile_pool.acquires, 0u);
  EXPECT_GT(first.stats.arena.bytes_used, 0u);
  const uint64_t high_water = first.stats.arena.high_water;

  // The pool persists across queries: an identical second run must be
  // fully served from recycled buffers, with zero arena growth.
  ASSERT_OK_AND_ASSIGN(QueryResult second, engine_.Execute(AggPlan()));
  EXPECT_EQ(second.stats.tile_pool.misses, 0u);
  EXPECT_GT(second.stats.tile_pool.reuses, 0u);
  EXPECT_EQ(second.stats.arena.high_water, high_water);
  ExpectSameRows(first.rows, second.rows);
}

TEST_F(MemoryEngineTest, DmemOomStillDemotesWithPooledOperators) {
  ASSERT_OK_AND_ASSIGN(QueryResult clean, engine_.Execute(AggPlan()));

  ScopedFaultInjection fi(31);
  FaultInjector::SiteSpec spec;
  spec.code = StatusCode::kOutOfMemory;
  spec.max_failures = 1;  // fused attempt dies, unfused retry is clean
  fi.Arm(faults::kDmemAlloc, spec);

  ASSERT_OK_AND_ASSIGN(QueryResult demoted, engine_.Execute(AggPlan()));
  EXPECT_TRUE(demoted.stats.demoted_to_unfused);
  ExpectSameRows(demoted.rows, clean.rows);
}

// ---- Host fallback reuse of completed fragments ----------------------------

TEST_F(MemoryEngineTest, FallbackReusesCompletedScanSubtrees) {
  ASSERT_OK_AND_ASSIGN(core::ColumnSet local, host_.ExecuteLocal(JoinPlan()));

  // Unrecoverable join-build failure: by then both scan steps have
  // materialized, so the host fallback must resume from them.
  ScopedFaultInjection fi(47);
  FaultInjector::SiteSpec spec;
  spec.code = StatusCode::kCapacityExceeded;
  fi.Arm(faults::kJoinBuild, spec);

  ExecOptions options;
  options.planner.enable_fusion = false;  // force the partitioned join
  ASSERT_OK_AND_ASSIGN(QueryReport report,
                       host_.ExecuteQuery(JoinPlan(), &engine_, options));
  EXPECT_TRUE(report.fell_back);
  EXPECT_GE(report.reused_fragments, 1u);
  ExpectSameRows(report.rows, local);
}

TEST_F(MemoryEngineTest, CleanRunsAndAdmissionDenialsReuseNothing) {
  ASSERT_OK_AND_ASSIGN(QueryReport clean,
                       host_.ExecuteQuery(AggPlan(), &engine_));
  EXPECT_FALSE(clean.fell_back);
  EXPECT_EQ(clean.reused_fragments, 0u);

  // Admission denial happens before any DPU work: nothing to reuse.
  ASSERT_OK(host_.Update("t", {storage::RowChange{1, {1, 9}}}));
  ASSERT_OK_AND_ASSIGN(QueryReport denied,
                       host_.ExecuteQuery(AggPlan(), &engine_));
  EXPECT_TRUE(denied.fell_back);
  EXPECT_EQ(denied.reused_fragments, 0u);
}

}  // namespace
}  // namespace rapid
