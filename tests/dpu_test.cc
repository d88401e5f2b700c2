// Unit tests for the DPU simulator: DMEM arena, cycle cost model,
// ATE messaging/synchronization, DMS transfers and hardware
// partitioning, and the DPU facade's parallel scheduling.

#include <atomic>
#include <numeric>
#include <thread>

#include <gtest/gtest.h>

#include "common/config.h"
#include "common/rng.h"
#include "dpu/ate.h"
#include "dpu/cost_model.h"
#include "dpu/dmem.h"
#include "dpu/dms.h"
#include "dpu/dpu.h"
#include "dpu/power_model.h"
#include "tests/test_util.h"

namespace rapid::dpu {
namespace {

// ---- Dmem ------------------------------------------------------------------

TEST(DmemTest, BumpAllocationAndBudget) {
  Dmem dmem(1024);
  ASSERT_OK_AND_ASSIGN(uint8_t* a, dmem.Allocate(100));
  ASSERT_OK_AND_ASSIGN(uint8_t* b, dmem.Allocate(100));
  EXPECT_NE(a, b);
  EXPECT_EQ(dmem.used(), 208u);  // 8-byte aligned: 104 + 104
  EXPECT_TRUE(dmem.Contains(a));
  EXPECT_TRUE(dmem.Contains(b));

  auto too_big = dmem.Allocate(900);
  EXPECT_FALSE(too_big.ok());
  EXPECT_EQ(too_big.status().code(), StatusCode::kOutOfMemory);
}

TEST(DmemTest, ResetReclaimsEverything) {
  Dmem dmem(256);
  ASSERT_OK(dmem.Allocate(200).status());
  dmem.Reset();
  EXPECT_EQ(dmem.used(), 0u);
  EXPECT_OK(dmem.Allocate(200).status());
  EXPECT_EQ(dmem.high_water(), 200u);
}

TEST(DmemTest, TypedArrayAllocation) {
  Dmem dmem(1024);
  ASSERT_OK_AND_ASSIGN(int64_t* arr, dmem.AllocateArray<int64_t>(16));
  for (int i = 0; i < 16; ++i) arr[i] = i;
  EXPECT_EQ(arr[15], 15);
}

TEST(DmemTest, DpuConfigDefaultsMatchPaper) {
  // Brace-initialization gives the paper constants; Default() takes
  // the core count from the config (RAPID_CORES).
  const DpuConfig config{};
  {
    ScopedConfig cores(&Config::cores, 32);
    EXPECT_EQ(DpuConfig::Default().num_cores, 32);
  }
  EXPECT_EQ(config.num_cores, 32);
  EXPECT_EQ(config.num_macros, 4);
  EXPECT_EQ(config.dmem_bytes, 32u * 1024);
  EXPECT_EQ(config.l1d_bytes, 16u * 1024);
  EXPECT_DOUBLE_EQ(config.clock_hz, 800e6);
  EXPECT_DOUBLE_EQ(config.chip_power_w, 5.8);
  EXPECT_DOUBLE_EQ(config.core_dynamic_power_w, 0.051);
}

// ---- Cost model ------------------------------------------------------------

TEST(CostModelTest, FilterMatchesPaperThroughput) {
  // 1.65 cycles/tuple at 800 MHz = ~485 M tuples/s/core (Section 7.2
  // reports 482 M).
  const CostParams& p = CostParams::Default();
  const double tuples_per_sec = p.clock_hz / p.filter_cycles_per_row;
  EXPECT_NEAR(tuples_per_sec / 1e6, 482.0, 8.0);
}

TEST(CostModelTest, DmsTransferReaches9GiBs) {
  // Figure 9: 128-row tiles of 4x4-byte columns sustain >= 9 GiB/s.
  const CostParams& p = CostParams::Default();
  const double cycles = DmsTileTransferCycles(p, 4, 128, 4, false);
  const double bytes = 4.0 * 128 * 4;
  const double gib_per_sec = bytes / cycles * p.clock_hz / (1 << 30);
  EXPECT_GE(gib_per_sec, 9.0);
  EXPECT_LE(gib_per_sec, 12.0);  // below DDR3 peak
}

TEST(CostModelTest, LargerTilesAmortizeSetup) {
  const CostParams& p = CostParams::Default();
  const double t64 = 64 * 4 / DmsTileTransferCycles(p, 1, 64, 4, false);
  const double t256 = 256 * 4 / DmsTileTransferCycles(p, 1, 256, 4, false);
  EXPECT_GT(t256, t64);
}

TEST(CostModelTest, ReadWriteSlowerThanRead) {
  const CostParams& p = CostParams::Default();
  // Compare effective bandwidth per moved byte.
  const double r = DmsTileTransferCycles(p, 4, 128, 4, false) / (4 * 128 * 4);
  const double rw =
      DmsTileTransferCycles(p, 4, 128, 4, true) / (2.0 * 4 * 128 * 4);
  EXPECT_GT(rw, r);
}

TEST(CostModelTest, MoreColumnsSlightlySlower) {
  const CostParams& p = CostParams::Default();
  auto bw = [&](int cols) {
    const double bytes = static_cast<double>(cols) * 128 * 4;
    return bytes / DmsTileTransferCycles(p, cols, 128, 4, false);
  };
  EXPECT_GT(bw(2), bw(32));
}

TEST(CostModelTest, HwPartitionNear9Point3GiBs) {
  // Figure 8: ~9.3 GiB/s for all strategies.
  const CostParams& p = CostParams::Default();
  const size_t rows = 1 << 20;
  const size_t bytes = rows * 16;  // 4 columns x 4 bytes
  for (HwPartitionStrategy s :
       {HwPartitionStrategy::kRadix, HwPartitionStrategy::kHash,
        HwPartitionStrategy::kRange}) {
    const double cycles = HwPartitionCycles(p, s, 1, rows, bytes);
    const double gib = static_cast<double>(bytes) / cycles * p.clock_hz /
                       (1 << 30);
    EXPECT_NEAR(gib, 9.3, 0.4) << static_cast<int>(s);
  }
}

TEST(CostModelTest, JoinBuildMatchesPaperRates) {
  // Figure 11: ~46 M rows/s/core at 256-row tiles; +39% from 64->1024.
  const CostParams& p = CostParams::Default();
  auto rate = [&](size_t tile) {
    return static_cast<double>(tile) / JoinBuildTileCycles(p, tile) *
           p.clock_hz;
  };
  EXPECT_NEAR(rate(256) / 1e6, 46.0, 3.0);
  EXPECT_NEAR(rate(1024) / rate(64), 1.39, 0.06);
}

TEST(CostModelTest, JoinProbeMatchesPaperRates) {
  // Figure 12: 880 M - 1.35 B rows/s per DPU (32 cores), +30% from
  // tile 64 -> 1024 (50% hit ratio: ~1 chain step/row, 0.5 match).
  const CostParams& p = CostParams::Default();
  auto rate = [&](size_t tile) {
    return static_cast<double>(tile) /
           JoinProbeTileCycles(p, tile, tile, tile / 2) * p.clock_hz * 32;
  };
  EXPECT_GE(rate(64) / 1e6, 850.0);
  EXPECT_LE(rate(1024) / 1e6, 1400.0);
  EXPECT_NEAR(rate(1024) / rate(64), 1.30, 0.06);
}

TEST(CycleCounterTest, DoubleBufferingOverlaps) {
  CycleCounter c;
  c.ChargeCompute(100);
  c.ChargeDms(60);
  EXPECT_DOUBLE_EQ(c.EffectiveCycles(true), 100);   // overlap: max
  EXPECT_DOUBLE_EQ(c.EffectiveCycles(false), 160);  // serialized: sum
  CycleCounter d;
  d.ChargeDms(50);
  c.Merge(d);
  EXPECT_DOUBLE_EQ(c.dms_cycles(), 110);
  c.Reset();
  EXPECT_DOUBLE_EQ(c.EffectiveCycles(), 0);
}

TEST(PowerModelTest, PerfPerWattRatio) {
  PowerModel power;
  EXPECT_DOUBLE_EQ(power.xeon_watts(), 290.0);
  // A DPU at 30% of the Xeon's throughput has 15x perf/watt.
  EXPECT_NEAR(power.PerfPerWattRatio(0.3, 1.0), 15.0, 0.1);
}

// ---- ATE -------------------------------------------------------------------

TEST(AteTest, PointToPointOrdering) {
  Ate ate(4);
  for (uint64_t i = 0; i < 100; ++i) ate.Send(0, 1, i);
  for (uint64_t i = 0; i < 100; ++i) {
    AteMessage msg = ate.Receive(1);
    EXPECT_EQ(msg.from, 0);
    EXPECT_EQ(msg.tag, i);
  }
}

TEST(AteTest, TryReceiveOnEmptyMailbox) {
  Ate ate(2);
  EXPECT_FALSE(ate.TryReceive(0).has_value());
  ate.Send(1, 0, 7, {1, 2, 3});
  auto msg = ate.TryReceive(0);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload, (std::vector<uint8_t>{1, 2, 3}));
}

TEST(AteTest, CrossThreadDelivery) {
  Ate ate(2);
  std::thread sender([&] {
    for (uint64_t i = 0; i < 50; ++i) ate.Send(0, 1, i);
  });
  uint64_t sum = 0;
  for (int i = 0; i < 50; ++i) sum += ate.Receive(1).tag;
  sender.join();
  EXPECT_EQ(sum, 49u * 50 / 2);
}

TEST(AteTest, HardwareMutexExcludes) {
  Ate ate(2);
  int counter = 0;
  auto body = [&] {
    for (int i = 0; i < 1000; ++i) {
      ate.Lock(3);
      ++counter;
      ate.Unlock(3);
    }
  };
  std::thread t1(body);
  std::thread t2(body);
  t1.join();
  t2.join();
  EXPECT_EQ(counter, 2000);
}

TEST(AteBarrierTest, ReusableAcrossGenerations) {
  constexpr int kThreads = 8;
  AteBarrier barrier(kThreads);
  std::atomic<int> phase_counter{0};
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int phase = 0; phase < 5; ++phase) {
        phase_counter.fetch_add(1);
        barrier.Wait();
        // After the barrier, all participants of this phase arrived.
        if (phase_counter.load() < (phase + 1) * kThreads) failed = true;
        barrier.Wait();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(phase_counter.load(), 5 * kThreads);
}

// ---- DMS -------------------------------------------------------------------

class DmsTest : public ::testing::Test {
 protected:
  DmsTest() : dms_(DpuConfig::Default(), CostParams::Default()) {}
  Dms dms_;
  CycleCounter cycles_;
};

TEST_F(DmsTest, TransferTileCopiesAllSlices) {
  std::vector<uint32_t> src1(64);
  std::vector<uint32_t> src2(64);
  std::iota(src1.begin(), src1.end(), 0);
  std::iota(src2.begin(), src2.end(), 1000);
  std::vector<uint32_t> dst1(64);
  std::vector<uint32_t> dst2(64);
  dms_.TransferTile(
      &cycles_,
      {ColumnSlice{reinterpret_cast<uint8_t*>(src1.data()),
                   reinterpret_cast<uint8_t*>(dst1.data()), 256},
       ColumnSlice{reinterpret_cast<uint8_t*>(src2.data()),
                   reinterpret_cast<uint8_t*>(dst2.data()), 256}},
      false);
  EXPECT_EQ(dst1, src1);
  EXPECT_EQ(dst2, src2);
  EXPECT_GT(cycles_.dms_cycles(), 0);
  EXPECT_EQ(cycles_.compute_cycles(), 0);  // DMS works in isolation
}

TEST_F(DmsTest, GatherByRids) {
  std::vector<int32_t> src = {10, 11, 12, 13, 14, 15};
  std::vector<uint32_t> rids = {5, 0, 3};
  std::vector<int32_t> dst(3);
  dms_.Gather(&cycles_, reinterpret_cast<uint8_t*>(dst.data()),
              reinterpret_cast<const uint8_t*>(src.data()), rids.data(), 3, 4);
  EXPECT_EQ(dst, (std::vector<int32_t>{15, 10, 13}));
}

TEST_F(DmsTest, GatherBitsSelectsSetRows) {
  std::vector<int64_t> src = {0, 10, 20, 30, 40};
  BitVector bits(5);
  bits.Set(1);
  bits.Set(4);
  std::vector<int64_t> dst(2);
  const size_t n =
      dms_.GatherBits(&cycles_, reinterpret_cast<uint8_t*>(dst.data()),
                      reinterpret_cast<const uint8_t*>(src.data()), bits, 8);
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(dst, (std::vector<int64_t>{10, 40}));
}

TEST_F(DmsTest, ScatterByRids) {
  std::vector<int32_t> src = {7, 8, 9};
  std::vector<uint32_t> rids = {2, 0, 4};
  std::vector<int32_t> dst(5, -1);
  dms_.Scatter(&cycles_, reinterpret_cast<uint8_t*>(dst.data()),
               reinterpret_cast<const uint8_t*>(src.data()), rids.data(), 3,
               4);
  EXPECT_EQ(dst, (std::vector<int32_t>{8, -1, 7, -1, 9}));
}

TEST_F(DmsTest, RadixPartitionUsesLowBits) {
  std::vector<int32_t> keys = {0, 1, 31, 32, 33, 63};
  HwPartitionSpec spec;
  spec.strategy = HwPartitionStrategy::kRadix;
  spec.keys = {KeyColumn{reinterpret_cast<uint8_t*>(keys.data()), 4}};
  spec.fanout = 32;
  std::vector<uint16_t> targets;
  ASSERT_OK(dms_.ComputeTargets(&cycles_, spec, keys.size(), 4, &targets));
  EXPECT_EQ(targets, (std::vector<uint16_t>{0, 1, 31, 0, 1, 31}));
}

TEST_F(DmsTest, HashPartitionIsDeterministicAndBounded) {
  std::vector<int64_t> keys(1000);
  std::iota(keys.begin(), keys.end(), 0);
  HwPartitionSpec spec;
  spec.strategy = HwPartitionStrategy::kHash;
  spec.keys = {KeyColumn{reinterpret_cast<uint8_t*>(keys.data()), 8}};
  spec.fanout = 16;
  std::vector<uint16_t> t1;
  std::vector<uint16_t> t2;
  ASSERT_OK(dms_.ComputeTargets(&cycles_, spec, keys.size(), 8, &t1));
  ASSERT_OK(dms_.ComputeTargets(&cycles_, spec, keys.size(), 8, &t2));
  EXPECT_EQ(t1, t2);
  std::vector<int> counts(16, 0);
  for (uint16_t t : t1) {
    ASSERT_LT(t, 16);
    counts[t]++;
  }
  for (int c : counts) EXPECT_GT(c, 20);  // roughly uniform
}

TEST_F(DmsTest, MultiKeyHashDiffersFromSingleKey) {
  std::vector<int32_t> k1(100);
  std::vector<int32_t> k2(100);
  for (int i = 0; i < 100; ++i) {
    k1[i] = i;
    k2[i] = 99 - i;
  }
  HwPartitionSpec one;
  one.strategy = HwPartitionStrategy::kHash;
  one.keys = {KeyColumn{reinterpret_cast<uint8_t*>(k1.data()), 4}};
  one.fanout = 32;
  HwPartitionSpec two = one;
  two.keys.push_back(KeyColumn{reinterpret_cast<uint8_t*>(k2.data()), 4});
  std::vector<uint16_t> t1;
  std::vector<uint16_t> t2;
  ASSERT_OK(dms_.ComputeTargets(&cycles_, one, 100, 4, &t1));
  ASSERT_OK(dms_.ComputeTargets(&cycles_, two, 100, 8, &t2));
  EXPECT_NE(t1, t2);
}

TEST_F(DmsTest, RangePartitionMatchesBounds) {
  std::vector<int32_t> keys = {-5, 0, 9, 10, 11, 99, 100};
  HwPartitionSpec spec;
  spec.strategy = HwPartitionStrategy::kRange;
  spec.keys = {KeyColumn{reinterpret_cast<uint8_t*>(keys.data()), 4}};
  spec.fanout = 3;
  spec.range_bounds = {10, 100};  // (-inf,10), [10,100), [100,inf)
  std::vector<uint16_t> targets;
  ASSERT_OK(dms_.ComputeTargets(&cycles_, spec, keys.size(), 4, &targets));
  EXPECT_EQ(targets, (std::vector<uint16_t>{0, 0, 0, 1, 1, 1, 2}));
}

TEST_F(DmsTest, RoundRobinSpreadsEvenly) {
  HwPartitionSpec spec;
  spec.strategy = HwPartitionStrategy::kRoundRobin;
  spec.fanout = 4;
  std::vector<uint16_t> targets;
  ASSERT_OK(dms_.ComputeTargets(&cycles_, spec, 8, 4, &targets));
  EXPECT_EQ(targets, (std::vector<uint16_t>{0, 1, 2, 3, 0, 1, 2, 3}));
}

TEST_F(DmsTest, SkewAwareRoundRobinSpreadsFrequentRange) {
  // Rows with value 7 (the frequent range) rotate over cores {8,9};
  // everything else round-robins over the fan-out (Section 5.4).
  std::vector<int32_t> keys = {7, 1, 7, 2, 7, 3, 7};
  HwPartitionSpec spec;
  spec.strategy = HwPartitionStrategy::kRoundRobin;
  spec.fanout = 4;
  spec.keys = {KeyColumn{reinterpret_cast<uint8_t*>(keys.data()), 4}};
  spec.skew_ranges = {SkewRange{7, 7, {8, 9}}};
  std::vector<uint16_t> targets;
  ASSERT_OK(dms_.ComputeTargets(&cycles_, spec, keys.size(), 4, &targets));
  EXPECT_EQ(targets, (std::vector<uint16_t>{8, 0, 9, 1, 8, 2, 9}));
}

TEST_F(DmsTest, InvalidSpecsRejected) {
  std::vector<uint16_t> targets;
  HwPartitionSpec too_wide;
  too_wide.strategy = HwPartitionStrategy::kHash;
  too_wide.fanout = 64;  // beyond the 32-way engine
  std::vector<int32_t> keys = {1};
  too_wide.keys = {KeyColumn{reinterpret_cast<uint8_t*>(keys.data()), 4}};
  EXPECT_FALSE(dms_.ComputeTargets(&cycles_, too_wide, 1, 4, &targets).ok());

  HwPartitionSpec no_keys;
  no_keys.strategy = HwPartitionStrategy::kHash;
  no_keys.fanout = 8;
  EXPECT_FALSE(dms_.ComputeTargets(&cycles_, no_keys, 1, 4, &targets).ok());

  HwPartitionSpec bad_range;
  bad_range.strategy = HwPartitionStrategy::kRange;
  bad_range.fanout = 4;
  bad_range.keys = {KeyColumn{reinterpret_cast<uint8_t*>(keys.data()), 4}};
  bad_range.range_bounds = {1};  // needs fanout-1 = 3 bounds
  EXPECT_FALSE(dms_.ComputeTargets(&cycles_, bad_range, 1, 4, &targets).ok());
}

TEST_F(DmsTest, DistributeColumnAppendsPerTarget) {
  std::vector<int32_t> col = {10, 20, 30, 40};
  std::vector<uint16_t> targets = {1, 0, 1, 0};
  std::vector<std::vector<uint8_t>> out(2);
  dms_.DistributeColumn(&cycles_, reinterpret_cast<uint8_t*>(col.data()), 4,
                        targets, &out);
  ASSERT_EQ(out[0].size(), 8u);
  ASSERT_EQ(out[1].size(), 8u);
  EXPECT_EQ(reinterpret_cast<int32_t*>(out[0].data())[0], 20);
  EXPECT_EQ(reinterpret_cast<int32_t*>(out[0].data())[1], 40);
  EXPECT_EQ(reinterpret_cast<int32_t*>(out[1].data())[0], 10);
  EXPECT_EQ(reinterpret_cast<int32_t*>(out[1].data())[1], 30);
}

// ---- Dpu facade ------------------------------------------------------------

TEST(DpuTest, ParallelForRunsEveryCoreOnce) {
  Dpu dpu{DpuConfig{}};
  std::vector<std::atomic<int>> hits(32);
  dpu.ParallelFor([&](DpCore& core) { hits[core.id()].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(DpuTest, ParallelForNLimitsParticipants) {
  Dpu dpu{DpuConfig{}};
  std::atomic<int> count{0};
  dpu.ParallelForN(5, [&](DpCore& core) {
    EXPECT_LT(core.id(), 5);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 5);
}

TEST(DpuTest, MaxEffectiveCyclesTracksSlowestCore) {
  Dpu dpu{DpuConfig{}};
  dpu.ParallelFor([&](DpCore& core) {
    core.cycles().ChargeCompute(core.id() == 3 ? 1000.0 : 10.0);
  });
  EXPECT_DOUBLE_EQ(dpu.MaxEffectiveCycles(), 1000.0);
  EXPECT_DOUBLE_EQ(dpu.TotalComputeCycles(), 1000.0 + 31 * 10.0);
  dpu.ResetCores();
  EXPECT_DOUBLE_EQ(dpu.MaxEffectiveCycles(), 0.0);
}

TEST(DpuTest, CoresHaveMacroAssignment) {
  Dpu dpu{DpuConfig{}};
  EXPECT_EQ(dpu.core(0).macro_id(), 0);
  EXPECT_EQ(dpu.core(7).macro_id(), 0);
  EXPECT_EQ(dpu.core(8).macro_id(), 1);
  EXPECT_EQ(dpu.core(31).macro_id(), 3);
}

TEST(DpuTest, SequentialParallelForRounds) {
  // The actor model schedules rounds back to back; state must not
  // leak between rounds.
  Dpu dpu{DpuConfig{}};
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> count{0};
    dpu.ParallelFor([&](DpCore&) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 32);
  }
}

TEST(DpuTest, CustomConfigSmallerDpu) {
  DpuConfig config;
  config.num_cores = 4;
  config.cores_per_macro = 2;
  config.dmem_bytes = 4096;
  Dpu dpu(config);
  EXPECT_EQ(dpu.num_cores(), 4);
  EXPECT_EQ(dpu.core(0).dmem().capacity(), 4096u);
  std::atomic<int> count{0};
  dpu.ParallelFor([&](DpCore&) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 4);
}

}  // namespace
}  // namespace rapid::dpu
