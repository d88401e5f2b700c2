// Encoded scans (Section 4.2 + 5.4): the loader's per-vector encoding
// choice, the typed RLE decode path, QComp's code-space predicate
// rewrite, and — end to end — bit-identity of RAPID_ENCODED_SCAN=off
// vs auto across SIMD tiers and injected DMS faults.
// The gate changes bytes moved and modeled cycles, never results.

#include <algorithm>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/arena.h"
#include "common/bitvector.h"
#include "common/config.h"
#include "common/fault.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/engine.h"
#include "core/qcomp/planner.h"
#include "core/qcomp/steps.h"
#include "hostdb/database.h"
#include "hostdb/offload.h"
#include "storage/encoding_stack.h"
#include "storage/loader.h"
#include "storage/rle.h"
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

// ---- BitVector span emission -----------------------------------------------

TEST(SetRangeTest, MatchesPerBitLoopAtEveryAlignment) {
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 1 + static_cast<size_t>(rng.NextBounded(300));
    const size_t begin = static_cast<size_t>(rng.NextBounded(
        static_cast<uint32_t>(n + 1)));
    const size_t end = begin + static_cast<size_t>(rng.NextBounded(
                                   static_cast<uint32_t>(n - begin + 1)));
    BitVector spans(n);
    spans.SetRange(begin, end);
    BitVector bits(n);
    for (size_t i = begin; i < end; ++i) bits.Set(i);
    EXPECT_TRUE(spans == bits) << "n=" << n << " [" << begin << "," << end
                               << ")";
  }
}

TEST(SetRangeTest, OrsIntoExistingSpans) {
  BitVector bv(192);
  bv.SetRange(0, 10);
  bv.SetRange(100, 130);
  bv.SetRange(5, 64);  // overlaps the first span and a word boundary
  EXPECT_EQ(bv.CountOnes(), 64u + 30u);
  EXPECT_TRUE(bv.Test(63));
  EXPECT_FALSE(bv.Test(64));
}

// ---- Encoding choice on TPC-H-shaped columns -------------------------------

TEST(EncodedScanTest, SortedPrefixChunksRleShuffledTailsStayPlain) {
  // One column, two chunks: a sorted low-cardinality prefix (the
  // l_shipdate shape after clustering) and a shuffled unique tail.
  std::vector<storage::ColumnSpec> specs = {
      {"d", storage::ColumnKind::kInt32}};
  std::vector<storage::ColumnData> data(1);
  for (int i = 0; i < 1024; ++i) data[0].ints.push_back(i / 128);
  std::vector<int64_t> tail(1024);
  std::iota(tail.begin(), tail.end(), 100000);
  Rng rng(7);
  for (size_t i = tail.size(); i > 1; --i) {
    std::swap(tail[i - 1], tail[rng.NextBounded(static_cast<uint32_t>(i))]);
  }
  data[0].ints.insert(data[0].ints.end(), tail.begin(), tail.end());
  storage::LoadOptions opts;
  opts.rows_per_chunk = 1024;
  ASSERT_OK_AND_ASSIGN(storage::Table table,
                       storage::LoadTable("l", specs, data, opts));

  // The loader runs BuildTableEncodings: chunk 0 keeps an RLE-topped
  // transfer representation, chunk 1 stays plain.
  ASSERT_EQ(table.num_partitions(), 1u);
  ASSERT_EQ(table.partition(0).num_chunks(), 2u);
  const storage::EncodedColumn* rle = table.partition(0).chunk(0).encoding(0);
  ASSERT_NE(rle, nullptr);
  EXPECT_EQ(rle->num_rows, 1024u);
  EXPECT_LT(rle->encoded_bytes(), 1024u * 4u);
  EXPECT_EQ(table.partition(0).chunk(1).encoding(0), nullptr);
  EXPECT_GT(table.stats(0).compression_ratio, 1.0);
}

// ---- Typed RLE decode (native width, pooled scratch) -----------------------

TEST(EncodedScanTest, TypedRleDecodeRoundTripsAtNativeWidth) {
  std::vector<int16_t> values;
  Rng rng(13);
  for (int run = 0; run < 40; ++run) {
    const int16_t v = static_cast<int16_t>(rng.NextInRange(-300, 300));
    const int len = 1 + static_cast<int>(rng.NextBounded(50));
    for (int i = 0; i < len; ++i) values.push_back(v);
  }
  const storage::RleColumn rle =
      storage::RleEncodeTyped<int16_t>(values.data(), values.size());
  ASSERT_EQ(rle.num_rows, values.size());

  // Decode at native width into TileBufferPool scratch — the scan
  // path's recycled-buffer contract, no widened heap vector.
  Arena arena;
  TileBufferPool pool(&arena);
  TileBufferPool::Handle scratch = pool.AcquireArray<int16_t>(values.size());
  storage::RleDecode<int16_t>(rle, scratch.as<int16_t>());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(scratch.as<int16_t>()[i], values[i]) << i;
  }

  // The legacy widening overload agrees element-wise.
  const std::vector<int64_t> widened = storage::RleDecode(rle);
  ASSERT_EQ(widened.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(widened[i], static_cast<int64_t>(values[i])) << i;
  }
}

// ---- QComp code-space rewrite ----------------------------------------------

// Lowers a single scan and returns its predicates (fusion disabled so
// the ScanStep is inspectable).
std::vector<Predicate> LowerScanPredicates(const core::Catalog& catalog,
                                           const LogicalPtr& plan) {
  core::PlannerOptions options;
  options.enable_fusion = false;
  core::Planner planner(dpu::DpuConfig::Default(),
                        dpu::CostParams::Default(), options);
  auto lowered = planner.Plan(plan, catalog);
  EXPECT_TRUE(lowered.ok()) << lowered.status().ToString();
  if (!lowered.ok()) return {};
  for (const auto& step : lowered.value().steps) {
    if (auto* scan = dynamic_cast<core::ScanStep*>(step.get())) {
      return scan->predicates();
    }
  }
  ADD_FAILURE() << "no ScanStep in lowered plan";
  return {};
}

TEST(EncodedScanTest, ContiguousDictInSetRewrittenToCodeSpaceRange) {
  std::vector<storage::ColumnSpec> specs = {
      {"s", storage::ColumnKind::kString},
      {"v", storage::ColumnKind::kInt32}};
  std::vector<storage::ColumnData> data(2);
  const char* words[] = {"apple", "berry", "cherry", "date", "elder"};
  for (int i = 0; i < 512; ++i) {
    data[0].strings.push_back(words[i % 5]);
    data[1].ints.push_back(i);
  }
  core::Catalog catalog;
  ASSERT_OK_AND_ASSIGN(storage::Table table,
                       storage::LoadTable("t", specs, data));
  catalog.emplace("t", std::move(table));

  // Codes {1, 2, 3}: contiguous -> Between(1, 3) in code space.
  BitVector range(5);
  range.Set(1);
  range.Set(2);
  range.Set(3);
  std::vector<Predicate> preds = LowerScanPredicates(
      catalog, LogicalNode::Scan("t", {"v"},
                                 {Predicate::InSet("s", range, 0.6)}));
  ASSERT_EQ(preds.size(), 1u);
  EXPECT_EQ(preds[0].kind, Predicate::Kind::kBetween);
  EXPECT_EQ(preds[0].value, 1);
  EXPECT_EQ(preds[0].value2, 3);

  // A singleton becomes an equality comparison.
  BitVector one(5);
  one.Set(2);
  preds = LowerScanPredicates(
      catalog,
      LogicalNode::Scan("t", {"v"}, {Predicate::InSet("s", one, 0.2)}));
  ASSERT_EQ(preds.size(), 1u);
  EXPECT_EQ(preds[0].kind, Predicate::Kind::kCmpConst);
  EXPECT_EQ(preds[0].op, CmpOp::kEq);
  EXPECT_EQ(preds[0].value, 2);

  // A gap keeps the bitmap probe.
  BitVector gap(5);
  gap.Set(0);
  gap.Set(4);
  preds = LowerScanPredicates(
      catalog,
      LogicalNode::Scan("t", {"v"}, {Predicate::InSet("s", gap, 0.4)}));
  ASSERT_EQ(preds.size(), 1u);
  EXPECT_EQ(preds[0].kind, Predicate::Kind::kInSet);
}

// ---- Engine-level bit-identity ---------------------------------------------

class EncodedScanEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A TPC-H Q6 shaped lineitem slice: sorted l_shipdate (RLE gold),
    // small-domain quantity/discount, and a high-entropy price column
    // that must stay plain.
    std::vector<storage::ColumnSpec> specs = {
        {"shipdate", storage::ColumnKind::kDate},
        {"quantity", storage::ColumnKind::kInt32},
        {"discount", storage::ColumnKind::kInt32},
        {"price", storage::ColumnKind::kInt64}};
    std::vector<storage::ColumnData> data(4);
    Rng rng(4242);
    const int rows = 6000;
    for (int i = 0; i < rows; ++i) {
      data[0].ints.push_back(9131 + i / 250);  // sorted day numbers
      data[1].ints.push_back(rng.NextInRange(1, 50));
      data[2].ints.push_back(rng.NextInRange(0, 10));
      data[3].ints.push_back(rng.NextInRange(90000, 105000));
    }
    ASSERT_OK(host_.CreateTable("lineitem", specs, data));
    ASSERT_OK(host_.LoadToRapid("lineitem", &engine_));
  }

  // Q6 shape: range on the sorted date, point filters on the small
  // domains, sum of a product.
  LogicalPtr Q6Plan() {
    return LogicalNode::GroupBy(
        LogicalNode::Scan(
            "lineitem", {"discount", "price"},
            {Predicate::Between("shipdate", 9135, 9150, 0.6),
             Predicate::CmpConst("quantity", CmpOp::kLt, 24),
             Predicate::Between("discount", 5, 7, 0.3)}),
        {},
        {{"revenue", core::AggFunc::kSum,
          core::Expr::Mul(core::Expr::Col("price"),
                          core::Expr::Col("discount")),
          {}}});
  }

  HostDatabase host_;
  core::RapidEngine engine_{dpu::DpuConfig{}};
};

TEST_F(EncodedScanEngineTest, OffAndAutoBitIdenticalAcrossTiersAndSchedulers) {
  QueryResult reference;
  {
    ScopedConfig off(&Config::encoded_scan, EncodedScanMode::kOff);
    ASSERT_OK_AND_ASSIGN(reference, engine_.Execute(Q6Plan()));
    EXPECT_EQ(reference.stats.encoded_bytes_moved, 0u);
    EXPECT_EQ(reference.stats.runs_filtered, 0u);
  }
  ASSERT_EQ(reference.rows.num_rows(), 1u);

  const SimdLevel levels[] = {SimdLevel::kScalar, SimdLevel::kSse42,
                              SimdLevel::kAvx2};
  for (SimdLevel level : levels) {
    ScopedConfig simd(&Config::simd, level);
    QueryResult off_run;
    QueryResult auto_run;
    {
      ScopedConfig off(&Config::encoded_scan, EncodedScanMode::kOff);
      ASSERT_OK_AND_ASSIGN(off_run, engine_.Execute(Q6Plan()));
    }
    {
      ScopedConfig on(&Config::encoded_scan, EncodedScanMode::kAuto);
      ASSERT_OK_AND_ASSIGN(auto_run, engine_.Execute(Q6Plan()));
    }
    ExpectSameRows(off_run.rows, reference.rows);
    ExpectSameRows(auto_run.rows, reference.rows);
    // The encoded path really ran: the DMS moved fewer bytes than
    // the plain equivalent and predicates resolved whole runs.
    EXPECT_GT(auto_run.stats.encoded_bytes_moved, 0u)
        << SimdLevelName(level);
    EXPECT_LT(auto_run.stats.encoded_bytes_moved,
              auto_run.stats.plain_bytes_moved)
        << SimdLevelName(level);
    EXPECT_GT(auto_run.stats.runs_filtered, 0u) << SimdLevelName(level);
    EXPECT_EQ(off_run.stats.encoded_bytes_moved, 0u);
  }
}

TEST_F(EncodedScanEngineTest, EncodedScanSurvivesDmsFaultAndReplays) {
  QueryResult clean;
  {
    ScopedConfig on(&Config::encoded_scan, EncodedScanMode::kAuto);
    ASSERT_OK_AND_ASSIGN(clean, engine_.Execute(Q6Plan()));
  }

  // Transient dms.transfer faults under the encoded path: descriptor
  // retries and fragment checkpoints must replay encoded scans to the
  // same rows. Seed chosen for this test's own poll sequence (the
  // encoded path legitimately changes fault-site ordinals).
  ScopedConfig on(&Config::encoded_scan, EncodedScanMode::kAuto);
  ScopedFaultInjection fi(81);
  FaultInjector::SiteSpec spec;
  spec.max_failures = 2;
  fi.Arm(faults::kDmsTransfer, spec);

  ASSERT_OK_AND_ASSIGN(QueryResult faulted, engine_.Execute(Q6Plan()));
  EXPECT_EQ(FaultInjector::Instance().failures(faults::kDmsTransfer), 2u);
  ExpectSameRows(faulted.rows, clean.rows);
  EXPECT_GT(faulted.stats.encoded_bytes_moved, 0u);
}

TEST_F(EncodedScanEngineTest, QueryReportExposesEncodedCounters) {
  ScopedConfig on(&Config::encoded_scan, EncodedScanMode::kAuto);
  ASSERT_OK_AND_ASSIGN(QueryReport report,
                       host_.ExecuteQuery(Q6Plan(), &engine_));
  EXPECT_FALSE(report.fell_back);
  EXPECT_GT(report.rapid_stats.encoded_bytes_moved, 0u);
  EXPECT_GT(report.rapid_stats.plain_bytes_moved,
            report.rapid_stats.encoded_bytes_moved);
  EXPECT_GT(report.rapid_stats.runs_filtered, 0u);

  ScopedConfig off(&Config::encoded_scan, EncodedScanMode::kOff);
  ASSERT_OK_AND_ASSIGN(QueryReport plain_report,
                       host_.ExecuteQuery(Q6Plan(), &engine_));
  EXPECT_EQ(plain_report.rapid_stats.encoded_bytes_moved, 0u);
  EXPECT_EQ(plain_report.rapid_stats.runs_filtered, 0u);
  ExpectSameRows(report.rows, plain_report.rows);
}

// Truncating-cast semantics: a constant outside the column's native
// range must compare identically on the run-level and per-row paths
// (both truncate to the native width first).
TEST(EncodedScanTest, RunLevelFilterKeepsTruncatingCastSemantics) {
  std::vector<storage::ColumnSpec> specs = {
      {"b", storage::ColumnKind::kInt8},
      {"id", storage::ColumnKind::kInt32}};
  std::vector<storage::ColumnData> data(2);
  for (int i = 0; i < 4096; ++i) {
    data[0].ints.push_back((i / 512) % 3 == 0 ? 44 : 7);  // long runs
    data[1].ints.push_back(i);
  }
  core::RapidEngine engine{dpu::DpuConfig{}};
  ASSERT_OK_AND_ASSIGN(storage::Table table,
                       storage::LoadTable("t8", specs, data));
  ASSERT_OK(engine.Load(std::move(table)));

  // 300 truncates to (int8)44: the predicate must match the 44-runs
  // on both paths.
  auto plan = LogicalNode::Scan(
      "t8", {"id"}, {Predicate::CmpConst("b", CmpOp::kEq, 300, 0.3)});
  QueryResult off_run;
  QueryResult auto_run;
  {
    ScopedConfig off(&Config::encoded_scan, EncodedScanMode::kOff);
    ASSERT_OK_AND_ASSIGN(off_run, engine.Execute(plan));
  }
  {
    ScopedConfig on(&Config::encoded_scan, EncodedScanMode::kAuto);
    ASSERT_OK_AND_ASSIGN(auto_run, engine.Execute(plan));
  }
  EXPECT_GT(off_run.rows.num_rows(), 0u);
  ExpectSameRows(off_run.rows, auto_run.rows);
}

}  // namespace
}  // namespace rapid
