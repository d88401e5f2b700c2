// Tests for the extension features: the per-vector encoding stack
// (Section 4.2), plus a randomized cross-engine fuzz harness that
// generates plans and requires RAPID and the Volcano engine to agree
// on every one.

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/engine.h"
#include "hostdb/volcano.h"
#include "storage/encoding_stack.h"
#include "storage/loader.h"
#include "tests/test_util.h"

namespace rapid {
namespace {

using core::ColumnMeta;
using primitives::CmpOp;
using rapid::testing::ExpectSameRows;
using rapid::testing::Rows;

// ---- Encoding stack --------------------------------------------------------

TEST(EncodingStackTest, RleChosenForRunHeavyVectors) {
  storage::Vector runs(storage::DataType::kInt32, 1024);
  for (int i = 0; i < 1024; ++i) runs.Append(i / 256);  // four runs
  const auto choice = storage::ChooseEncoding(runs);
  EXPECT_EQ(choice.encoding, storage::VectorEncoding::kRle);
  EXPECT_LT(choice.encoded_bytes, choice.plain_bytes / 10);
  EXPECT_GT(choice.CompressionRatio(), 10.0);
}

TEST(EncodingStackTest, PlainChosenForHighEntropyVectors) {
  storage::Vector unique(storage::DataType::kInt64, 512);
  for (int i = 0; i < 512; ++i) unique.Append(i * 7919);
  const auto choice = storage::ChooseEncoding(unique);
  EXPECT_EQ(choice.encoding, storage::VectorEncoding::kPlain);
  EXPECT_EQ(choice.encoded_bytes, choice.plain_bytes);
}

TEST(EncodingStackTest, PerVectorSelectionWithinOneColumn) {
  // One column whose first chunk is constant (RLE wins) and second is
  // unique (plain wins): the stack is selected per vector.
  std::vector<storage::ColumnSpec> specs = {{"c",
                                             storage::ColumnKind::kInt64}};
  std::vector<storage::ColumnData> data(1);
  for (int i = 0; i < 1000; ++i) data[0].ints.push_back(42);
  for (int i = 0; i < 1000; ++i) data[0].ints.push_back(i * 13 + 7);
  storage::LoadOptions opts;
  opts.rows_per_chunk = 1000;
  ASSERT_OK_AND_ASSIGN(storage::Table table,
                       storage::LoadTable("t", specs, data, opts));
  const auto reports = storage::AnalyzeTableEncodings(table);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].vectors_total, 2u);
  EXPECT_EQ(reports[0].vectors_rle, 1u);
  EXPECT_LT(reports[0].encoded_bytes, reports[0].plain_bytes);
}

TEST(EncodingStackTest, RleRoundTripThroughVector) {
  storage::Vector v(storage::DataType::kInt16, 64);
  for (int i = 0; i < 64; ++i) v.Append(i / 16);
  const storage::RleColumn rle = storage::RleFromVector(v);
  const std::vector<int64_t> decoded = storage::RleDecode(rle);
  for (size_t i = 0; i < 64; ++i) EXPECT_EQ(decoded[i], v.GetInt(i));
}

// ---- Cross-engine fuzz -----------------------------------------------------

class FuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(321);
    std::vector<storage::ColumnSpec> specs = {
        {"a", storage::ColumnKind::kInt32},
        {"b", storage::ColumnKind::kInt64},
        {"c", storage::ColumnKind::kInt32},
        {"d", storage::ColumnKind::kDecimal}};
    std::vector<storage::ColumnData> data(4);
    for (int i = 0; i < 5000; ++i) {
      data[0].ints.push_back(rng.NextInRange(0, 50));
      data[1].ints.push_back(rng.NextInRange(-100, 100));
      data[2].ints.push_back(rng.NextInRange(0, 1000));
      data[3].decimals.push_back(
          static_cast<double>(rng.NextInRange(0, 10000)) / 100.0);
    }
    storage::LoadOptions opts;
    opts.rows_per_chunk = 512;
    auto t1 = storage::LoadTable("f1", specs, data, opts);
    ASSERT_TRUE(t1.ok());
    ASSERT_TRUE(engine_.Load(std::move(t1).value()).ok());
    auto t2 = storage::LoadTable("f1", specs, data, opts);
    host_catalog_.emplace("f1", std::move(t2).value());
  }

  core::Predicate RandomPredicate(Rng& rng) {
    const char* cols[] = {"a", "b", "c"};
    const std::string col = cols[rng.NextBounded(3)];
    const CmpOp ops[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                         CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};
    switch (rng.NextBounded(3)) {
      case 0:
        return core::Predicate::CmpConst(col, ops[rng.NextBounded(6)],
                                         rng.NextInRange(-100, 1000));
      case 1: {
        const int64_t lo = rng.NextInRange(-100, 500);
        return core::Predicate::Between(col, lo,
                                        lo + rng.NextInRange(0, 300));
      }
      default:
        return core::Predicate::CmpCol(col, ops[rng.NextBounded(6)],
                                       cols[rng.NextBounded(3)]);
    }
  }

  core::RapidEngine engine_;
  core::Catalog host_catalog_;
};

TEST_F(FuzzTest, RandomFilterAggPlansAgreeAcrossEngines) {
  Rng rng(99);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<core::Predicate> preds;
    const size_t num_preds = rng.NextBounded(4);
    for (size_t i = 0; i < num_preds; ++i) preds.push_back(RandomPredicate(rng));

    auto scan = core::LogicalNode::Scan("f1", {"a", "b", "c", "d"}, preds);

    core::LogicalPtr plan;
    switch (rng.NextBounded(3)) {
      case 0:
        plan = scan;
        break;
      case 1: {
        std::vector<core::AggSpec> aggs;
        aggs.push_back({"s", core::AggFunc::kSum, core::Expr::Col("b"), {}});
        aggs.push_back({"m", core::AggFunc::kMax, core::Expr::Col("d"), {}});
        aggs.push_back({"n", core::AggFunc::kCount, nullptr, {}});
        plan = core::LogicalNode::GroupBy(
            scan, {{"a", core::Expr::Col("a")}}, std::move(aggs));
        break;
      }
      default: {
        plan = core::LogicalNode::Project(
            scan, {{"x", core::Expr::Mul(core::Expr::Col("d"),
                                         core::Expr::Col("a"))},
                   {"y", core::Expr::Sub(core::Expr::Col("b"),
                                         core::Expr::Int(3))}});
        break;
      }
    }

    auto rapid_result = engine_.Execute(plan);
    ASSERT_TRUE(rapid_result.ok())
        << trial << ": " << rapid_result.status().ToString();
    auto host_result = hostdb::VolcanoExecutor::Execute(plan, host_catalog_);
    ASSERT_TRUE(host_result.ok()) << trial;
    ExpectSameRows(rapid_result.value().rows, host_result.value());
  }
}

TEST_F(FuzzTest, RandomSelfJoinPlansAgreeAcrossEngines) {
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    auto small = core::LogicalNode::Scan(
        "f1", {"a", "b"}, {RandomPredicate(rng)});
    auto probe_side = core::LogicalNode::Scan(
        "f1", {"a", "d"}, {RandomPredicate(rng)});
    core::LogicalPtr plan = core::LogicalNode::Join(
        small, probe_side, {"a"}, {"a"}, {"b", "d"});
    if (rng.NextBounded(2) == 0) {
      plan = core::LogicalNode::GroupBy(
          plan, {},
          {{"s", core::AggFunc::kSum, core::Expr::Col("b"), {}},
           {"n", core::AggFunc::kCount, nullptr, {}}});
    }
    auto rapid_result = engine_.Execute(plan);
    ASSERT_TRUE(rapid_result.ok())
        << trial << ": " << rapid_result.status().ToString();
    auto host_result = hostdb::VolcanoExecutor::Execute(plan, host_catalog_);
    ASSERT_TRUE(host_result.ok()) << trial;
    ExpectSameRows(rapid_result.value().rows, host_result.value());
  }
}

}  // namespace
}  // namespace rapid
