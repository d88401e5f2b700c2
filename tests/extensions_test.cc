// Tests for the extension features: the per-vector encoding stack
// (Section 4.2), plus a randomized cross-engine fuzz harness that
// generates plans and requires RAPID and the Volcano engine to agree
// on every one.

#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/engine.h"
#include "hostdb/volcano.h"
#include "storage/encoding_stack.h"
#include "storage/loader.h"
#include "storage/rle.h"
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
  const auto enc = storage::EncodeVectorRuns(runs);
  ASSERT_NE(enc, nullptr);
  EXPECT_LT(enc->encoded_bytes(), runs.byte_size() / 10);
  EXPECT_GT(static_cast<double>(runs.byte_size()) /
                static_cast<double>(enc->encoded_bytes()),
            10.0);
}

TEST(EncodingStackTest, PlainChosenForHighEntropyVectors) {
  storage::Vector unique(storage::DataType::kInt64, 512);
  for (int i = 0; i < 512; ++i) unique.Append(i * 7919);
  EXPECT_EQ(storage::EncodeVectorRuns(unique), nullptr);
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
  const auto reports = storage::BuildTableEncodings(&table);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].vectors_total, 2u);
  EXPECT_EQ(reports[0].vectors_rle, 1u);
  EXPECT_LT(reports[0].encoded_bytes, reports[0].plain_bytes);
  // Summing the built encodings again reports the same.
  const auto summed = storage::SummarizeTableEncodings(&table);
  EXPECT_EQ(summed[0].vectors_rle, 1u);
  EXPECT_EQ(summed[0].encoded_bytes, reports[0].encoded_bytes);
}

// Row `row` of an encoded vector, widened as Vector::GetInt does.
template <typename T>
int64_t EncodedValueAt(const storage::EncodedColumn& enc, size_t row) {
  T value;
  std::memcpy(&value, enc.values.data() + enc.RunIndexOf(row) * sizeof(T),
              sizeof(T));
  return static_cast<int64_t>(value);
}

TEST(EncodingStackTest, RleRoundTripThroughVector) {
  storage::Vector v(storage::DataType::kInt16, 64);
  for (int i = 0; i < 64; ++i) v.Append(i / 16);
  const auto enc = storage::EncodeVectorRuns(v);
  ASSERT_NE(enc, nullptr);
  ASSERT_EQ(enc->num_rows, 64u);
  for (size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(EncodedValueAt<int16_t>(*enc, i), v.GetInt(i));
  }
}

// Reference for EncodeVectorRuns: RleEncodeTyped's runs, kept when
// the packed form (native-width value + 4-byte length per run) moves
// fewer bytes than the plain array.
template <typename T>
std::unique_ptr<storage::EncodedColumn> ReferenceRuns(
    const storage::Vector& v) {
  const size_t n = v.size();
  if (n == 0) return nullptr;
  const storage::RleColumn rle = storage::RleEncodeTyped(v.Data<T>(), n);
  if (rle.runs.size() * (sizeof(T) + 4) >= n * sizeof(T)) return nullptr;
  auto enc = std::make_unique<storage::EncodedColumn>();
  enc->num_rows = n;
  enc->width = sizeof(T);
  uint32_t row = 0;
  for (const storage::RleRun& run : rle.runs) {
    const T value = static_cast<T>(run.value);
    const auto* bytes = reinterpret_cast<const uint8_t*>(&value);
    enc->values.insert(enc->values.end(), bytes, bytes + sizeof(T));
    enc->lengths.push_back(run.length);
    enc->starts.push_back(row);
    row += run.length;
  }
  return enc;
}

std::unique_ptr<storage::EncodedColumn> ReferenceRuns(
    const storage::Vector& v) {
  switch (v.type()) {
    case storage::DataType::kInt8:
      return ReferenceRuns<int8_t>(v);
    case storage::DataType::kInt16:
      return ReferenceRuns<int16_t>(v);
    case storage::DataType::kInt32:
    case storage::DataType::kDate:
      return ReferenceRuns<int32_t>(v);
    case storage::DataType::kDictCode:
      return ReferenceRuns<uint32_t>(v);
    case storage::DataType::kInt64:
    case storage::DataType::kDecimal:
      return ReferenceRuns<int64_t>(v);
  }
  return nullptr;
}

void ExpectSameEncoding(const storage::EncodedColumn* got,
                        const storage::EncodedColumn* want,
                        const std::string& where) {
  ASSERT_EQ(got == nullptr, want == nullptr) << where;
  if (want == nullptr) return;
  EXPECT_EQ(got->num_rows, want->num_rows) << where;
  EXPECT_EQ(got->width, want->width) << where;
  EXPECT_EQ(got->values, want->values) << where;
  EXPECT_EQ(got->lengths, want->lengths) << where;
  EXPECT_EQ(got->starts, want->starts) << where;
}

// `n` rows in exactly `runs` runs of near-equal length, alternating
// between `a` and `b`.
storage::Vector RunsVector(storage::DataType type, size_t n, size_t runs,
                           int64_t a, int64_t b) {
  storage::Vector v(type, n);
  for (size_t i = 0; i < n; ++i) v.Append((i * runs / n) % 2 == 0 ? a : b);
  return v;
}

TEST(EncodingStackTest, EncodeVectorRunsMatchesReferenceOnEveryType) {
  struct TypeCase {
    storage::DataType type;
    int64_t a;  // negative or >= 2^31 where the type allows
    int64_t b;
  };
  const TypeCase cases[] = {
      {storage::DataType::kInt8, -128, -1},
      {storage::DataType::kInt16, -32768, -2},
      {storage::DataType::kInt32, INT32_MIN, 7},
      {storage::DataType::kDate, -5, 8035},
      {storage::DataType::kDictCode, 0x80000001LL, 0xFFFFFFFFLL},
      {storage::DataType::kInt64, INT64_MIN, -1},
      {storage::DataType::kDecimal, -123456, 5},
  };
  Rng rng(17);
  for (const TypeCase& tc : cases) {
    const size_t width = storage::WidthOf(tc.type);
    std::vector<std::pair<std::string, storage::Vector>> vectors;
    vectors.emplace_back("n=1", RunsVector(tc.type, 1, 1, tc.a, tc.b));
    vectors.emplace_back("all equal", RunsVector(tc.type, 2048, 1, tc.a, tc.b));
    vectors.emplace_back("alternating",
                         RunsVector(tc.type, 2048, 2048, tc.a, tc.b));
    // The packed form stays plain from ceil(n * w / (w + 4)) runs on.
    for (size_t n : {size_t{2048}, size_t{100}, size_t{7}}) {
      const size_t even = (n * width + width + 3) / (width + 4);
      vectors.emplace_back("break-even n=" + std::to_string(n),
                           RunsVector(tc.type, n, even, tc.a, tc.b));
      vectors.emplace_back("one run fewer n=" + std::to_string(n),
                           RunsVector(tc.type, n, even - 1, tc.a, tc.b));
    }
    for (int trial = 0; trial < 8; ++trial) {
      // Random run lengths over a few values, at every density.
      storage::Vector v(tc.type, 2048);
      const uint64_t mean_run = uint64_t{1} << trial;
      int64_t value = tc.a;
      while (v.size() < 2048) {
        const size_t len = 1 + rng.NextBounded(2 * mean_run);
        for (size_t i = 0; i < len && v.size() < 2048; ++i) v.Append(value);
        const int64_t choices[] = {tc.a, tc.b, 0, 1};
        value = choices[rng.NextBounded(4)];
      }
      vectors.emplace_back("random mean run " + std::to_string(mean_run),
                           std::move(v));
    }
    for (const auto& [name, v] : vectors) {
      const std::string where =
          "type " + std::to_string(static_cast<int>(tc.type)) + " " + name;
      const auto got = storage::EncodeVectorRuns(v);
      const auto want = ReferenceRuns(v);
      ExpectSameEncoding(got.get(), want.get(), where);
      if (name.rfind("break-even", 0) == 0) {
        EXPECT_EQ(got, nullptr) << where;
      } else if (name.rfind("one run fewer", 0) == 0 ||
                 name == "all equal") {
        EXPECT_NE(got, nullptr) << where;
      }
    }
  }
}

TEST(EncodingStackTest, ApplyUpdateLeavesFreshEncodings) {
  // Run-heavy columns over several chunks and partitions, so batches
  // split runs, merge them and flip vectors between RLE and plain.
  const std::vector<storage::ColumnSpec> specs = {
      {"id", storage::ColumnKind::kInt64},
      {"flag", storage::ColumnKind::kInt8},
      {"run", storage::ColumnKind::kInt32},
      {"mode", storage::ColumnKind::kString}};
  const char* modes[] = {"A", "B"};
  std::vector<storage::ColumnData> data(specs.size());
  for (int i = 0; i < 1000; ++i) {
    data[0].ints.push_back(i);
    data[1].ints.push_back((i / 7) % 3 - 1);
    data[2].ints.push_back(i / 40);
    data[3].strings.push_back(modes[(i / 100) % 2]);
  }
  storage::LoadOptions opts;
  opts.rows_per_chunk = 64;
  opts.num_partitions = 3;
  ASSERT_OK_AND_ASSIGN(storage::Table table,
                       storage::LoadTable("u", specs, data, opts));
  core::RapidEngine engine;
  ASSERT_OK(engine.Load(std::move(table)));
  const storage::Table* t = engine.GetTable("u");

  const auto expect_fresh = [&](const std::string& when) {
    for (size_t p = 0; p < t->num_partitions(); ++p) {
      for (size_t ch = 0; ch < t->partition(p).num_chunks(); ++ch) {
        const storage::Chunk& chunk = t->partition(p).chunk(ch);
        for (size_t c = 0; c < chunk.num_columns(); ++c) {
          ExpectSameEncoding(chunk.encoding(c),
                             storage::EncodeVectorRuns(chunk.column(c)).get(),
                             when + " p" + std::to_string(p) + " chunk " +
                                 std::to_string(ch) + " col " +
                                 std::to_string(c));
        }
      }
    }
  };

  // Row 70 named twice: the last image wins in the base vector and in
  // the tracker.
  uint64_t scn = t->scn();
  ASSERT_OK(engine.ApplyUpdate("u", ++scn,
                               {{70, {-1, 5, 9, 1}},
                                {3, {3, 0, 0, 0}},
                                {999, {999, -1, 24, 1}},
                                {70, {-2, 6, 10, 0}}}));
  expect_fresh("batch 1");
  // Row 70: chunk 1 -> partition 1, chunk 0, row 6.
  const storage::Chunk& chunk70 = t->partition(1).chunk(0);
  EXPECT_EQ(chunk70.column(0).GetInt(6), -2);
  EXPECT_EQ(chunk70.column(2).GetInt(6), 10);
  EXPECT_EQ(engine.tracker("u")->Resolve(scn, 70, 0).value(), -2);
  EXPECT_EQ(engine.tracker("u")->Resolve(scn, 70, 1).value(), 6);

  // A whole chunk rewritten to one value, then broken up again.
  Rng rng(5);
  for (int batch = 0; batch < 4; ++batch) {
    std::vector<storage::RowChange> changes;
    for (uint64_t row = 128; row < 192; ++row) {
      const int64_t v = batch % 2 == 0 ? 4 : rng.NextInRange(0, 3);
      changes.push_back({row, {v, v, v, v % 2}});
    }
    for (int i = 0; i < 32; ++i) {
      const int64_t v = rng.NextInRange(0, 1);
      changes.push_back({rng.NextBounded(1000), {v, v, v, v}});
    }
    ASSERT_OK(engine.ApplyUpdate("u", ++scn, std::move(changes)));
    expect_fresh("batch " + std::to_string(batch + 2));
  }
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
    auto host_result = hostdb::VolcanoExecutor::Execute(plan, host_catalog_);
    if (!host_result.ok()) {
      // A keyless SUM over an empty join has no value: both engines
      // refuse it alike.
      EXPECT_EQ(host_result.status().code(), StatusCode::kNotSupported)
          << trial << ": " << host_result.status().ToString();
      EXPECT_EQ(rapid_result.status().code(), StatusCode::kNotSupported)
          << trial << ": " << rapid_result.status().ToString();
      continue;
    }
    ASSERT_TRUE(rapid_result.ok())
        << trial << ": " << rapid_result.status().ToString();
    ExpectSameRows(rapid_result.value().rows, host_result.value());
  }
}

}  // namespace
}  // namespace rapid
