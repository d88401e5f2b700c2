// Narrow physical widths: every base-table vector is stored and moved
// at the narrowest width that holds its values, and every reader of a
// scan tile dispatches on that width. These tests pin results against
// the Volcano oracle on every SIMD tier, at 1, 4 and 32 cores, with
// encoded scans off and on and fusion off and on:
//   * values at each width edge (+-127/128, +-32767/32768, +-2^31),
//     negative DSB mantissas, dictionary codes and dates;
//   * predicate constants outside a vector's range, for every CmpOp
//     and for BETWEEN (they compare as int64, never wrap);
//   * a column-vs-column compare across two widths;
//   * a write that widens one chunk of a column, then TPC-H Q6 and Q14;
//   * LOAD of TPC-H SF 0.01 storing lineitem in fewer bytes than its
//     declared widths.

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/config.h"
#include "common/rng.h"
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
using core::AggSpec;
using core::ColumnSet;
using core::ExecOptions;
using core::Expr;
using core::LogicalNode;
using core::LogicalPtr;
using core::Predicate;
using core::QueryResult;
using primitives::CmpOp;
using rapid::testing::SortedRows;

constexpr int kCoreCounts[] = {1, 4, 32};
constexpr size_t kChunkRows = 256;
constexpr int64_t kI32Min = std::numeric_limits<int32_t>::min();
constexpr int64_t kI32Max = std::numeric_limits<int32_t>::max();
constexpr CmpOp kOps[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                          CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};

// One chunk per width edge: chunk c's values span [lo, hi], so the
// loader stores it at `width` bytes.
struct Edge {
  int64_t lo;
  int64_t hi;
  size_t width;
};
constexpr Edge kEdges[] = {
    {-128, 127, 1},           {-128, 128, 2},
    {-129, 127, 2},           {-32768, 32767, 2},
    {-32768, 32768, 4},       {-32769, 0, 4},
    {kI32Min, kI32Max, 4},    {kI32Min, kI32Max + 1, 8},
    {kI32Min - 1, 5, 8},
};
constexpr size_t kNumChunks = sizeof(kEdges) / sizeof(kEdges[0]);

// Row r of chunk c: both ends of the chunk's edge, then values spread
// over it (some equal to the edges' neighbours).
int64_t EdgeValue(const Edge& e, size_t r, Rng& rng) {
  if (r == 0) return e.lo;
  if (r == 1) return e.hi;
  if (r % 7 == 0) return e.hi - 1;
  if (r % 11 == 0) return e.lo + 1;
  const uint64_t span = static_cast<uint64_t>(e.hi - e.lo) + 1;
  return e.lo + static_cast<int64_t>(rng.Next() % span);
}

// Constants every predicate sweep tries: inside, at and beyond each
// width's range, and far outside every range.
std::vector<int64_t> SweepConstants() {
  return {0,       -1,          5,           127,         128,
          -128,    -129,        32767,       32768,       -32768,
          -32769,  kI32Max,     kI32Max + 1, kI32Min,     kI32Min - 1,
          int64_t{1} << 40,     -(int64_t{1} << 40)};
}

class NarrowWidthTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    host_ = new hostdb::HostDatabase();
    const std::vector<storage::ColumnSpec> specs = {
        {"id", storage::ColumnKind::kInt64},
        {"e", storage::ColumnKind::kInt64},     // width edges
        {"m", storage::ColumnKind::kDecimal},   // negative mantissas
        {"d", storage::ColumnKind::kDate},
        {"s", storage::ColumnKind::kString},    // 1- and 2-byte codes
        {"r", storage::ColumnKind::kInt32},     // runs: RLE at 1 byte
        {"a", storage::ColumnKind::kInt32},     // always 1 byte
        {"b", storage::ColumnKind::kInt32},     // 1 or 4 bytes by chunk
        {"q", storage::ColumnKind::kInt8}};
    std::vector<storage::ColumnData> data(specs.size());
    Rng rng(2026);
    for (size_t c = 0; c < kNumChunks; ++c) {
      const Edge& edge = kEdges[c];
      for (size_t r = 0; r < kChunkRows; ++r) {
        const size_t row = c * kChunkRows + r;
        data[0].ints.push_back(static_cast<int64_t>(row));
        data[1].ints.push_back(EdgeValue(edge, r, rng));
        // Mantissas at scale 2 within the edge, clamped to where a
        // double keeps cents exact.
        const int64_t mantissa =
            std::max<int64_t>(-(int64_t{1} << 40),
                              std::min<int64_t>(EdgeValue(edge, r, rng),
                                                int64_t{1} << 40));
        data[2].decimals.push_back(static_cast<double>(mantissa) / 100.0);
        data[3].ints.push_back(c == 3 ? 40000 + static_cast<int64_t>(r)
                                      : 8035 + static_cast<int64_t>(row % 2500));
        const size_t code = c == 0 ? r % 100 : (r * 37 + c) % 300;
        data[4].strings.push_back("s" + std::to_string(code));
        data[5].ints.push_back(static_cast<int64_t>((row / 64) % 5) - 2);
        data[6].ints.push_back(static_cast<int64_t>(rng.Next() % 101));
        data[7].ints.push_back(c % 2 == 0
                                   ? static_cast<int64_t>(rng.Next() % 101)
                                   : static_cast<int64_t>(rng.Next() % 100000));
        data[8].ints.push_back(1 + static_cast<int64_t>(rng.Next() % 50));
      }
    }
    storage::LoadOptions opts;
    opts.rows_per_chunk = kChunkRows;
    opts.num_partitions = 3;
    RAPID_CHECK_OK(host_->CreateTable("nw", specs, data, opts));
    for (const int cores : kCoreCounts) {
      dpu::DpuConfig config;
      config.num_cores = cores;
      engines_.push_back(new core::RapidEngine(config));
      RAPID_CHECK_OK(host_->LoadToRapid("nw", engines_.back()));
    }
  }

  static void TearDownTestSuite() {
    for (core::RapidEngine* engine : engines_) delete engine;
    engines_.clear();
    delete host_;
    host_ = nullptr;
  }

  static const storage::Table& Rapid() { return *engines_[0]->GetTable("nw"); }

  // `plan` on every engine, SIMD tier, encoded-scan mode and fusion
  // setting, each against one Volcano run.
  static void ExpectMatchesVolcano(const LogicalPtr& plan,
                                   const std::string& what) {
    auto want = hostdb::VolcanoExecutor::Execute(plan, host_->catalog());
    ASSERT_TRUE(want.ok()) << what << ": " << want.status().ToString();
    const auto want_rows = SortedRows(want.value());
    for (int l = 0; l <= static_cast<int>(SimdLevelSupported()); ++l) {
      for (const auto encoded :
           {EncodedScanMode::kOff, EncodedScanMode::kAuto}) {
        ScopedConfig config(&Config::simd, static_cast<SimdLevel>(l));
        config.Set(&Config::encoded_scan, encoded);
        for (size_t e = 0; e < engines_.size(); ++e) {
          for (const bool fusion : {true, false}) {
            const std::string where =
                what + " level " + std::to_string(l) + " encoded " +
                std::to_string(static_cast<int>(encoded)) + " cores " +
                std::to_string(kCoreCounts[e]) +
                (fusion ? " fused" : " unfused");
            ExecOptions options;
            options.planner.enable_fusion = fusion;
            auto got = engines_[e]->Execute(plan, options);
            ASSERT_TRUE(got.ok()) << where << ": " << got.status().ToString();
            ASSERT_EQ(SortedRows(got.value().rows), want_rows) << where;
          }
        }
      }
    }
  }

  static hostdb::HostDatabase* host_;
  static std::vector<core::RapidEngine*> engines_;
};

hostdb::HostDatabase* NarrowWidthTest::host_ = nullptr;
std::vector<core::RapidEngine*> NarrowWidthTest::engines_;

// The loader stores each chunk at its edge's width, a dictionary code
// at 1 byte until a chunk's codes pass 127, dates at 2 bytes below
// 32768 days, and the run column RLE-topped at 1 byte.
TEST_F(NarrowWidthTest, LoaderPicksEachVectorsWidth) {
  const storage::Table& t = Rapid();
  ASSERT_EQ(t.num_rows(), kNumChunks * kChunkRows);
  for (size_t ci = 0; ci < kNumChunks; ++ci) {
    const storage::Chunk& chunk =
        t.partition(ci % t.num_partitions()).chunk(ci / t.num_partitions());
    EXPECT_EQ(chunk.column(1).width(), kEdges[ci].width) << "chunk " << ci;
    EXPECT_EQ(chunk.column(1).type(), storage::DataType::kInt64);
    EXPECT_EQ(chunk.column(3).width(), ci == 3 ? 4u : 2u) << "chunk " << ci;
    EXPECT_EQ(chunk.column(4).width(), ci == 0 ? 1u : 2u) << "chunk " << ci;
    EXPECT_EQ(chunk.column(5).width(), 1u);
    ASSERT_NE(chunk.encoding(5), nullptr) << "chunk " << ci;
    EXPECT_EQ(chunk.encoding(5)->width, 1u);
    EXPECT_EQ(chunk.column(6).width(), 1u);
    EXPECT_EQ(chunk.column(7).width(), ci % 2 == 0 ? 1u : 4u);
    EXPECT_EQ(chunk.column(8).width(), 1u);
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      ASSERT_GE(chunk.column(1).GetInt(r), kEdges[ci].lo);
      ASSERT_LE(chunk.column(1).GetInt(r), kEdges[ci].hi);
    }
  }
  // A dictionary code at its declared width keeps uint32.
  storage::Vector wide(storage::DataType::kDictCode, 2);
  wide.Append(0xFFFFFFFFLL);
  EXPECT_EQ(wide.GetInt(0), 0xFFFFFFFFLL);
}

// SetInt never truncates: a value wider than the vector widens it.
TEST_F(NarrowWidthTest, SetIntWidensInsteadOfTruncating) {
  storage::Vector v(storage::DataType::kInt64, 8, 1);
  v.Append(-128);
  v.Append(127);
  v.Append(-32769);
  EXPECT_EQ(v.width(), 4u);
  v.Append(kI32Max + 1);
  EXPECT_EQ(v.width(), 8u);
  EXPECT_EQ(v.GetInt(0), -128);
  EXPECT_EQ(v.GetInt(1), 127);
  EXPECT_EQ(v.GetInt(2), -32769);
  EXPECT_EQ(v.GetInt(3), kI32Max + 1);
  storage::Vector dict(storage::DataType::kDictCode, 4, 1);
  dict.Append(5);
  dict.Append(0x80000000LL);
  EXPECT_EQ(dict.width(), 4u);
  EXPECT_EQ(dict.GetInt(1), 0x80000000LL);
}

// A row change whose value its column's declared type cannot hold (q
// is declared int8) is rejected before any cell is written.
TEST_F(NarrowWidthTest, OutOfRangeRowChangeIsRejected) {
  const storage::Table& host = *host_->GetTable("nw");
  const size_t q = host.schema().IndexOf("q").value();
  std::vector<int64_t> image;
  for (size_t c = 0; c < host.schema().num_fields(); ++c) {
    image.push_back(host.partition(0).chunk(0).column(c).GetInt(3));
  }
  const std::vector<int64_t> before = image;
  image[q] = 1000;
  image[1] = before[1] + 1;  // a valid change to `e` in the same batch
  const Status st = host_->Update("nw", {storage::RowChange{3, image}});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_EQ(host.partition(0).chunk(0).column(q).GetInt(3), before[q]);
  EXPECT_EQ(host.partition(0).chunk(0).column(1).GetInt(3), before[1]);
}

// Every CmpOp against constants inside, at and beyond every width, on
// the edge column, the decimal mantissas, dates, the run column and
// the declared-int8 column, as scan predicates.
TEST_F(NarrowWidthTest, ConstantPredicatesMatchVolcano) {
  for (const char* col : {"e", "m", "d", "r", "q"}) {
    for (const CmpOp op : kOps) {
      for (const int64_t c : {int64_t{127}, int64_t{128}, int64_t{-32769},
                              kI32Max + 1, int64_t{1} << 40,
                              -(int64_t{1} << 40)}) {
        ExpectMatchesVolcano(
            LogicalNode::Scan("nw", {"id"},
                              {Predicate::CmpConst(col, op, c, 0.5)}),
            std::string(col) + " op " +
                std::to_string(static_cast<int>(op)) + " " +
                std::to_string(c));
        if (HasFailure()) return;
      }
    }
  }
}

// The whole constant sweep at once, as filtered COUNTs over one scan
// (aggregate FILTERs read the rows widened to int64), plus BETWEEN with
// bounds in and out of every width's range, dictionary codes included.
TEST_F(NarrowWidthTest, ConstantSweepAsFilteredCountsMatchesVolcano) {
  for (const char* col : {"e", "m", "d", "s", "r", "q"}) {
    std::vector<AggSpec> aggs;
    for (const CmpOp op : kOps) {
      for (const int64_t c : SweepConstants()) {
        aggs.push_back({"n" + std::to_string(aggs.size()), AggFunc::kCount,
                        nullptr,
                        std::make_shared<Predicate>(
                            Predicate::CmpConst(col, op, c))});
      }
    }
    for (const auto& [lo, hi] : std::vector<std::pair<int64_t, int64_t>>{
             {-128, 127},
             {-129, 128},
             {-(int64_t{1} << 40), int64_t{1} << 40},
             {kI32Max + 1, int64_t{1} << 40},
             {-(int64_t{1} << 40), kI32Min - 1},
             {100, 50},
             {8035, 9000},
             {-32768, 32767}}) {
      aggs.push_back({"n" + std::to_string(aggs.size()), AggFunc::kCount,
                      nullptr,
                      std::make_shared<Predicate>(
                          Predicate::Between(col, lo, hi))});
    }
    ExpectMatchesVolcano(
        LogicalNode::GroupBy(LogicalNode::Scan("nw", {col}), {}, aggs),
        std::string("sweep ") + col);
    if (HasFailure()) return;
  }
}

// BETWEEN as a scan predicate, bounds clipped to each width's range.
TEST_F(NarrowWidthTest, BetweenPredicatesMatchVolcano) {
  for (const auto& [lo, hi] : std::vector<std::pair<int64_t, int64_t>>{
           {-128, 128},
           {-32769, 32768},
           {kI32Min, kI32Max + 1},
           {kI32Max + 1, int64_t{1} << 40},
           {-(int64_t{1} << 40), -129}}) {
    for (const char* col : {"e", "m"}) {
      ExpectMatchesVolcano(
          LogicalNode::Scan("nw", {"id", col},
                            {Predicate::Between(col, lo, hi, 0.5)}),
          std::string(col) + " between " + std::to_string(lo) + " " +
              std::to_string(hi));
    }
  }
}

// a (always 1 byte) against b (1 or 4 bytes by chunk), and e (1 to 8
// bytes) against id (2 bytes): every CmpOp.
TEST_F(NarrowWidthTest, ColumnCompareAcrossWidthsMatchesVolcano) {
  for (const CmpOp op : kOps) {
    ExpectMatchesVolcano(
        LogicalNode::Scan("nw", {"id", "a", "b"},
                          {Predicate::CmpCol("a", op, "b", 0.5)}),
        "a op b " + std::to_string(static_cast<int>(op)));
    ExpectMatchesVolcano(
        LogicalNode::Scan("nw", {"id"}, {Predicate::CmpCol("e", op, "id", 0.5)}),
        "e op id " + std::to_string(static_cast<int>(op)));
  }
}

// Dictionary codes at 1 and 2 bytes: IN-set membership and a group-by
// over them, with SUM/MIN/MAX over edge values, negative mantissas and
// dates, and arithmetic across widths.
TEST_F(NarrowWidthTest, DictionaryCodesAndAggregatesMatchVolcano) {
  const storage::Dictionary* dict = Rapid().dictionary(4);
  BitVector codes(dict->size());
  for (const char* s : {"s0", "s5", "s150", "s299"}) {
    codes.Set(dict->Lookup(s).value());
  }
  ExpectMatchesVolcano(
      LogicalNode::Scan("nw", {"id", "s"}, {Predicate::InSet("s", codes, 0.1)}),
      "in-set");
  ExpectMatchesVolcano(
      LogicalNode::GroupBy(
          LogicalNode::Scan("nw", {"s", "e", "m", "d", "q", "b"},
                            {Predicate::CmpConst("q", CmpOp::kLt, 1000)}),
          {{"s", Expr::Col("s")}},
          {{"se", AggFunc::kSum, Expr::Col("e"), {}},
           {"mn", AggFunc::kMin, Expr::Col("m"), {}},
           {"mx", AggFunc::kMax, Expr::Col("d"), {}},
           {"mq", AggFunc::kSum, Expr::Mul(Expr::Col("m"), Expr::Col("q")), {}},
           {"eb", AggFunc::kSum, Expr::Add(Expr::Col("e"), Expr::Col("b")), {}},
           {"n", AggFunc::kCount, nullptr, {}}}),
      "group by dictionary code");
}

// A join whose probe keys are the narrow edge values: join filters (a
// Bloom probe on the scan tile) off and on.
TEST_F(NarrowWidthTest, JoinOnNarrowKeysMatchesVolcano) {
  const LogicalPtr plan = LogicalNode::Join(
      LogicalNode::Scan("nw", {"id", "a"},
                        {Predicate::CmpConst("id", CmpOp::kLt, 300)}),
      LogicalNode::Scan("nw", {"e", "q"}), {"a"}, {"e"}, {"id", "e", "q"});
  for (const auto filter : {JoinFilterMode::kOff, JoinFilterMode::kAuto}) {
    ScopedConfig config(&Config::join_filter, filter);
    ExpectMatchesVolcano(plan, "join filter " +
                                   std::to_string(static_cast<int>(filter)));
  }
}

// ---- TPC-H: LOAD and the write path -----------------------------------------

class NarrowWidthTpchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(tpch::LoadTpch(0.01, &host_, &engine_, /*seed=*/11,
                             /*rows_per_chunk=*/1024));
  }

  // Stored and declared bytes of every vector of `table`.
  static std::pair<size_t, size_t> Bytes(const storage::Table& table) {
    size_t stored = 0;
    size_t declared = 0;
    for (size_t p = 0; p < table.num_partitions(); ++p) {
      for (size_t ch = 0; ch < table.partition(p).num_chunks(); ++ch) {
        const storage::Chunk& chunk = table.partition(p).chunk(ch);
        for (size_t c = 0; c < chunk.num_columns(); ++c) {
          stored += chunk.column(c).byte_size();
          declared += storage::WidthOf(chunk.column(c).type()) *
                      chunk.column(c).size();
        }
      }
    }
    return {stored, declared};
  }

  hostdb::HostDatabase host_;
  core::RapidEngine engine_{dpu::DpuConfig{}};
};

TEST_F(NarrowWidthTpchTest, LoadStoresLineitemBelowDeclaredBytes) {
  for (const storage::Table* t :
       {engine_.GetTable("lineitem"), host_.GetTable("lineitem")}) {
    ASSERT_NE(t, nullptr);
    const auto [stored, declared] = Bytes(*t);
    EXPECT_LT(stored, declared);
    EXPECT_LT(3 * stored, declared * 2) << stored << " of " << declared;
  }
  const storage::Table& t = *engine_.GetTable("lineitem");
  const size_t qty = t.schema().IndexOf("l_quantity").value();
  const size_t ship = t.schema().IndexOf("l_shipdate").value();
  EXPECT_LE(t.partition(0).chunk(0).column(qty).width(), 2u);
  EXPECT_EQ(t.partition(0).chunk(0).column(ship).width(), 2u);
}

// A refresh batch writes values that do not fit one chunk's narrow
// vectors (a quantity, price, discount, date and code past their
// widths): that chunk widens, the others keep their widths, and Q6 and
// Q14 still match Volcano on every tier and core count.
TEST_F(NarrowWidthTpchTest, WideningWriteThenQ6AndQ14MatchVolcano) {
  const storage::Table& before = *engine_.GetTable("lineitem");
  const storage::Schema& schema = before.schema();
  const size_t rows_per_chunk = before.rows_per_chunk();
  std::vector<size_t> widths_before;
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    widths_before.push_back(before.partition(0).chunk(0).column(c).width());
  }
  // Rows 10..19 of chunk 0 take the images of rows far away, with
  // widened quantity, price, discount and ship date.
  const std::vector<std::string> widened = {"l_quantity", "l_extendedprice",
                                            "l_discount", "l_shipdate"};
  std::vector<storage::RowChange> changes;
  for (uint64_t row = 10; row < 20; ++row) {
    storage::RowChange change;
    change.row_id = row;
    const uint64_t source = 5 * rows_per_chunk + row;
    const storage::Chunk& src = before.partition(source / rows_per_chunk %
                                                 before.num_partitions())
                                    .chunk(source / rows_per_chunk /
                                           before.num_partitions());
    for (size_t c = 0; c < schema.num_fields(); ++c) {
      change.values.push_back(src.column(c).GetInt(source % rows_per_chunk));
    }
    change.values[schema.IndexOf("l_quantity").value()] = 4000000;
    change.values[schema.IndexOf("l_extendedprice").value()] =
        int64_t{3} << 33;
    change.values[schema.IndexOf("l_discount").value()] = 6 + 40000;
    change.values[schema.IndexOf("l_shipdate").value()] = 8800 + 40000;
    if (row % 2 == 0) {
      // Keep a few inside Q6's and Q14's windows.
      change.values[schema.IndexOf("l_discount").value()] = 6;
      change.values[schema.IndexOf("l_shipdate").value()] = 9200;
    }
    changes.push_back(std::move(change));
  }
  ASSERT_OK(host_.Update("lineitem", changes));
  ASSERT_OK(host_.Checkpoint(&engine_));

  const storage::Table& after = *engine_.GetTable("lineitem");
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    const bool widens =
        std::find(widened.begin(), widened.end(), schema.field(c).name) !=
        widened.end();
    if (widens) {
      EXPECT_GT(after.partition(0).chunk(0).column(c).width(),
                widths_before[c])
          << schema.field(c).name;
    }
    // Chunk 1 (partition 1 or the next chunk of partition 0) is
    // untouched.
    const storage::Chunk& other = after.num_partitions() > 1
                                      ? after.partition(1).chunk(0)
                                      : after.partition(0).chunk(1);
    EXPECT_LE(other.column(c).width(), storage::WidthOf(schema.field(c).type));
  }

  // The 32-core engine took the batch through Checkpoint; 1- and
  // 4-core engines LOAD the host copy, whose vectors widened alike.
  std::vector<std::unique_ptr<core::RapidEngine>> loaded;
  for (const int cores : {1, 4}) {
    dpu::DpuConfig config;
    config.num_cores = cores;
    loaded.push_back(std::make_unique<core::RapidEngine>(config));
    for (const auto& [name, table] : host_.catalog()) {
      ASSERT_OK(host_.LoadToRapid(name, loaded.back().get()));
    }
  }
  const std::vector<core::RapidEngine*> engines = {
      loaded[0].get(), loaded[1].get(), &engine_};
  for (const char* name : {"Q6", "Q14"}) {
    const tpch::TpchQuery query = tpch::BuildQuery(name).value();
    ASSERT_OK_AND_ASSIGN(tpch::QueryRun want, tpch::RunOnHost(host_, query));
    for (int l = 0; l <= static_cast<int>(SimdLevelSupported()); ++l) {
      for (const auto encoded :
           {EncodedScanMode::kOff, EncodedScanMode::kAuto}) {
        ScopedConfig config(&Config::simd, static_cast<SimdLevel>(l));
        config.Set(&Config::encoded_scan, encoded);
        for (core::RapidEngine* engine : engines) {
          for (const bool fusion : {true, false}) {
            ExecOptions options;
            options.planner.enable_fusion = fusion;
            ASSERT_OK_AND_ASSIGN(tpch::QueryRun got,
                                 tpch::RunOnRapid(*engine, query, options));
            EXPECT_EQ(SortedRows(got.result), SortedRows(want.result))
                << name << " level " << l << " encoded "
                << static_cast<int>(encoded) << " cores "
                << engine->dpu().config().num_cores
                << (fusion ? " fused" : "");
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace rapid
