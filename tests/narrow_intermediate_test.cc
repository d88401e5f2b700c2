// Narrow intermediates: every intermediate column carries a proven
// physical width (ColumnMeta::width), and partitions, stores, group-by
// loads and join key loads move that width. These tests pin, against
// the Volcano oracle on every SIMD tier, at 1, 4 and 32 cores, fused
// and unfused:
//   * meta widths: a bare projection keeps its source's width, an
//     expression or aggregate is 8 bytes, and join outputs, partition
//     outputs and group-by keys keep their inputs' widths;
//   * a decimal whose vectors carry different DSB scales, whose width
//     grows by the rescale;
//   * a refresh batch that widens one vector, after which the next
//     query's intermediates widen with it;
//   * a hand-forged too-narrow meta, which fails the accessor's load
//     instead of truncating;
//   * a partition sink's and a pipeline store's DMS charges, at the
//     meta widths.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/config.h"
#include "common/simd.h"
#include "core/engine.h"
#include "core/ops/partition_exec.h"
#include "core/ops/partition_sink.h"
#include "core/ops/sink_op.h"
#include "core/qef/relation_accessor.h"
#include "dpu/dpu.h"
#include "hostdb/database.h"
#include "hostdb/volcano.h"
#include "storage/loader.h"
#include "tests/test_util.h"

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
using primitives::CmpOp;
using rapid::testing::SortedRows;

constexpr int kCoreCounts[] = {1, 4, 32};
constexpr size_t kChunkRows = 256;
constexpr size_t kChunks = 6;

// Table "ni" (1536 rows in 256-row chunks) and dimension "nd":
//   id   int64    0..1535          2 bytes
//   k    int32    id % 50          1 byte
//   m    decimal  cents below 30.00 (scale 2)  2 bytes
//   s    string   20 codes         1 byte
//   big  int64    up to 2^40       8 bytes
//   nd.k int32 0..49 (1 byte), nd.w int32 3k (2 bytes).
std::vector<storage::ColumnSpec> NiSpecs() {
  return {{"id", storage::ColumnKind::kInt64},
          {"k", storage::ColumnKind::kInt32},
          {"m", storage::ColumnKind::kDecimal},
          {"s", storage::ColumnKind::kString},
          {"big", storage::ColumnKind::kInt64}};
}

std::vector<storage::ColumnData> NiData() {
  std::vector<storage::ColumnData> data(5);
  for (size_t row = 0; row < kChunks * kChunkRows; ++row) {
    const auto r = static_cast<int64_t>(row);
    data[0].ints.push_back(r);
    data[1].ints.push_back(r % 50);
    data[2].decimals.push_back(static_cast<double>(r % 3000) / 100.0);
    data[3].strings.push_back("s" + std::to_string(row % 20));
    data[4].ints.push_back((int64_t{1} << 40) - r * 7919);
  }
  return data;
}

Status CreateTables(hostdb::HostDatabase* host) {
  storage::LoadOptions opts;
  opts.rows_per_chunk = kChunkRows;
  opts.num_partitions = 2;
  RAPID_RETURN_NOT_OK(host->CreateTable("ni", NiSpecs(), NiData(), opts));
  std::vector<storage::ColumnData> dim(2);
  for (int64_t k = 0; k < 50; ++k) {
    dim[0].ints.push_back(k);
    dim[1].ints.push_back(3 * k);
  }
  return host->CreateTable("nd",
                           {{"k", storage::ColumnKind::kInt32},
                            {"w", storage::ColumnKind::kInt32}},
                           dim, opts);
}

// One engine per core count, each loaded from `host`.
std::vector<std::unique_ptr<core::RapidEngine>> LoadEngines(
    hostdb::HostDatabase* host) {
  std::vector<std::unique_ptr<core::RapidEngine>> engines;
  for (const int cores : kCoreCounts) {
    dpu::DpuConfig config;
    config.num_cores = cores;
    engines.push_back(std::make_unique<core::RapidEngine>(config));
    for (const char* table : {"ni", "nd"}) {
      RAPID_CHECK_OK(host->LoadToRapid(table, engines.back().get()));
    }
  }
  return engines;
}

// Runs `plan` with `base` options on every engine, SIMD tier and
// fusion setting: each run matches one Volcano run, and its result
// columns carry `widths`.
void ExpectWidthsAndRows(
    const core::Catalog& catalog,
    const std::vector<std::unique_ptr<core::RapidEngine>>& engines,
    const LogicalPtr& plan, const std::vector<size_t>& widths,
    const std::string& what, const ExecOptions& base = {}) {
  auto want = hostdb::VolcanoExecutor::Execute(plan, catalog);
  ASSERT_TRUE(want.ok()) << what << ": " << want.status().ToString();
  const auto want_rows = SortedRows(want.value());
  for (int l = 0; l <= static_cast<int>(SimdLevelSupported()); ++l) {
    ScopedConfig config(&Config::simd, static_cast<SimdLevel>(l));
    for (size_t e = 0; e < engines.size(); ++e) {
      for (const bool fusion : {true, false}) {
        const std::string where =
            what + " level " + std::to_string(l) + " cores " +
            std::to_string(kCoreCounts[e]) + (fusion ? " fused" : " unfused");
        ExecOptions options = base;
        options.planner.enable_fusion = fusion;
        auto got = engines[e]->Execute(plan, options);
        ASSERT_TRUE(got.ok()) << where << ": " << got.status().ToString();
        const ColumnSet& rows = got.value().rows;
        ASSERT_EQ(SortedRows(rows), want_rows) << where;
        ASSERT_EQ(rows.num_columns(), widths.size()) << where;
        for (size_t c = 0; c < widths.size(); ++c) {
          EXPECT_EQ(rows.meta(c).width, widths[c])
              << where << " column " << rows.meta(c).name;
        }
      }
    }
  }
}

AggSpec Agg(std::string name, AggFunc func, core::ExprPtr expr) {
  AggSpec a;
  a.name = std::move(name);
  a.func = func;
  a.expr = std::move(expr);
  return a;
}

class NarrowIntermediateTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    host_ = new hostdb::HostDatabase();
    RAPID_CHECK_OK(CreateTables(host_));
    engines_ = new std::vector<std::unique_ptr<core::RapidEngine>>(
        LoadEngines(host_));
  }

  static void TearDownTestSuite() {
    delete engines_;
    engines_ = nullptr;
    delete host_;
    host_ = nullptr;
  }

  static void Expect(const LogicalPtr& plan, const std::vector<size_t>& widths,
                     const std::string& what, const ExecOptions& base = {}) {
    ExpectWidthsAndRows(host_->catalog(), *engines_, plan, widths, what,
                        base);
  }

  static hostdb::HostDatabase* host_;
  static std::vector<std::unique_ptr<core::RapidEngine>>* engines_;
};

hostdb::HostDatabase* NarrowIntermediateTest::host_ = nullptr;
std::vector<std::unique_ptr<core::RapidEngine>>*
    NarrowIntermediateTest::engines_ = nullptr;

// A bare column keeps the width its vectors prove; an expression is 8
// bytes wide.
TEST_F(NarrowIntermediateTest, ProjectionsKeepSourceWidthsExpressionsAre8) {
  Expect(LogicalNode::Scan("ni", {"id", "k", "s", "big"},
                           {Predicate::CmpConst("k", CmpOp::kLt, 20)}),
         {2, 1, 1, 8}, "bare scan");
  Expect(LogicalNode::Project(
             LogicalNode::Scan("ni", {"id", "k"}),
             {{"k2", Expr::Col("k")},
              {"kp", Expr::Add(Expr::Col("k"), Expr::Int(1))},
              {"id", Expr::Col("id")}}),
         {1, 8, 2}, "projection");
}

// Aggregates are 8 bytes wide; group-by keys keep their inputs'
// widths, on the low-NDV path (50 groups) and on the partitioned
// high-NDV path (1536 groups, forced below the planner's threshold),
// which loads each partition through the accessor at those widths.
TEST_F(NarrowIntermediateTest, GroupByKeysKeepWidthsAggregatesAre8) {
  ExecOptions high_ndv;
  high_ndv.planner.low_ndv_threshold = 100;
  Expect(LogicalNode::GroupBy(
             LogicalNode::Scan("ni", {"k", "big"}), {{"k", Expr::Col("k")}},
             {Agg("sum_big", AggFunc::kSum, Expr::Col("big")),
              Agg("n", AggFunc::kCount, nullptr)}),
         {1, 8, 8}, "low-ndv group-by");
  Expect(LogicalNode::GroupBy(
             LogicalNode::Scan("ni", {"id", "k", "s"}),
             {{"id", Expr::Col("id")}, {"s", Expr::Col("s")}},
             {Agg("max_k", AggFunc::kMax, Expr::Col("k"))}),
         {2, 1, 8}, "high-ndv group-by", high_ndv);
}

// A join's outputs keep their sides' widths, broadcast or partitioned;
// a left-outer join's build columns are 8 bytes wide (kJoinNull).
TEST_F(NarrowIntermediateTest, JoinOutputsKeepInputWidths) {
  Expect(LogicalNode::Join(LogicalNode::Scan("nd", {"k", "w"}),
                           LogicalNode::Scan("ni", {"id", "k"}), {"k"}, {"k"},
                           {"id", "k", "w"}),
         {2, 1, 2}, "dimension join");
  Expect(LogicalNode::Join(
             LogicalNode::Scan("ni", {"id", "s"},
                               {Predicate::CmpConst("id", CmpOp::kLt, 700)}),
             LogicalNode::Scan("ni", {"id", "big", "k"}), {"id"}, {"id"},
             {"id", "s", "big", "k"}),
         {2, 1, 8, 1}, "self join");
  Expect(LogicalNode::Join(
             LogicalNode::Scan("nd", {"k", "w"},
                               {Predicate::CmpConst("k", CmpOp::kLt, 10)}),
             LogicalNode::Scan("ni", {"id", "k"}), {"k"}, {"k"},
             {"id", "w"}, core::JoinType::kLeftOuter),
         {2, 8}, "left-outer join");
}

// Partitioning passes the metas through, and a UNION is as wide as its
// wider side.
TEST_F(NarrowIntermediateTest, PartitionOutputsAndUnionKeepWidths) {
  dpu::Dpu dpu(dpu::DpuConfig::Default(), dpu::CostParams::Default());
  std::vector<int64_t> b(1000);
  for (size_t i = 0; i < b.size(); ++i) b[i] = static_cast<int64_t>(i);
  ASSERT_OK_AND_ASSIGN(
      ColumnSet input,
      rapid::testing::FillColumnSet(
          rapid::testing::Int64Metas({"a", "b"}, {1, 2}),
          {std::vector<int64_t>(1000, 7), b}));
  core::PartitionScheme scheme;
  scheme.rounds = {core::PartitionRound{32, 32}, core::PartitionRound{4, 1}};
  ASSERT_OK_AND_ASSIGN(
      core::PartitionedData parts,
      core::PartitionExec::Execute(dpu, input, {1}, scheme, 128));
  ASSERT_EQ(parts.partitions.size(), 128u);
  for (const ColumnSet& p : parts.partitions) {
    EXPECT_EQ(p.meta(0).width, 1u);
    EXPECT_EQ(p.meta(1).width, 2u);
  }
  Expect(LogicalNode::SetOp(core::SetOpKind::kUnion,
                            LogicalNode::Scan("nd", {"k"}),
                            LogicalNode::Scan("ni", {"k"})),
         {1}, "union of 1-byte sides");
  Expect(LogicalNode::SetOp(
             core::SetOpKind::kUnion,
             LogicalNode::Project(LogicalNode::Scan("ni", {"k"}),
                                  {{"v", Expr::Col("k")}}),
             LogicalNode::Project(LogicalNode::Scan("nd", {"w"}),
                                  {{"v", Expr::Col("w")}})),
         {2}, "union of 1- and 2-byte sides");
}

// Table "nm": LOAD gives every vector of a decimal column the
// column's scale, so the mixed case is built by hand: m holds whole
// numbers below 120 at scale 0 in chunks 0 and 2 and cents below 1.00
// at scale 2 in chunks 1 and 3, every vector 1 byte wide. The column's
// scale is 2, so the accessor rescales the whole numbers 100x (up to
// 11900): the proof gives their vectors 2 bytes (128 * 100 fits int16),
// where the vectors' own widths say 1.
storage::Table MixedScaleTable() {
  const storage::Schema schema({{"id", storage::DataType::kInt64},
                                {"k", storage::DataType::kInt32},
                                {"m", storage::DataType::kDecimal}});
  storage::Table table("nm", schema);
  std::vector<storage::Partition> parts(2);
  for (size_t c = 0; c < 4; ++c) {
    storage::Chunk chunk(schema, kChunkRows, {1, 1, 1});
    for (size_t r = 0; r < kChunkRows; ++r) {
      const auto row = static_cast<int64_t>(c * kChunkRows + r);
      chunk.column(0).Append(row);
      chunk.column(1).Append(row % 7);
      chunk.column(2).Append(c % 2 == 0 ? row % 120 : (row * 37) % 100);
    }
    chunk.column(2).set_dsb_scale(c % 2 == 0 ? 0 : 2);
    parts[c % 2].AddChunk(std::move(chunk));
  }
  for (storage::Partition& p : parts) table.AddPartition(std::move(p));
  table.set_rows_per_chunk(kChunkRows);
  table.RecomputeStats();
  table.stats(2).dsb_scale = 2;
  return table;
}

// The decimal keeps scale 2 and its proven width through a bare scan,
// a join, a group-by key and a sum, against Volcano (which rescales
// each vector alike).
TEST(NarrowIntermediateDecimalTest, MixedVectorScalesWidenByTheRescale) {
  core::Catalog catalog;
  catalog.emplace("nm", MixedScaleTable());
  const storage::Table& nm = catalog.at("nm");
  ASSERT_EQ(nm.partition(0).chunk(0).column(2).width(), 1u);
  ASSERT_EQ(nm.partition(1).chunk(0).column(2).width(), 1u);
  std::vector<std::unique_ptr<core::RapidEngine>> engines;
  for (const int cores : kCoreCounts) {
    dpu::DpuConfig config;
    config.num_cores = cores;
    engines.push_back(std::make_unique<core::RapidEngine>(config));
    ASSERT_OK(engines.back()->Load(nm.Clone()));
  }
  ExpectWidthsAndRows(
      catalog, engines,
      LogicalNode::Scan("nm", {"id", "m"},
                        {Predicate::CmpConst("k", CmpOp::kLt, 3)}),
      {2, 2}, "decimal scan");
  ExpectWidthsAndRows(
      catalog, engines,
      LogicalNode::GroupBy(
          LogicalNode::Join(
              LogicalNode::Scan("nm", {"id", "k"},
                                {Predicate::CmpConst("k", CmpOp::kEq, 3)}),
              LogicalNode::Scan("nm", {"id", "m"}), {"id"}, {"id"},
              {"k", "m"}),
          {{"m", Expr::Col("m")}},
          {Agg("n", AggFunc::kCount, nullptr),
           Agg("sum_m", AggFunc::kSum, Expr::Col("m"))}),
      {2, 8, 8}, "decimal group-by over a join");
}

// A refresh batch writes a value past one vector's width. The next
// query's intermediates (the join key, the group-by key) widen with
// the vector; a stale width would fail the accessor's range check.
TEST(NarrowIntermediateRefreshTest, WideningWriteWidensNextQueryIntermediates) {
  hostdb::HostDatabase host;
  ASSERT_OK(CreateTables(&host));
  const auto engines = LoadEngines(&host);
  const LogicalPtr plan = LogicalNode::GroupBy(
      LogicalNode::Join(
          LogicalNode::Scan("ni", {"id", "k"},
                            {Predicate::CmpConst("id", CmpOp::kLt, 900)}),
          LogicalNode::Scan("ni", {"id", "big"}), {"id"}, {"id"},
          {"id", "k", "big"}),
      {{"id", Expr::Col("id")}, {"k", Expr::Col("k")}},
      {Agg("n", AggFunc::kCount, nullptr)});
  ExpectWidthsAndRows(host.catalog(), engines, plan, {2, 1, 8},
                      "before the write");

  // Rows 3 and 300 take k = 100000 and id = 70000 + row; k's and id's
  // vectors in those chunks widen to 4 bytes.
  const storage::Table& t = *host.GetTable("ni");
  std::vector<storage::RowChange> changes;
  for (const uint64_t row : {uint64_t{3}, uint64_t{300}}) {
    storage::RowChange change;
    change.row_id = row;
    const uint64_t chunk = row / kChunkRows;
    const storage::Chunk& src =
        t.partition(chunk % t.num_partitions())
            .chunk(chunk / t.num_partitions());
    for (size_t c = 0; c < t.schema().num_fields(); ++c) {
      change.values.push_back(src.column(c).GetInt(row % kChunkRows));
    }
    change.values[0] = 70000 + static_cast<int64_t>(row);
    change.values[1] = 100000;
    changes.push_back(std::move(change));
  }
  ASSERT_OK(host.Update("ni", changes));
  // The 32-core engine takes the batch through Checkpoint; the others
  // LOAD the host copy, whose vectors widened alike.
  ASSERT_OK(host.Checkpoint(engines.back().get()));
  for (size_t e = 0; e + 1 < engines.size(); ++e) {
    ASSERT_OK(host.LoadToRapid("ni", engines[e].get()));
  }
  const storage::Table& after = *engines.back()->GetTable("ni");
  EXPECT_EQ(after.partition(0).chunk(0).column(1).width(), 4u);
  ExpectWidthsAndRows(host.catalog(), engines, plan, {4, 4, 8},
                      "after the write");
}

// A downstream operator that records every tile it receives.
class RecordingOp : public core::PipelineOp {
 public:
  size_t DmemBytes(size_t) const override { return 0; }
  Status Open(core::ExecCtx&) override { return Status::OK(); }
  Status Consume(core::ExecCtx&, const core::Tile& tile) override {
    for (size_t r = 0; r < tile.rows; ++r) {
      values.push_back(tile.columns[0].GetInt(r));
    }
    widths.push_back(tile.columns[0].width);
    return Status::OK();
  }
  Status Finish(core::ExecCtx&) override { return Status::OK(); }

  std::vector<int64_t> values;
  std::vector<size_t> widths;
};

// An intermediate column is stored at its meta's width, and the
// accessor loads it into its DMEM tile at that width and charges those
// bytes. A meta too narrow for a value fails with Internal when the
// value enters the set, before any tile of it reaches an operator;
// nothing is truncated.
TEST(NarrowIntermediateAccessorTest, ForgedNarrowMetaFailsInsteadOfTruncating) {
  dpu::Dpu dpu(dpu::DpuConfig::Default(), dpu::CostParams::Default());
  core::ExecCtx ctx{&dpu.core(0), &dpu.dms(), &dpu.params(), true};
  const std::vector<int64_t> values = {5, -128, 127, 300, -32768, 32767};
  for (const size_t width : {1u, 2u, 4u, 8u}) {
    Result<ColumnSet> filled = rapid::testing::FillColumnSet(
        rapid::testing::Int64Metas({"x"}, {width}), {values});
    if (width == 1) {
      const Status& st = filled.status();
      EXPECT_EQ(st.code(), StatusCode::kInternal) << st.ToString();
      EXPECT_NE(st.ToString().find("300"), std::string::npos) << st.ToString();
      EXPECT_NE(st.ToString().find("'x'"), std::string::npos) << st.ToString();
      continue;
    }
    ASSERT_OK(filled.status());
    const ColumnSet& set = filled.value();
    RecordingOp op;
    dpu.core(0).dmem().Reset();
    const double dms_before = dpu.core(0).cycles().dms_cycles();
    const Status st = core::RelationAccessor::PushColumnSet(
        ctx, set, {0}, 0, values.size(), 64, &op);
    ASSERT_OK(st);
    EXPECT_EQ(op.values, values) << "width " << width;
    EXPECT_EQ(op.widths, std::vector<size_t>{width});
    EXPECT_DOUBLE_EQ(dpu.core(0).cycles().dms_cycles() - dms_before,
                     dpu::DmsTileTransferCycles(dpu.params(), 1,
                                                values.size(), width, false));
  }
  // At 4 bytes a dictionary code is uint32: its largest code fits.
  std::vector<core::ColumnMeta> code_metas = rapid::testing::Int64Metas({"c"}, {4});
  code_metas[0].type = storage::DataType::kDictCode;
  ASSERT_OK_AND_ASSIGN(
      ColumnSet codes,
      rapid::testing::FillColumnSet(
          code_metas, std::vector<std::vector<int64_t>>{{0xFFFFFFFFLL, 1}}));
  RecordingOp op;
  dpu.core(0).dmem().Reset();
  ASSERT_OK(core::RelationAccessor::PushColumnSet(ctx, codes, {0}, 0, 2, 64,
                                                  &op));
  EXPECT_EQ(op.values, (std::vector<int64_t>{0xFFFFFFFFLL, 1}));
}

// A pipeline's store fills its staging before it ships: with 64-row
// tiles and a widest column of 2 bytes, a staging half holds 256 rows,
// so 300 rows in three tiles cost one full chain and, at the morsel's
// end, one of 44 rows, each at the metas' 3 bytes a row.
TEST(NarrowIntermediateAccessorTest, MaterializeSinkStoresFullStagingHalves) {
  dpu::Dpu dpu(dpu::DpuConfig::Default(), dpu::CostParams::Default());
  core::ExecCtx ctx{&dpu.core(0), &dpu.dms(), &dpu.params(), true};
  std::vector<int64_t> values(100, 3);
  core::Tile tile;
  tile.rows = values.size();
  tile.columns.resize(2);
  for (core::TileColumn& col : tile.columns) {
    col.data = reinterpret_cast<uint8_t*>(values.data());
  }
  ColumnSet out(rapid::testing::Int64Metas({"a", "b"}, {1, 2}));
  core::MaterializeSink sink(&out, 64);
  const dpu::CycleCounter& cycles = dpu.core(0).cycles();
  for (int t = 0; t < 3; ++t) ASSERT_OK(sink.Consume(ctx, tile));
  EXPECT_DOUBLE_EQ(cycles.dms_cycles(),
                   dpu::DmsChainCycles(dpu.params(), 2, 256 * 3, false));
  ASSERT_OK(sink.Finish(ctx));
  EXPECT_DOUBLE_EQ(cycles.dms_cycles(),
                   dpu::DmsChainCycles(dpu.params(), 2, 256 * 3, false) +
                       dpu::DmsChainCycles(dpu.params(), 2, 44 * 3, false));
  EXPECT_EQ(out.num_rows(), 300u);
}

// A partition sink pays each round tile's partition-engine pass over
// the rows at their metas' widths: 1 + 2 + 8 = 11 bytes a row here,
// where the declared widths would charge 24.
TEST(NarrowIntermediateAccessorTest, PartitionSinkChargesMetaWidths) {
  dpu::Dpu dpu(dpu::DpuConfig::Default(), dpu::CostParams::Default());
  core::ExecCtx ctx{&dpu.core(0), &dpu.dms(), &dpu.params(), true};
  constexpr size_t kRows = 200;
  constexpr size_t kRoundTile = 64;
  std::vector<std::vector<int64_t>> cols(3, std::vector<int64_t>(kRows));
  for (size_t i = 0; i < kRows; ++i) {
    cols[0][i] = static_cast<int64_t>(i % 100);
    cols[1][i] = static_cast<int64_t>(i * 100);
    cols[2][i] = static_cast<int64_t>(i) << 40;
  }
  ColumnSet rows(rapid::testing::Int64Metas({"a", "b", "c"}, {1, 2, 8}));
  ASSERT_EQ(rows.RowBytes(), 11u);
  core::Tile tile;
  tile.rows = kRows;
  tile.columns.resize(3);
  for (size_t c = 0; c < 3; ++c) {
    tile.columns[c].data = reinterpret_cast<uint8_t*>(cols[c].data());
  }
  for (const core::PartitionRound round :
       {core::PartitionRound{32, 32}, core::PartitionRound{16, 1}}) {
    ColumnSet out(rows.metas());
    core::PartitionSink sink(round, kRows, kRoundTile);
    ASSERT_OK(sink.BeginMorsel(ctx, &out));
    const double before = dpu.core(0).cycles().dms_cycles();
    ASSERT_OK(sink.Consume(ctx, tile));
    double want = 0;
    for (size_t start = 0; start < kRows; start += kRoundTile) {
      const size_t n = std::min(kRoundTile, kRows - start);
      want += round.hw_fanout > 1
                  ? dpu::HwPartitionCycles(dpu.params(),
                                           dpu::HwPartitionStrategy::kHash, 1,
                                           n, n * 11)
                  : static_cast<double>(n * 11) /
                        dpu.params().partition_bytes_per_cycle;
    }
    EXPECT_DOUBLE_EQ(dpu.core(0).cycles().dms_cycles() - before, want)
        << "hw fan-out " << round.hw_fanout;
    ASSERT_OK(sink.Finish(ctx));
    EXPECT_EQ(out.num_rows(), kRows);
  }
}

}  // namespace
}  // namespace rapid
