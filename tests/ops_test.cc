// Tests for the execution layer: relation accessor, pipeline operators
// (filter/project/sink/group-by), and the bulk executors (partition,
// join with skew resilience, sort, top-k, window, set operations).

#include <algorithm>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "common/config.h"
#include "common/fault.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/ops/filter_op.h"
#include "core/ops/groupby_op.h"
#include "core/ops/join_exec.h"
#include "core/ops/partition_exec.h"
#include "core/ops/project_op.h"
#include "core/ops/setop_exec.h"
#include "core/ops/sink_op.h"
#include "core/ops/sort_exec.h"
#include "core/ops/window_exec.h"
#include "core/qef/relation_accessor.h"
#include "primitives/hash.h"
#include "storage/loader.h"
#include "tests/test_util.h"

namespace rapid::core {
namespace {

using rapid::testing::Bound;
using rapid::testing::CleanPollCount;
using rapid::testing::MakeColumnSet;
using rapid::testing::Rows;
using rapid::testing::SortedRows;

class OpsTest : public ::testing::Test {
 protected:
  OpsTest() : dpu_() {}

  ExecCtx Ctx(int core = 0) {
    return ExecCtx{&dpu_.core(core), &dpu_.dms(), &dpu_.params(), true};
  }

  dpu::Dpu dpu_;
};

// ---- RelationAccessor --------------------------------------------------

// Terminal op that records everything pushed into it.
class CollectOp : public PipelineOp {
 public:
  size_t DmemBytes(size_t) const override { return 0; }
  Status Open(ExecCtx&) override { return Status::OK(); }
  Status Consume(ExecCtx&, const Tile& tile) override {
    tiles_++;
    for (size_t i = 0; i < tile.rows; ++i) {
      std::vector<int64_t> row;
      for (const TileColumn& c : tile.columns) row.push_back(c.GetInt(i));
      rows_.push_back(std::move(row));
    }
    scales_.clear();
    for (const TileColumn& c : tile.columns) scales_.push_back(c.dsb_scale);
    return Status::OK();
  }
  Status Finish(ExecCtx&) override {
    finished_ = true;
    return Status::OK();
  }

  size_t tiles_ = 0;
  bool finished_ = false;
  std::vector<std::vector<int64_t>> rows_;
  std::vector<int> scales_;
};

TEST_F(OpsTest, AccessorPushesChunksInTiles) {
  std::vector<storage::ColumnSpec> specs = {
      {"a", storage::ColumnKind::kInt32}, {"b", storage::ColumnKind::kInt64}};
  std::vector<storage::ColumnData> data(2);
  for (int i = 0; i < 300; ++i) {
    data[0].ints.push_back(i);
    data[1].ints.push_back(i * 10);
  }
  storage::LoadOptions opts;
  opts.rows_per_chunk = 100;
  ASSERT_OK_AND_ASSIGN(storage::Table table,
                       storage::LoadTable("t", specs, data, opts));

  std::vector<const storage::Chunk*> chunks;
  for (size_t c = 0; c < table.partition(0).num_chunks(); ++c) {
    chunks.push_back(&table.partition(0).chunk(c));
  }
  CollectOp collect;
  ExecCtx ctx = Ctx();
  ctx.dmem().Reset();
  ASSERT_OK(RelationAccessor::PushChunks(ctx, chunks, {0, 1}, {0, 0}, 64,
                                         &collect));
  EXPECT_TRUE(collect.finished_);
  // 3 chunks x ceil(100/64)=2 tiles.
  EXPECT_EQ(collect.tiles_, 6u);
  ASSERT_EQ(collect.rows_.size(), 300u);
  EXPECT_EQ(collect.rows_[299], (std::vector<int64_t>{299, 2990}));
  EXPECT_GT(ctx.cycles().dms_cycles(), 0);
}

TEST_F(OpsTest, AccessorRescalesDecimalVectors) {
  // Two chunks whose vectors carry different per-vector scales; the
  // accessor must normalize to the target scale.
  storage::Schema schema({{"d", storage::DataType::kDecimal}});
  storage::Chunk c1(schema, 2);
  c1.column(0).Append(15);  // 1.5 at scale 1
  c1.column(0).Append(25);
  c1.column(0).set_dsb_scale(1);
  storage::Chunk c2(schema, 1);
  c2.column(0).Append(125);  // 1.25 at scale 2
  c2.column(0).set_dsb_scale(2);

  CollectOp collect;
  ExecCtx ctx = Ctx();
  ctx.dmem().Reset();
  ASSERT_OK(RelationAccessor::PushChunks(ctx, {&c1, &c2}, {0}, {2}, 64,
                                         &collect));
  ASSERT_EQ(collect.rows_.size(), 3u);
  EXPECT_EQ(collect.rows_[0][0], 150);  // rescaled to scale 2
  EXPECT_EQ(collect.rows_[2][0], 125);
  EXPECT_EQ(collect.scales_[0], 2);
}

TEST_F(OpsTest, AccessorOverColumnSet) {
  ColumnSet set = MakeColumnSet({"x"}, {{1, 2, 3, 4, 5}});
  CollectOp collect;
  ExecCtx ctx = Ctx();
  ctx.dmem().Reset();
  ASSERT_OK(RelationAccessor::PushColumnSet(ctx, set, {0}, 1, 4, 64,
                                            &collect));
  ASSERT_EQ(collect.rows_.size(), 3u);  // rows [1,4)
  EXPECT_EQ(collect.rows_[0][0], 2);
  EXPECT_EQ(collect.rows_[2][0], 4);
}

// ---- Filter / Project / Sink pipeline -----------------------------------

TEST_F(OpsTest, FilterPipelineLateMaterializes) {
  ColumnSet input = MakeColumnSet(
      {"k", "v"}, {{1, 2, 3, 4, 5, 6}, {10, 20, 30, 40, 50, 60}});

  ColumnSet out(std::vector<ColumnMeta>{ColumnMeta{"v2", {}, 0}});
  FilterOp filter(
      {Bound(Predicate::CmpConst("k", primitives::CmpOp::kGt, 3),
             input.metas())},
      {1}, 64, false);
  ProjectOp project(
      {Bound(Expr::Mul(Expr::Col("v"), Expr::Int(2)), {input.meta(1)})}, 64);
  MaterializeSink sink(&out, 64);
  filter.set_downstream(&project);
  project.set_downstream(&sink);

  ExecCtx ctx = Ctx();
  ctx.dmem().Reset();
  ASSERT_OK(filter.Open(ctx));
  ASSERT_OK(project.Open(ctx));
  ASSERT_OK(RelationAccessor::PushColumnSet(ctx, input, {0, 1}, 0, 6, 64,
                                            &filter));
  EXPECT_EQ(filter.rows_in(), 6u);
  EXPECT_EQ(filter.rows_out(), 3u);
  EXPECT_EQ(out.Values(0), (std::vector<int64_t>{80, 100, 120}));
}

TEST_F(OpsTest, FilterConjunctionRefines) {
  ColumnSet input = MakeColumnSet({"a", "b"}, {{1, 5, 8, 12}, {0, 1, 0, 1}});
  ColumnSet out(std::vector<ColumnMeta>{ColumnMeta{"a", {}, 0}});
  FilterOp filter(
      {Bound(Predicate::CmpConst("a", primitives::CmpOp::kGt, 3),
             input.metas()),
       Bound(Predicate::CmpConst("b", primitives::CmpOp::kEq, 1),
             input.metas())},
      {0}, 64, false);
  MaterializeSink sink(&out, 64);
  filter.set_downstream(&sink);
  ExecCtx ctx = Ctx();
  ctx.dmem().Reset();
  ASSERT_OK(filter.Open(ctx));
  ASSERT_OK(
      RelationAccessor::PushColumnSet(ctx, input, {0, 1}, 0, 4, 64, &filter));
  EXPECT_EQ(out.Values(0), (std::vector<int64_t>{5, 12}));
}

TEST_F(OpsTest, EmptyPredicatesPassEverything) {
  ColumnSet input = MakeColumnSet({"a"}, {{7, 8}});
  ColumnSet out(std::vector<ColumnMeta>{ColumnMeta{"a", {}, 0}});
  FilterOp filter({}, {0}, 64, false);
  MaterializeSink sink(&out, 64);
  filter.set_downstream(&sink);
  ExecCtx ctx = Ctx();
  ctx.dmem().Reset();
  ASSERT_OK(filter.Open(ctx));
  ASSERT_OK(
      RelationAccessor::PushColumnSet(ctx, input, {0}, 0, 2, 64, &filter));
  EXPECT_EQ(out.num_rows(), 2u);
}

TEST_F(OpsTest, DmemBudgetEnforced) {
  // A filter whose DMEM footprint exceeds the scratchpad must fail at
  // Open, not silently overrun.
  std::vector<size_t> many_cols(40, 0);
  FilterOp filter({}, many_cols, 4096, false);
  ExecCtx ctx = Ctx();
  ctx.dmem().Reset();
  const Status st = filter.Open(ctx);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOutOfMemory);
}

// ---- GroupByOp -----------------------------------------------------------

TEST_F(OpsTest, GroupByAggregatesAndMerges) {
  ColumnSet input = MakeColumnSet(
      {"g", "v"}, {{1, 2, 1, 2, 1}, {10, 20, 30, 40, 50}});
  const ExprPtr v = Bound(Expr::Col("v"), input.metas());
  std::vector<AggSpec> aggs;
  aggs.push_back({"sum_v", AggFunc::kSum, v, {}});
  aggs.push_back({"min_v", AggFunc::kMin, v, {}});
  aggs.push_back({"max_v", AggFunc::kMax, v, {}});
  aggs.push_back({"cnt", AggFunc::kCount, nullptr, {}});

  const ExprPtr g = Bound(Expr::Col("g"), input.metas());
  GroupByOp op1({g}, aggs);
  GroupByOp op2({g}, aggs);
  ExecCtx ctx = Ctx();
  ctx.dmem().Reset();
  ASSERT_OK(op1.Open(ctx));
  ASSERT_OK(op2.Open(ctx));
  // Split rows between two "cores".
  ASSERT_OK(RelationAccessor::PushColumnSet(ctx, input, {0, 1}, 0, 3, 64,
                                            &op1));
  ASSERT_OK(RelationAccessor::PushColumnSet(ctx, input, {0, 1}, 3, 5, 64,
                                            &op2));
  // Merge operator folds op2's table into op1's.
  op1.table().MergeFrom(op2.table());

  std::vector<ColumnMeta> metas;
  for (const char* n : {"g", "sum_v", "min_v", "max_v", "cnt"}) {
    metas.push_back(ColumnMeta{n, {}, 0});
  }
  ColumnSet out(metas);
  ASSERT_OK(op1.EmitInto(&out));
  auto rows = SortedRows(out);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<int64_t>{1, 90, 10, 50, 3}));
  EXPECT_EQ(rows[1], (std::vector<int64_t>{2, 60, 20, 40, 2}));
}

TEST_F(OpsTest, BatchedGroupForMatchesPerRowLookup) {
  // Two-key groups over enough rows to grow the table several times:
  // the batched lookup (tile hashed column at a time) must return the
  // per-row lookup's group ids and count the same chain steps.
  Rng rng(17);
  const size_t n = 5000;
  std::vector<std::vector<int64_t>> keys(2, std::vector<int64_t>(n));
  for (size_t i = 0; i < n; ++i) {
    keys[0][i] = static_cast<int64_t>(rng.Next() % 700);
    keys[1][i] = static_cast<int64_t>(rng.Next() % 3) - 1;
  }
  std::vector<uint32_t> hashes(n, 0xFFFFFFFFu);
  for (const auto& col : keys) {
    primitives::HashCombineTile(col.data(), n, hashes.data());
  }
  GroupHashTable per_row(2, {});
  GroupHashTable batched(2, {});
  uint64_t per_row_steps = 0;
  uint64_t batched_steps = 0;
  for (size_t i = 0; i < n; ++i) {
    const int64_t row[] = {keys[0][i], keys[1][i]};
    ASSERT_EQ(per_row.GroupFor(row, &per_row_steps),
              batched.GroupFor(hashes[i], keys, i, &batched_steps))
        << "row " << i;
  }
  EXPECT_EQ(per_row.num_groups(), batched.num_groups());
  EXPECT_EQ(per_row_steps, batched_steps);
}

TEST_F(OpsTest, GroupByWithAggregateFilter) {
  ColumnSet input = MakeColumnSet({"g", "v"}, {{1, 1, 1}, {5, 10, 15}});
  std::vector<AggSpec> aggs;
  aggs.push_back({"big_sum", AggFunc::kSum,
                  Bound(Expr::Col("v"), input.metas()),
                  std::make_shared<Predicate>(
                      Bound(Predicate::CmpConst("v", primitives::CmpOp::kGe, 10),
                            input.metas()))});
  aggs.push_back({"all_cnt", AggFunc::kCount, nullptr, {}});
  GroupByOp op({Bound(Expr::Col("g"), input.metas())}, aggs);
  ExecCtx ctx = Ctx();
  ctx.dmem().Reset();
  ASSERT_OK(op.Open(ctx));
  ASSERT_OK(
      RelationAccessor::PushColumnSet(ctx, input, {0, 1}, 0, 3, 64, &op));
  std::vector<ColumnMeta> metas = {ColumnMeta{"g", {}, 0},
                                   ColumnMeta{"big_sum", {}, 0},
                                   ColumnMeta{"all_cnt", {}, 0}};
  ColumnSet out(metas);
  ASSERT_OK(op.EmitInto(&out));
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.Value(0, 1), 25);  // 10 + 15
  EXPECT_EQ(out.Value(0, 2), 3);
}

TEST_F(OpsTest, ZeroKeyGroupByProducesSingleGroup) {
  ColumnSet input = MakeColumnSet({"v"}, {{1, 2, 3}});
  GroupByOp op({},
               {{"s", AggFunc::kSum, Bound(Expr::Col("v"), input.metas()), {}}});
  ExecCtx ctx = Ctx();
  ctx.dmem().Reset();
  ASSERT_OK(op.Open(ctx));
  ASSERT_OK(RelationAccessor::PushColumnSet(ctx, input, {0}, 0, 3, 64, &op));
  ColumnSet out(std::vector<ColumnMeta>{ColumnMeta{"s", {}, 0}});
  ASSERT_OK(op.EmitInto(&out));
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.Value(0, 0), 6);
}

// ---- PartitionExec ---------------------------------------------------------

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

TEST_F(OpsTest, PartitionPreservesAllRowsAndRoutesByHash) {
  ColumnSet input = RandomKv(5000, 9, 1000);
  PartitionScheme scheme;
  scheme.rounds.push_back(PartitionRound{32, 32});
  ASSERT_OK_AND_ASSIGN(
      PartitionedData parts,
      PartitionExec::Execute(dpu_, input, {0}, scheme, 256));
  ASSERT_EQ(parts.partitions.size(), 32u);
  EXPECT_EQ(parts.bits_used, 5);

  size_t total = 0;
  const std::vector<uint32_t> hashes = PartitionExec::HashColumn(input, {0});
  std::multiset<std::pair<int64_t, int64_t>> seen;
  for (size_t p = 0; p < 32; ++p) {
    const ColumnSet& part = parts.partitions[p];
    total += part.num_rows();
    for (size_t r = 0; r < part.num_rows(); ++r) {
      // Every row must be in the partition its hash selects.
      const uint32_t h = PartitionExec::HashColumn(part, {0})[r];
      EXPECT_EQ(h & 31u, p);
      seen.insert({part.Value(r, 0), part.Value(r, 1)});
    }
  }
  EXPECT_EQ(total, 5000u);
  // Contents are a permutation of the input.
  std::multiset<std::pair<int64_t, int64_t>> expected;
  for (size_t r = 0; r < input.num_rows(); ++r) {
    expected.insert({input.Value(r, 0), input.Value(r, 1)});
  }
  EXPECT_EQ(seen, expected);
}

TEST_F(OpsTest, MultiRoundEqualsSingleRoundContents) {
  ColumnSet input = RandomKv(3000, 13, 500);
  PartitionScheme one;
  one.rounds.push_back(PartitionRound{64, 32});
  PartitionScheme two;
  two.rounds.push_back(PartitionRound{8, 8});
  two.rounds.push_back(PartitionRound{8, 1});
  ASSERT_OK_AND_ASSIGN(PartitionedData a,
                       PartitionExec::Execute(dpu_, input, {0}, one, 128));
  ASSERT_OK_AND_ASSIGN(PartitionedData b,
                       PartitionExec::Execute(dpu_, input, {0}, two, 128));
  ASSERT_EQ(a.partitions.size(), 64u);
  ASSERT_EQ(b.partitions.size(), 64u);
  EXPECT_EQ(a.bits_used, b.bits_used);
  size_t total_b = 0;
  for (const auto& p : b.partitions) total_b += p.num_rows();
  EXPECT_EQ(total_b, 3000u);
  // Round 1 uses bits [0,3), round 2 bits [3,6) -> partition p of `two`
  // holds hash bits (b2 << 3) | b1; the single 64-way round holds
  // bits [0,6) directly. Compare as sets of rows per final hash value.
  for (int h = 0; h < 64; ++h) {
    const int two_index = ((h >> 3) & 7) + (h & 7) * 8;
    EXPECT_EQ(SortedRows(a.partitions[static_cast<size_t>(h)]),
              SortedRows(b.partitions[static_cast<size_t>(two_index)]))
        << h;
  }
}

TEST_F(OpsTest, PartitionRejectsBadSchemes) {
  ColumnSet input = RandomKv(10, 1, 5);
  PartitionScheme non_pow2;
  non_pow2.rounds.push_back(PartitionRound{12, 1});
  EXPECT_FALSE(
      PartitionExec::Execute(dpu_, input, {0}, non_pow2, 64).ok());
  PartitionScheme bad_hw;
  bad_hw.rounds.push_back(PartitionRound{32, 5});
  EXPECT_FALSE(PartitionExec::Execute(dpu_, input, {0}, bad_hw, 64).ok());
  PartitionScheme empty;
  EXPECT_FALSE(PartitionExec::Execute(dpu_, input, {0}, empty, 64).ok());
}

TEST_F(OpsTest, RepartitionSplitsWithHigherBits) {
  ColumnSet input = RandomKv(1000, 21, 100);
  ASSERT_OK_AND_ASSIGN(
      std::vector<ColumnSet> sub,
      PartitionExec::Repartition(dpu_.core(0), dpu_.dms(), input, {0}, 4,
                                 5, 128));
  ASSERT_EQ(sub.size(), 4u);
  size_t total = 0;
  for (const auto& p : sub) total += p.num_rows();
  EXPECT_EQ(total, 1000u);
  for (size_t p = 0; p < 4; ++p) {
    const std::vector<uint32_t> hashes =
        PartitionExec::HashColumn(sub[p], {0});
    for (uint32_t h : hashes) EXPECT_EQ((h >> 5) & 3u, p);
  }
}

// Partition indexes are 16-bit: a round or a runtime repartition of
// more than kMaxRoundFanout ways is refused before any row moves, and
// exactly kMaxRoundFanout ways still runs.
TEST_F(OpsTest, FanOutAboveTheSixteenBitIndexIsRefused) {
  ColumnSet input = RandomKv(2000, 23, 1000);
  auto refused = PartitionExec::Repartition(dpu_.core(0), dpu_.dms(), input,
                                            {0}, kMaxRoundFanout * 2, 6, 1024);
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
      << refused.status().ToString();
  ASSERT_OK_AND_ASSIGN(
      std::vector<ColumnSet> sub,
      PartitionExec::Repartition(dpu_.core(0), dpu_.dms(), input, {0},
                                 kMaxRoundFanout, 6, 1024));
  ASSERT_EQ(sub.size(), static_cast<size_t>(kMaxRoundFanout));
  size_t total = 0;
  for (const ColumnSet& p : sub) total += p.num_rows();
  EXPECT_EQ(total, 2000u);

  PartitionScheme wide;
  wide.rounds.push_back(PartitionRound{kMaxRoundFanout * 2, 32});
  EXPECT_EQ(ValidatePartitionScheme(wide).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(PartitionExec::Execute(dpu_, input, {0}, wide, 64).ok());
  wide.rounds.front().fanout = kMaxRoundFanout;
  EXPECT_OK(ValidatePartitionScheme(wide));
}

TEST_F(OpsTest, SkewedPartitionLayoutMatchesStableReferenceAcrossModes) {
  // 70% of the rows share one key, so its partition takes rows from
  // every work unit. Units of 157 rows (at the default 32 cores) and
  // 50-row tiles start most units' and tiles' shares at row offsets
  // that are not multiples of 8 (64 bytes), so many units' slot
  // scatters interleave inside one shared bucket.
  const size_t n = 20000;
  std::vector<std::vector<int64_t>> cols(2, std::vector<int64_t>(n));
  for (size_t i = 0; i < n; ++i) {
    cols[0][i] = i % 10 < 7 ? 42 : static_cast<int64_t>(i);
    cols[1][i] = static_cast<int64_t>(i);
  }
  const ColumnSet input = MakeColumnSet({"k", "v"}, cols);
  PartitionScheme scheme;
  scheme.rounds.push_back(PartitionRound{8, 8});
  scheme.rounds.push_back(PartitionRound{4, 1});
  scheme.rounds.push_back(PartitionRound{4, 1});
  PartitionScheme first_two;
  first_two.rounds.assign(scheme.rounds.begin(), scheme.rounds.begin() + 2);
  const testing::StablePartition ref = testing::StablePartitionOf(
      input, {0}, scheme, scheme.NumRounds());
  const testing::StablePartition ref2 =
      testing::StablePartitionOf(input, {0}, scheme, 2);

  for (int l = 0; l <= static_cast<int>(SimdLevelSupported()); ++l) {
    ScopedConfig config(&Config::simd, static_cast<SimdLevel>(l));
    ASSERT_OK_AND_ASSIGN(
        PartitionedData out,
        PartitionExec::Execute(dpu_, input, {0}, scheme, 50));
    ASSERT_EQ(out.partitions.size(), ref.buckets.size());
    for (size_t b = 0; b < ref.buckets.size(); ++b) {
      EXPECT_EQ(Rows(out.partitions[b]), Rows(ref.buckets[b]))
          << "level " << l << " bucket " << b;
    }

    // The hashes carried out of round 2 come back through the
    // checkpoint when every round-3 descriptor fails.
    const uint64_t round12_polls = CleanPollCount(faults::kDmsPartition, [&] {
      ASSERT_OK(
          PartitionExec::Execute(dpu_, input, {0}, first_two, 50).status());
    });
    PartitionProgress progress;
    {
      ScopedFaultInjection fi(5);
      FaultInjector::SiteSpec spec;
      spec.skip_first = round12_polls;
      fi.Arm(faults::kDmsPartition, spec);
      ASSERT_FALSE(PartitionExec::Execute(dpu_, input, {0}, scheme, 50,
                                          nullptr, &progress)
                       .ok());
    }
    ASSERT_EQ(progress.rounds_done, 2);
    ASSERT_EQ(progress.buckets.size(), ref2.buckets.size());
    for (size_t b = 0; b < ref2.buckets.size(); ++b) {
      EXPECT_EQ(Rows(progress.buckets[b]), Rows(ref2.buckets[b]))
          << "level " << l << " bucket " << b;
      EXPECT_EQ(progress.bucket_hashes[b], ref2.hashes[b])
          << "level " << l << " bucket " << b;
    }
  }
}

// ---- JoinExec --------------------------------------------------------------

struct JoinFixture {
  PartitionedData build;
  PartitionedData probe;
};

JoinFixture MakeJoinInputs(dpu::Dpu& dpu, size_t nb, size_t np,
                           int64_t key_range, uint64_t seed,
                           int fanout = 32) {
  JoinFixture fx;
  ColumnSet build = RandomKv(nb, seed, key_range);
  ColumnSet probe = RandomKv(np, seed + 1, key_range);
  PartitionScheme scheme;
  scheme.rounds.push_back(
      PartitionRound{fanout, std::min(32, fanout)});
  fx.build = PartitionExec::Execute(dpu, build, {0}, scheme, 128).value();
  fx.probe = PartitionExec::Execute(dpu, probe, {0}, scheme, 128).value();
  return fx;
}

// Reference nested-loop join over the partitioned inputs.
std::multiset<std::vector<int64_t>> ReferenceInnerJoin(
    const PartitionedData& build, const PartitionedData& probe) {
  std::multiset<std::vector<int64_t>> out;
  for (size_t p = 0; p < build.partitions.size(); ++p) {
    const ColumnSet& b = build.partitions[p];
    const ColumnSet& q = probe.partitions[p];
    for (size_t i = 0; i < b.num_rows(); ++i) {
      for (size_t j = 0; j < q.num_rows(); ++j) {
        if (b.Value(i, 0) == q.Value(j, 0)) {
          out.insert({b.Value(i, 1), q.Value(j, 0), q.Value(j, 1)});
        }
      }
    }
  }
  return out;
}

JoinSpec BasicSpec() {
  JoinSpec spec;
  spec.build_keys = {0};
  spec.probe_keys = {0};
  // Output: build v, probe k, probe v.
  spec.outputs = {{true, 1}, {false, 0}, {false, 1}};
  return spec;
}

TEST_F(OpsTest, InnerJoinMatchesReference) {
  JoinFixture fx = MakeJoinInputs(dpu_, 400, 900, 80, 51);
  JoinStats stats;
  ASSERT_OK_AND_ASSIGN(
      ColumnSet result,
      JoinExec::Execute(dpu_, fx.build, fx.probe, BasicSpec(), &stats));
  std::multiset<std::vector<int64_t>> got;
  for (auto& row : Rows(result)) got.insert(row);
  EXPECT_EQ(got, ReferenceInnerJoin(fx.build, fx.probe));
  EXPECT_EQ(stats.build_rows, 400u);
  EXPECT_EQ(stats.probe_rows, 900u);
  EXPECT_EQ(stats.matches, got.size());
  EXPECT_EQ(stats.overflowed_partitions, 0u);
}

TEST_F(OpsTest, JoinPropertySweep) {
  Rng rng(77);
  for (int trial = 0; trial < 6; ++trial) {
    const size_t nb = 50 + rng.NextBounded(300);
    const size_t np = 50 + rng.NextBounded(600);
    const int64_t range = 10 + static_cast<int64_t>(rng.NextBounded(200));
    JoinFixture fx = MakeJoinInputs(dpu_, nb, np, range, 100 + trial);
    ASSERT_OK_AND_ASSIGN(
        ColumnSet result,
        JoinExec::Execute(dpu_, fx.build, fx.probe, BasicSpec(), nullptr));
    std::multiset<std::vector<int64_t>> got;
    for (auto& row : Rows(result)) got.insert(row);
    EXPECT_EQ(got, ReferenceInnerJoin(fx.build, fx.probe)) << trial;
  }
}

TEST_F(OpsTest, SemiAntiOuterJoins) {
  JoinFixture fx = MakeJoinInputs(dpu_, 100, 200, 40, 61);
  // Build-side key set for reference.
  std::set<int64_t> build_keys;
  for (const auto& part : fx.build.partitions) {
    for (size_t r = 0; r < part.num_rows(); ++r) {
      build_keys.insert(part.Value(r, 0));
    }
  }
  size_t probe_total = 0;
  size_t probe_matched = 0;
  for (const auto& part : fx.probe.partitions) {
    probe_total += part.num_rows();
    for (size_t r = 0; r < part.num_rows(); ++r) {
      if (build_keys.count(part.Value(r, 0))) ++probe_matched;
    }
  }

  JoinSpec semi;
  semi.type = JoinType::kSemi;
  semi.build_keys = {0};
  semi.probe_keys = {0};
  semi.outputs = {{false, 0}, {false, 1}};
  ASSERT_OK_AND_ASSIGN(ColumnSet semi_result,
                       JoinExec::Execute(dpu_, fx.build, fx.probe, semi,
                                         nullptr));
  EXPECT_EQ(semi_result.num_rows(), probe_matched);
  for (size_t r = 0; r < semi_result.num_rows(); ++r) {
    EXPECT_TRUE(build_keys.count(semi_result.Value(r, 0)));
  }

  JoinSpec anti = semi;
  anti.type = JoinType::kAnti;
  ASSERT_OK_AND_ASSIGN(ColumnSet anti_result,
                       JoinExec::Execute(dpu_, fx.build, fx.probe, anti,
                                         nullptr));
  EXPECT_EQ(anti_result.num_rows(), probe_total - probe_matched);
  for (size_t r = 0; r < anti_result.num_rows(); ++r) {
    EXPECT_FALSE(build_keys.count(anti_result.Value(r, 0)));
  }

  JoinSpec outer = BasicSpec();
  outer.type = JoinType::kLeftOuter;
  ASSERT_OK_AND_ASSIGN(ColumnSet outer_result,
                       JoinExec::Execute(dpu_, fx.build, fx.probe, outer,
                                         nullptr));
  // Outer = inner matches + one null-extended row per unmatched probe.
  const size_t inner_matches =
      ReferenceInnerJoin(fx.build, fx.probe).size();
  EXPECT_EQ(outer_result.num_rows(),
            inner_matches + (probe_total - probe_matched));
  size_t nulls = 0;
  for (size_t r = 0; r < outer_result.num_rows(); ++r) {
    if (outer_result.Value(r, 0) == kJoinNull) ++nulls;
  }
  EXPECT_EQ(nulls, probe_total - probe_matched);
}

TEST_F(OpsTest, SemiJoinRejectsBuildOutputs) {
  JoinFixture fx = MakeJoinInputs(dpu_, 10, 10, 5, 3);
  JoinSpec bad;
  bad.type = JoinType::kSemi;
  bad.build_keys = {0};
  bad.probe_keys = {0};
  bad.outputs = {{true, 1}};
  EXPECT_FALSE(JoinExec::Execute(dpu_, fx.build, fx.probe, bad, nullptr).ok());
}

TEST_F(OpsTest, SmallSkewOverflowStillCorrect) {
  // Tight DMEM capacity: every partition overflows, results unchanged.
  JoinFixture fx = MakeJoinInputs(dpu_, 600, 600, 50, 71);
  JoinSpec spec = BasicSpec();
  spec.dmem_capacity_rows = 4;
  JoinStats stats;
  ASSERT_OK_AND_ASSIGN(
      ColumnSet result,
      JoinExec::Execute(dpu_, fx.build, fx.probe, spec, &stats));
  std::multiset<std::vector<int64_t>> got;
  for (auto& row : Rows(result)) got.insert(row);
  EXPECT_EQ(got, ReferenceInnerJoin(fx.build, fx.probe));
  EXPECT_GT(stats.overflowed_partitions, 0u);
  EXPECT_GT(stats.overflow_steps, 0u);
}

TEST_F(OpsTest, LargeSkewTriggersRepartitioning) {
  // All build rows share few keys; with a tiny per-partition estimate
  // the executor must repartition dynamically and stay correct.
  JoinFixture fx = MakeJoinInputs(dpu_, 2000, 1000, 8, 81, 4);
  JoinSpec spec = BasicSpec();
  spec.est_rows_per_partition = 50;
  spec.large_skew_factor = 2.0;
  JoinStats stats;
  ASSERT_OK_AND_ASSIGN(
      ColumnSet result,
      JoinExec::Execute(dpu_, fx.build, fx.probe, spec, &stats));
  std::multiset<std::vector<int64_t>> got;
  for (auto& row : Rows(result)) got.insert(row);
  EXPECT_EQ(got, ReferenceInnerJoin(fx.build, fx.probe));
  EXPECT_GT(stats.repartitioned_partitions, 0u);
}

TEST_F(OpsTest, HeavyHitterDetectionAndBroadcast) {
  // One key dominates the build side.
  std::vector<int64_t> bkeys(500, 7);
  std::vector<int64_t> bvals(500);
  for (size_t i = 100; i < 500; ++i) bkeys[i] = static_cast<int64_t>(i);
  for (size_t i = 0; i < 500; ++i) bvals[i] = static_cast<int64_t>(i);
  ColumnSet build = MakeColumnSet({"k", "v"}, {bkeys, bvals});
  ColumnSet probe = RandomKv(300, 91, 600);
  PartitionScheme scheme;
  scheme.rounds.push_back(PartitionRound{4, 4});
  PartitionedData bp =
      PartitionExec::Execute(dpu_, build, {0}, scheme, 128).value();
  PartitionedData pp =
      PartitionExec::Execute(dpu_, probe, {0}, scheme, 128).value();

  JoinSpec spec = BasicSpec();
  spec.heavy_hitter_threshold = 50;
  JoinStats stats;
  ASSERT_OK_AND_ASSIGN(ColumnSet result,
                       JoinExec::Execute(dpu_, bp, pp, spec, &stats));
  EXPECT_GE(stats.heavy_hitter_keys, 1u);
  std::multiset<std::vector<int64_t>> got;
  for (auto& row : Rows(result)) got.insert(row);
  EXPECT_EQ(got, ReferenceInnerJoin(bp, pp));
}

TEST_F(OpsTest, CompositeKeyJoin) {
  ColumnSet build = MakeColumnSet(
      {"k1", "k2", "v"}, {{1, 1, 2}, {10, 20, 10}, {100, 200, 300}});
  ColumnSet probe = MakeColumnSet(
      {"k1", "k2", "w"}, {{1, 1, 2, 2}, {10, 30, 10, 20}, {7, 8, 9, 6}});
  PartitionScheme scheme;
  scheme.rounds.push_back(PartitionRound{2, 2});
  PartitionedData bp =
      PartitionExec::Execute(dpu_, build, {0, 1}, scheme, 64).value();
  PartitionedData pp =
      PartitionExec::Execute(dpu_, probe, {0, 1}, scheme, 64).value();
  JoinSpec spec;
  spec.build_keys = {0, 1};
  spec.probe_keys = {0, 1};
  spec.outputs = {{true, 2}, {false, 2}};
  ASSERT_OK_AND_ASSIGN(ColumnSet result,
                       JoinExec::Execute(dpu_, bp, pp, spec, nullptr));
  // Matches: (1,10) and... build (2,10) vs probe (2,10) -> (300,9).
  auto rows = SortedRows(result);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<int64_t>{100, 7}));
  EXPECT_EQ(rows[1], (std::vector<int64_t>{300, 9}));
}

// ---- Sort / TopK -----------------------------------------------------------

TEST_F(OpsTest, SortSingleKeyAscending) {
  ColumnSet input = MakeColumnSet({"k", "v"}, {{3, 1, 2}, {30, 10, 20}});
  ASSERT_OK_AND_ASSIGN(ColumnSet sorted,
                       SortExec::Execute(dpu_, input, {SortKey{0, true}}));
  EXPECT_EQ(sorted.Values(0), (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(sorted.Values(1), (std::vector<int64_t>{10, 20, 30}));
}

TEST_F(OpsTest, SortMultiKeyMixedDirections) {
  ColumnSet input = MakeColumnSet(
      {"a", "b"}, {{1, 2, 1, 2}, {9, 8, 7, 6}});
  ASSERT_OK_AND_ASSIGN(
      ColumnSet sorted,
      SortExec::Execute(dpu_, input, {SortKey{0, true}, SortKey{1, false}}));
  EXPECT_EQ(sorted.Values(0), (std::vector<int64_t>{1, 1, 2, 2}));
  EXPECT_EQ(sorted.Values(1), (std::vector<int64_t>{9, 7, 8, 6}));
}

TEST_F(OpsTest, SortMatchesStdSortProperty) {
  Rng rng(111);
  for (int trial = 0; trial < 5; ++trial) {
    const size_t n = 500 + rng.NextBounded(2000);
    std::vector<int64_t> keys(n);
    std::vector<int64_t> vals(n);
    for (size_t i = 0; i < n; ++i) {
      keys[i] = rng.NextInRange(-1000, 1000);
      vals[i] = static_cast<int64_t>(i);
    }
    ColumnSet input = MakeColumnSet({"k", "v"}, {keys, vals});
    ASSERT_OK_AND_ASSIGN(ColumnSet sorted,
                         SortExec::Execute(dpu_, input, {SortKey{0, true}}));
    std::vector<int64_t> expected = keys;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(sorted.Values(0), expected);
    // Payload follows its key: every (k, v) pair must exist in input.
    std::multiset<std::pair<int64_t, int64_t>> in_pairs;
    std::multiset<std::pair<int64_t, int64_t>> out_pairs;
    for (size_t i = 0; i < n; ++i) {
      in_pairs.insert({keys[i], vals[i]});
      out_pairs.insert({sorted.Value(i, 0), sorted.Value(i, 1)});
    }
    EXPECT_EQ(in_pairs, out_pairs);
  }
}

TEST_F(OpsTest, SortNegativeValues) {
  ColumnSet input = MakeColumnSet({"k"}, {{5, -3, 0, -100, 42}});
  ASSERT_OK_AND_ASSIGN(ColumnSet sorted,
                       SortExec::Execute(dpu_, input, {SortKey{0, true}}));
  EXPECT_EQ(sorted.Values(0), (std::vector<int64_t>{-100, -3, 0, 5, 42}));
}

TEST_F(OpsTest, TopKReturnsSmallestUnderOrder) {
  ColumnSet input = MakeColumnSet({"k", "v"},
                                  {{5, 1, 4, 2, 3}, {50, 10, 40, 20, 30}});
  ASSERT_OK_AND_ASSIGN(
      ColumnSet top,
      TopKExec::Execute(dpu_, input, {SortKey{0, false}}, 2));
  EXPECT_EQ(top.Values(0), (std::vector<int64_t>{5, 4}));
  EXPECT_EQ(top.Values(1), (std::vector<int64_t>{50, 40}));
}

TEST_F(OpsTest, TopKWithKLargerThanInput) {
  ColumnSet input = MakeColumnSet({"k"}, {{2, 1}});
  ASSERT_OK_AND_ASSIGN(ColumnSet top,
                       TopKExec::Execute(dpu_, input, {SortKey{0, true}}, 10));
  EXPECT_EQ(top.Values(0), (std::vector<int64_t>{1, 2}));
}

TEST_F(OpsTest, SortEmptyInput) {
  ColumnSet input = MakeColumnSet({"k"}, {{}});
  ASSERT_OK_AND_ASSIGN(ColumnSet sorted,
                       SortExec::Execute(dpu_, input, {SortKey{0, true}}));
  EXPECT_EQ(sorted.num_rows(), 0u);
}

// ---- Window ----------------------------------------------------------------

TEST_F(OpsTest, WindowRankAndRowNumber) {
  ColumnSet input = MakeColumnSet(
      {"p", "o", "v"},
      {{1, 1, 1, 2, 2}, {10, 10, 20, 5, 6}, {1, 2, 3, 4, 5}});
  WindowSpec rank;
  rank.func = WindowFunc::kRank;
  rank.partition_by = {0};
  rank.order_by = {SortKey{1, true}};
  rank.output_name = "rnk";
  WindowSpec rownum = rank;
  rownum.func = WindowFunc::kRowNumber;
  rownum.output_name = "rn";
  ASSERT_OK_AND_ASSIGN(ColumnSet out,
                       WindowExec::Execute(dpu_, input, {rank, rownum}));
  ASSERT_EQ(out.num_rows(), 5u);
  // Partition 1 ordered by o: rows (10,10,20) -> rank 1,1,3; rn 1,2,3.
  EXPECT_EQ(out.Values(3), (std::vector<int64_t>{1, 1, 3, 1, 2}));
  EXPECT_EQ(out.Values(4), (std::vector<int64_t>{1, 2, 3, 1, 2}));
}

TEST_F(OpsTest, WindowSums) {
  ColumnSet input = MakeColumnSet(
      {"p", "o", "v"}, {{1, 1, 2}, {1, 2, 1}, {10, 20, 5}});
  WindowSpec running;
  running.func = WindowFunc::kRunningSum;
  running.partition_by = {0};
  running.order_by = {SortKey{1, true}};
  running.value_column = 2;
  running.output_name = "rsum";
  WindowSpec total = running;
  total.func = WindowFunc::kPartitionSum;
  total.output_name = "psum";
  ASSERT_OK_AND_ASSIGN(ColumnSet out,
                       WindowExec::Execute(dpu_, input, {running, total}));
  EXPECT_EQ(out.Values(3), (std::vector<int64_t>{10, 30, 5}));
  EXPECT_EQ(out.Values(4), (std::vector<int64_t>{30, 30, 5}));
}

TEST_F(OpsTest, WindowDenseRank) {
  ColumnSet input = MakeColumnSet({"p", "o"}, {{1, 1, 1, 1}, {5, 5, 7, 9}});
  WindowSpec dense;
  dense.func = WindowFunc::kDenseRank;
  dense.partition_by = {0};
  dense.order_by = {SortKey{1, true}};
  ASSERT_OK_AND_ASSIGN(ColumnSet out,
                       WindowExec::Execute(dpu_, input, {dense}));
  EXPECT_EQ(out.Values(2), (std::vector<int64_t>{1, 1, 2, 3}));
}

// ---- Set operations --------------------------------------------------------

TEST_F(OpsTest, SetOperationsFollowSqlSemantics) {
  ColumnSet left = MakeColumnSet({"a"}, {{1, 2, 2, 3}});
  ColumnSet right = MakeColumnSet({"a"}, {{2, 4, 4}});
  ASSERT_OK_AND_ASSIGN(
      ColumnSet u, SetOpExec::Execute(dpu_, SetOpKind::kUnion, left, right));
  EXPECT_EQ(SortedRows(u), (std::vector<std::vector<int64_t>>{{1}, {2}, {3},
                                                              {4}}));
  ASSERT_OK_AND_ASSIGN(
      ColumnSet i,
      SetOpExec::Execute(dpu_, SetOpKind::kIntersect, left, right));
  EXPECT_EQ(SortedRows(i), (std::vector<std::vector<int64_t>>{{2}}));
  ASSERT_OK_AND_ASSIGN(
      ColumnSet m, SetOpExec::Execute(dpu_, SetOpKind::kMinus, left, right));
  EXPECT_EQ(SortedRows(m), (std::vector<std::vector<int64_t>>{{1}, {3}}));
}

TEST_F(OpsTest, SetOpsMultiColumnAndReference) {
  Rng rng(131);
  std::vector<int64_t> la;
  std::vector<int64_t> lb;
  std::vector<int64_t> ra;
  std::vector<int64_t> rb;
  for (int i = 0; i < 500; ++i) {
    la.push_back(rng.NextInRange(0, 20));
    lb.push_back(rng.NextInRange(0, 3));
    ra.push_back(rng.NextInRange(0, 20));
    rb.push_back(rng.NextInRange(0, 3));
  }
  ColumnSet left = MakeColumnSet({"a", "b"}, {la, lb});
  ColumnSet right = MakeColumnSet({"a", "b"}, {ra, rb});
  std::set<std::vector<int64_t>> lset;
  std::set<std::vector<int64_t>> rset;
  for (auto& r : Rows(left)) lset.insert(r);
  for (auto& r : Rows(right)) rset.insert(r);

  ASSERT_OK_AND_ASSIGN(
      ColumnSet m, SetOpExec::Execute(dpu_, SetOpKind::kMinus, left, right));
  std::set<std::vector<int64_t>> expected;
  for (const auto& r : lset) {
    if (!rset.count(r)) expected.insert(r);
  }
  const auto got = SortedRows(m);
  EXPECT_EQ(std::set<std::vector<int64_t>>(got.begin(), got.end()), expected);
  EXPECT_EQ(got.size(), expected.size());  // distinct
}

TEST_F(OpsTest, SetOpRejectsMismatchedArity) {
  ColumnSet left = MakeColumnSet({"a"}, {{1}});
  ColumnSet right = MakeColumnSet({"a", "b"}, {{1}, {2}});
  EXPECT_FALSE(
      SetOpExec::Execute(dpu_, SetOpKind::kUnion, left, right).ok());
}

}  // namespace
}  // namespace rapid::core
