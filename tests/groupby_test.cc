// Tests for the group-by operator and step: bucketing on the hash bits
// above the partition bits, the column-at-a-time aggregate update with
// FILTER clauses, empty and single-row partitions, and group order
// across core counts and SIMD tiers.

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>

#include <gtest/gtest.h>

#include "common/config.h"
#include "common/crc32.h"
#include "common/simd.h"
#include "core/engine.h"
#include "core/ops/groupby_op.h"
#include "core/ops/partition_exec.h"
#include "core/qcomp/steps.h"
#include "core/qef/relation_accessor.h"
#include "hostdb/volcano.h"
#include "storage/loader.h"
#include "tests/test_util.h"

namespace rapid::core {
namespace {

using primitives::CmpOp;
using rapid::testing::Bound;
using rapid::testing::MakeColumnSet;
using rapid::testing::Rows;
using rapid::testing::SortedRows;
using Row = std::vector<int64_t>;

// Rows qualify for the filtered aggregates when f < 5.
constexpr int64_t kFilterBound = 5;

// SUM, MIN, MAX and COUNT of v over rows with f < 5, then unfiltered
// SUM(v) and COUNT(*).
std::vector<AggSpec> Aggs() {
  auto pass = [] {
    return std::make_shared<Predicate>(
        Predicate::CmpConst("f", CmpOp::kLt, kFilterBound));
  };
  return {{"sum_f", AggFunc::kSum, Expr::Col("v"), pass()},
          {"min_f", AggFunc::kMin, Expr::Col("v"), pass()},
          {"max_f", AggFunc::kMax, Expr::Col("v"), pass()},
          {"cnt_f", AggFunc::kCount, nullptr, pass()},
          {"sum", AggFunc::kSum, Expr::Col("v"), {}},
          {"cnt", AggFunc::kCount, nullptr, {}}};
}

std::vector<std::string> KeyNames(size_t num_keys) {
  std::vector<std::string> names;
  for (size_t k = 0; k < num_keys; ++k) {
    names.push_back("k" + std::to_string(k));
  }
  return names;
}

// Columns k0..k{num_keys-1}, v, f.
ColumnSet MakeInput(size_t num_keys,
                    const std::vector<std::vector<int64_t>>& cols) {
  std::vector<std::string> names = KeyNames(num_keys);
  names.push_back("v");
  names.push_back("f");
  return MakeColumnSet(names, cols);
}

// Aggs() over `in` (laid out as MakeInput), one row per group in
// first-appearance order: keys, then the six aggregates.
std::vector<Row> FirstAppearance(const ColumnSet& in, size_t num_keys) {
  std::map<Row, size_t> slot;
  std::vector<Row> out;
  for (size_t r = 0; r < in.num_rows(); ++r) {
    Row key(num_keys);
    for (size_t k = 0; k < num_keys; ++k) key[k] = in.Value(r, k);
    auto [it, inserted] = slot.try_emplace(key, out.size());
    if (inserted) {
      Row row = key;
      row.insert(row.end(), {0, INT64_MAX, INT64_MIN, 0, 0, 0});
      out.push_back(std::move(row));
    }
    Row& g = out[it->second];
    const int64_t v = in.Value(r, num_keys);
    if (in.Value(r, num_keys + 1) < kFilterBound) {
      g[num_keys] += v;
      g[num_keys + 1] = std::min(g[num_keys + 1], v);
      g[num_keys + 2] = std::max(g[num_keys + 2], v);
      g[num_keys + 3] += 1;
    }
    g[num_keys + 4] += v;
    g[num_keys + 5] += 1;
  }
  return out;
}

std::vector<Row> Concat(const std::vector<std::vector<Row>>& parts) {
  std::vector<Row> out;
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

// `count` keys whose single-column CRC agrees on its low `bits` bits
// (value `low`): every one of them lands in the same partition of a
// 2^bits-way split.
std::vector<int64_t> KeysWithLowHashBits(size_t count, int bits,
                                         uint32_t low) {
  const uint32_t mask = (1u << bits) - 1;
  std::vector<int64_t> keys;
  for (int64_t k = 0; keys.size() < count; ++k) {
    if ((Crc32Combine(0xFFFFFFFFu, static_cast<uint64_t>(k)) & mask) == low) {
      keys.push_back(k);
    }
  }
  return keys;
}

// `copies` rows per key, the keys cycled in order; v = row number,
// f = row number mod 7.
ColumnSet CycledInput(const std::vector<int64_t>& keys, size_t copies) {
  std::vector<std::vector<int64_t>> cols(3);
  for (size_t c = 0; c < copies; ++c) {
    for (int64_t key : keys) {
      const auto row = static_cast<int64_t>(cols[0].size());
      cols[0].push_back(key);
      cols[1].push_back(row);
      cols[2].push_back(row % 7);
    }
  }
  return MakeInput(1, cols);
}

// Aggs() bound to `in`'s slots.
std::vector<AggSpec> BoundAggs(const ColumnSet& in) {
  std::vector<AggSpec> aggs = Aggs();
  for (AggSpec& a : aggs) {
    if (a.expr != nullptr) a.expr = Bound(a.expr, in.metas());
    if (a.filter != nullptr) {
      a.filter = std::make_shared<Predicate>(Bound(*a.filter, in.metas()));
    }
  }
  return aggs;
}

std::vector<std::pair<std::string, ExprPtr>> KeyExprs(size_t num_keys) {
  std::vector<std::pair<std::string, ExprPtr>> keys;
  for (const std::string& name : KeyNames(num_keys)) {
    keys.emplace_back(name, Expr::Col(name));
  }
  return keys;
}

// Runs one group-by step over `input` on `dpu`: the low-NDV strategy
// as a PipelineStep whose one stage is the aggregate sink over a flat
// input, the high-NDV strategy as a GroupByStep over a partitioned
// one. Returns the output and the step's counters.
struct StepRun {
  ColumnSet out;
  WorkloadCounters counters;
};

StepRun RunStep(dpu::Dpu* dpu, StepOutput input, size_t num_keys,
                bool low_ndv, size_t max_partition_rows = 0,
                std::vector<AggSpec> aggs = Aggs()) {
  ExecEnv env;
  env.dpu = dpu;
  env.outputs.resize(2);
  env.outputs[0] = std::move(input);
  std::unique_ptr<PlanStep> step;
  if (low_ndv) {
    PipelineSpec spec;
    spec.input = 0;
    spec.tile_rows = 256;
    PipelineStageSpec& stage =
        spec.branches.emplace_back().stages.emplace_back();
    stage.kind = PipelineStageSpec::Kind::kAggregate;
    stage.group_keys = KeyExprs(num_keys);
    stage.aggregates = std::move(aggs);
    step = std::make_unique<PipelineStep>(1, std::move(spec));
  } else {
    step = std::make_unique<GroupByStep>(1, 0, KeyExprs(num_keys),
                                         std::move(aggs), /*tile_rows=*/256,
                                         max_partition_rows);
  }
  const Status st = step->Execute(env);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return StepRun{std::move(env.outputs[1].set), env.counters};
}

StepOutput Partitioned(std::vector<ColumnSet> parts, int bits_used) {
  StepOutput in;
  in.partitioned = true;
  in.parts.partitions = std::move(parts);
  in.parts.bits_used = bits_used;
  in.parts.rounds = 1;
  return in;
}

std::unique_ptr<dpu::Dpu> MakeDpu(int cores) {
  dpu::DpuConfig config{};
  config.num_cores = cores;
  return std::make_unique<dpu::Dpu>(config);
}

TEST(GroupByTest, ShiftedHashKeepsOnePartitionsChainsShort) {
  // 600 groups in one partition of a 1024-way split: their CRCs share
  // the low 10 bits, so bucketing on those bits puts every group in
  // one chain and each probe walks about half the partition's groups.
  const ColumnSet input = CycledInput(KeysWithLowHashBits(600, 10, 5), 4);
  const size_t n = input.num_rows();
  const std::vector<Row> expected = FirstAppearance(input, 1);
  dpu::Dpu dpu;
  std::map<int, uint64_t> steps;
  for (const int shift : {10, 0}) {
    GroupByOp op({Bound(Expr::Col("k0"), input.metas())}, BoundAggs(input),
                 shift);
    ExecCtx ctx{&dpu.core(0), &dpu.dms(), &dpu.params(), true};
    ctx.dmem().Reset();
    ASSERT_OK(op.Open(ctx));
    ASSERT_OK(RelationAccessor::PushColumnSet(ctx, input, {0, 1, 2}, 0, n,
                                              256, &op));
    ColumnSet out(std::vector<ColumnMeta>(7));
    ASSERT_OK(op.EmitInto(&out));
    EXPECT_EQ(Rows(out), expected) << "shift " << shift;
    steps[shift] = op.chain_steps();
  }
  EXPECT_LT(steps[10], 2 * n);
  // Control: the same rows bucketed on the partition bits alias.
  EXPECT_GT(steps[0], 50 * n);
}

TEST(GroupByTest, RuntimeRepartitionShiftsPastTheExtraBits) {
  // 4096 groups, two rows each, all in partition 5 of 1024. A 64-row
  // budget splits it 128 ways more on hash bits [10, 17); each
  // sub-partition's table must bucket on the bits above 17.
  static const std::vector<int64_t> keys = KeysWithLowHashBits(4096, 10, 5);
  const ColumnSet input = CycledInput(keys, 2);
  std::vector<ColumnSet> parts(1024, ColumnSet(input.metas()));
  parts[5] = input;
  auto dpu = MakeDpu(4);
  const StepRun run = RunStep(dpu.get(), Partitioned(std::move(parts), 10),
                              1, /*low_ndv=*/false,
                              /*max_partition_rows=*/64);
  EXPECT_EQ(run.counters.groupby_repartitions, 1u);
  EXPECT_LT(run.counters.groupby_chain_steps, 2 * input.num_rows());
  std::vector<Row> expected = FirstAppearance(input, 1);
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(SortedRows(run.out), expected);
}

TEST(GroupByTest, EmptySubPartitionKeepsTheOutputScale) {
  // A 2-way runtime split on hash bit 10 whose second half is empty:
  // every key's CRC has bit 10 clear. SUM over a scale-2 decimal must
  // come out at scale 2, not at the scale of an aggregate that saw no
  // row.
  const ColumnSet cycled = CycledInput(KeysWithLowHashBits(50, 11, 5), 2);
  std::vector<ColumnMeta> metas = cycled.metas();
  metas[1].type = storage::DataType::kDecimal;
  metas[1].dsb_scale = 2;
  ColumnSet input(metas);
  input.Append(cycled);
  std::vector<ColumnSet> parts(1024, ColumnSet(input.metas()));
  parts[5] = input;
  auto dpu = MakeDpu(4);
  const StepRun run = RunStep(
      dpu.get(), Partitioned(std::move(parts), 10), 1, /*low_ndv=*/false,
      /*max_partition_rows=*/64, {{"s", AggFunc::kSum, Expr::Col("v"), {}}});
  EXPECT_EQ(run.counters.groupby_repartitions, 1u);
  ASSERT_EQ(run.out.num_rows(), 50u);
  EXPECT_EQ(run.out.meta(1).dsb_scale, 2);
  EXPECT_EQ(run.out.meta(1).type, storage::DataType::kDecimal);
}

TEST(GroupByTest, EmptyAndSingleRowPartitionsKeepPartitionOrder) {
  // Disjoint two-key groups per partition: empty, one qualifying row,
  // 300 rows over 24 groups (one of them never qualifies), empty, and
  // one row the FILTER rejects (MIN/MAX keep their initial values).
  std::vector<std::vector<std::vector<int64_t>>> cols = {
      {{}, {}, {}, {}},
      {{100}, {-1}, {42}, {0}},
      {{}, {}, {}, {}},
      {{}, {}, {}, {}},
      {{400}, {7}, {-9}, {6}}};
  for (int64_t r = 0; r < 300; ++r) {
    const int64_t g = (r * 7) % 24;
    cols[2][0].push_back(200 + g % 6);
    cols[2][1].push_back(g / 6);
    cols[2][2].push_back(r * 13 % 101 - 50);
    cols[2][3].push_back(g == 23 ? 9 : r % 8);
  }
  std::vector<ColumnSet> parts;
  std::vector<std::vector<Row>> expected;
  for (const auto& c : cols) {
    parts.push_back(MakeInput(2, c));
    expected.push_back(FirstAppearance(parts.back(), 2));
  }
  const std::vector<Row> want = Concat(expected);
  ASSERT_EQ(want.size(), 26u);
  EXPECT_EQ(want.back(), (Row{400, 7, 0, INT64_MAX, INT64_MIN, 0, -9, 1}));
  for (const int cores : {1, 4, 32}) {
    auto dpu = MakeDpu(cores);
    const StepRun run =
        RunStep(dpu.get(), Partitioned(parts, 0), 2, /*low_ndv=*/false);
    EXPECT_EQ(Rows(run.out), want) << "cores " << cores;
  }
}

TEST(GroupByTest, MultiKeyGroupsKeepFirstAppearanceAtEveryCoreCount) {
  // 3000 rows over two keys; morsel splits differ at 1, 4 and 32
  // cores, so the low-NDV merge folds different partial tables. Group
  // 0/0 never passes the FILTER.
  std::vector<std::vector<int64_t>> cols(4);
  for (int64_t r = 0; r < 3000; ++r) {
    const int64_t a = (r * 31 + r / 97) % 13;
    const int64_t b = r % 3 - 1;
    cols[0].push_back(a);
    cols[1].push_back(b);
    cols[2].push_back((r * 7919) % 2003 - 1000);
    cols[3].push_back(a == 0 && b == -1 ? 5 + r % 3 : r % 9);
  }
  const ColumnSet input = MakeInput(2, cols);
  const std::vector<Row> flat_want = FirstAppearance(input, 2);

  PartitionScheme scheme;
  scheme.rounds.push_back(PartitionRound{16, 16});
  const testing::StablePartition ref =
      testing::StablePartitionOf(input, {0, 1}, scheme, 1);
  std::vector<std::vector<Row>> per_part;
  for (const ColumnSet& b : ref.buckets) {
    per_part.push_back(FirstAppearance(b, 2));
  }
  const std::vector<Row> part_want = Concat(per_part);

  for (const int cores : {1, 4, 32}) {
    auto dpu = MakeDpu(cores);
    StepOutput flat;
    flat.set = input;
    EXPECT_EQ(Rows(RunStep(dpu.get(), flat, 2, /*low_ndv=*/true).out),
              flat_want)
        << "low-NDV, cores " << cores;
    ASSERT_OK_AND_ASSIGN(
        PartitionedData parts,
        PartitionExec::Execute(*dpu, input, {0, 1}, scheme, 256));
    StepOutput partitioned;
    partitioned.partitioned = true;
    partitioned.parts = std::move(parts);
    EXPECT_EQ(
        Rows(RunStep(dpu.get(), std::move(partitioned), 2, false).out),
        part_want)
        << "high-NDV, cores " << cores;
  }
}

TEST(GroupByTest, FilteredAggregatesMatchVolcanoOnEveryTier) {
  // Both strategies through the engine against the Volcano oracle.
  // Group 999 has no row with f < 5: its filtered MIN and MAX must
  // come out as INT64_MAX and INT64_MIN, as Volcano's do.
  std::vector<storage::ColumnSpec> specs = {
      {"k0", storage::ColumnKind::kInt64},
      {"k1", storage::ColumnKind::kInt32},
      {"v", storage::ColumnKind::kInt64},
      {"f", storage::ColumnKind::kInt32}};
  std::vector<storage::ColumnData> data(4);
  for (int64_t r = 0; r < 5000; ++r) {
    const bool dead = r % 50 == 0;
    data[0].ints.push_back(dead ? 999 : (r * 37) % 701);
    data[1].ints.push_back(dead ? 0 : r % 2);
    data[2].ints.push_back((r * 104729) % 20011 - 10000);
    data[3].ints.push_back(dead ? 5 + r % 4 : r % 10);
  }
  storage::LoadOptions opts;
  opts.rows_per_chunk = 1024;
  RapidEngine engine;
  ASSERT_OK_AND_ASSIGN(storage::Table table,
                       storage::LoadTable("t", specs, data, opts));
  ASSERT_OK(engine.Load(std::move(table)));
  Catalog host;
  ASSERT_OK_AND_ASSIGN(storage::Table copy,
                       storage::LoadTable("t", specs, data, opts));
  host.emplace("t", std::move(copy));

  const LogicalPtr plan = LogicalNode::GroupBy(
      LogicalNode::Scan("t", {"k0", "k1", "v", "f"}), KeyExprs(2), Aggs());
  ASSERT_OK_AND_ASSIGN(ColumnSet oracle,
                       hostdb::VolcanoExecutor::Execute(plan, host));
  const std::vector<Row> want = SortedRows(oracle);
  const Row dead_row = {999, 0, 0, INT64_MAX, INT64_MIN, 0};
  EXPECT_EQ(std::count_if(want.begin(), want.end(),
                          [&](const Row& r) {
                            return Row(r.begin(), r.begin() + 6) == dead_row;
                          }),
            1);

  for (int l = 0; l <= static_cast<int>(SimdLevelSupported()); ++l) {
    ScopedConfig config(&Config::simd, static_cast<SimdLevel>(l));
    for (const size_t threshold : {size_t{1} << 20, size_t{1}}) {
      ExecOptions options;
      options.planner.low_ndv_threshold = threshold;
      ASSERT_OK_AND_ASSIGN(QueryResult result, engine.Execute(plan, options));
      EXPECT_EQ(SortedRows(result.rows), want)
          << "level " << l << " low_ndv_threshold " << threshold;
      // The high-NDV plan partitions on the keys; the low-NDV one
      // aggregates on the fly.
      EXPECT_EQ(result.stats.workload.partitioned_rows > 0, threshold == 1);
    }
  }
}

}  // namespace
}  // namespace rapid::core
