// Bound expressions: a step binds every column reference to its input
// tile slot (Bind) when it resolves its stages, and the operators read
// slots only. These tests pin that:
//   * a name missing from a stage's input is NotFound at resolution,
//     before any tile moves (0 dms.transfer polls), for a predicate, a
//     projection, a group key and an aggregate FILTER;
//   * a bare-column projection aliases its input column: no copy and
//     no pool buffer;
//   * a bound a*b + c over decimal columns of different scales reads
//     its operands' scales off the bound nodes and matches Volcano on
//     every SIMD tier.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/config.h"
#include "common/fault.h"
#include "common/simd.h"
#include "core/engine.h"
#include "core/ops/project_op.h"
#include "core/qcomp/steps.h"
#include "dpu/dpu.h"
#include "hostdb/volcano.h"
#include "storage/loader.h"
#include "tests/test_util.h"

namespace rapid::core {
namespace {

using primitives::CmpOp;
using rapid::testing::Bound;
using rapid::testing::CleanPollCount;
using rapid::testing::MakeColumnSet;
using rapid::testing::SortedRows;

// ---- Unknown names fail before any tile moves -----------------------------

// Runs `step` over a 512-row (k, v) input at step 0 and returns its
// status; `*polls` receives the run's dms.transfer polls.
Status RunOverKv(const PlanStep& step, bool partitioned, uint64_t* polls) {
  std::vector<int64_t> k(512);
  std::vector<int64_t> v(512);
  for (size_t i = 0; i < k.size(); ++i) {
    k[i] = static_cast<int64_t>(i % 5);
    v[i] = static_cast<int64_t>(i);
  }
  dpu::DpuConfig config;
  config.num_cores = 4;
  dpu::Dpu dpu(config);
  ExecEnv env;
  env.dpu = &dpu;
  env.outputs.resize(2);
  ColumnSet input = MakeColumnSet({"k", "v"}, {k, v});
  if (partitioned) {
    env.outputs[0].partitioned = true;
    env.outputs[0].parts.partitions.push_back(std::move(input));
    env.outputs[0].parts.rounds = 1;
  } else {
    env.outputs[0].set = std::move(input);
  }
  Status st;
  *polls = CleanPollCount(faults::kDmsTransfer,
                          [&] { st = step.Execute(env); });
  return st;
}

// A one-stage pipeline over step 0: a filter+project stage, or a
// low-NDV aggregate stage.
PipelineStep FilterProjectStep(const std::string& pred_col,
                               const std::string& proj_col) {
  PipelineSpec spec;
  spec.input = 0;
  spec.tile_rows = 128;
  PipelineStageSpec& stage = spec.branches.emplace_back().stages.emplace_back();
  stage.predicates = {Predicate::CmpConst(pred_col, CmpOp::kGt, 1)};
  stage.projections = {{"out", Expr::Add(Expr::Col(proj_col), Expr::Int(1))}};
  return PipelineStep(1, std::move(spec));
}

PipelineStep AggregateStep(const std::string& key_col,
                           const std::string& filter_col) {
  PipelineSpec spec;
  spec.input = 0;
  spec.tile_rows = 128;
  PipelineStageSpec& stage = spec.branches.emplace_back().stages.emplace_back();
  stage.kind = PipelineStageSpec::Kind::kAggregate;
  stage.group_keys = {{"g", Expr::Col(key_col)}};
  stage.aggregates = {
      {"s", AggFunc::kSum, Expr::Col("v"),
       std::make_shared<Predicate>(
           Predicate::CmpConst(filter_col, CmpOp::kLt, 300))}};
  stage.est_groups = 8;
  return PipelineStep(1, std::move(spec));
}

TEST(BoundExprTest, UnknownColumnIsNotFoundBeforeAnyTileMoves) {
  struct Case {
    std::string what;
    std::unique_ptr<PlanStep> step;
    bool partitioned = false;
  };
  auto make = [](std::string what, auto step, bool partitioned = false) {
    using Step = decltype(step);
    return Case{std::move(what), std::make_unique<Step>(std::move(step)),
                partitioned};
  };
  std::vector<Case> valid;
  valid.push_back(make("filter+project", FilterProjectStep("k", "v")));
  valid.push_back(make("low-ndv group-by", AggregateStep("k", "v")));
  valid.push_back(make(
      "high-ndv group-by",
      GroupByStep(1, 0, {{"g", Expr::Col("k")}},
                  {{"s", AggFunc::kSum, Expr::Col("v"), {}}}, 128, 0),
      true));
  for (const Case& c : valid) {
    uint64_t polls = 0;
    EXPECT_OK(RunOverKv(*c.step, c.partitioned, &polls));
    EXPECT_GT(polls, 0u) << c.what;  // the control moves tiles
  }

  std::vector<Case> broken;
  broken.push_back(make("predicate", FilterProjectStep("nope", "v")));
  broken.push_back(make("projection", FilterProjectStep("k", "nope")));
  broken.push_back(make("group key", AggregateStep("nope", "v")));
  broken.push_back(make("aggregate FILTER", AggregateStep("k", "nope")));
  broken.push_back(make(
      "high-ndv group key",
      GroupByStep(1, 0, {{"g", Expr::Col("nope")}},
                  {{"s", AggFunc::kSum, Expr::Col("v"), {}}}, 128, 0),
      true));
  for (const Case& c : broken) {
    uint64_t polls = 0;
    const Status st = RunOverKv(*c.step, c.partitioned, &polls);
    EXPECT_EQ(st.code(), StatusCode::kNotFound) << c.what << ": "
                                                << st.ToString();
    EXPECT_NE(st.ToString().find("'nope'"), std::string::npos) << c.what;
    EXPECT_EQ(polls, 0u) << c.what;
  }
}

// ---- A bare-column projection aliases its input ---------------------------

// Records the last tile it consumed.
class LastTileOp : public PipelineOp {
 public:
  size_t DmemBytes(size_t) const override { return 0; }
  Status Open(ExecCtx&) override { return Status::OK(); }
  Status Consume(ExecCtx&, const Tile& tile) override {
    last_ = tile;
    return Status::OK();
  }
  Status Finish(ExecCtx&) override { return Status::OK(); }
  const Tile& last() const { return last_; }

 private:
  Tile last_;
};

TEST(BoundExprTest, BareColumnProjectionAliasesItsInput) {
  std::vector<int64_t> a = {1, 2, 3, 4};
  std::vector<int64_t> b = {10, 20, 30, 40};
  Tile tile;
  tile.rows = a.size();
  tile.columns.resize(2);
  tile.columns[0].data = reinterpret_cast<uint8_t*>(a.data());
  tile.columns[1].data = reinterpret_cast<uint8_t*>(b.data());
  tile.columns[1].type = storage::DataType::kDecimal;
  tile.columns[1].dsb_scale = 2;
  const std::vector<ColumnMeta> schema = {
      ColumnMeta{"a", {}, 0}, ColumnMeta{"b", storage::DataType::kDecimal, 2}};

  dpu::Dpu dpu;
  ExecCtx ctx{&dpu.core(0), &dpu.dms(), &dpu.params(), true};
  ctx.dmem().Reset();
  ProjectOp project({Bound(Expr::Col("b"), schema),
                     Bound(Expr::Add(Expr::Col("a"), Expr::Int(1)), schema)},
                    64);
  LastTileOp sink;
  project.set_downstream(&sink);
  const uint64_t acquires = ctx.pool().stats().acquires;
  ASSERT_OK(project.Open(ctx));
  // Only the computed column takes a pool buffer.
  EXPECT_EQ(ctx.pool().stats().acquires - acquires, 1u);
  ASSERT_OK(project.Consume(ctx, tile));

  const Tile& out = sink.last();
  ASSERT_EQ(out.columns.size(), 2u);
  EXPECT_EQ(out.columns[0].data, tile.columns[1].data);
  EXPECT_EQ(out.columns[0].dsb_scale, 2);
  EXPECT_NE(out.columns[1].data, tile.columns[0].data);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(out.columns[0].GetInt(i), b[i]);
    EXPECT_EQ(out.columns[1].GetInt(i), a[i] + 1);
  }
}

// ---- Mixed-scale decimal arithmetic against Volcano -----------------------

TEST(BoundExprTest, EightByteLeavesAreReadInPlace) {
  // a (int64) * b (decimal, scale 2) + c (4-byte int): the product reads
  // both 8-byte leaves where they lie, the sum leases one buffer for the
  // product and one for c, which it widens and rescales to scale 2.
  std::vector<int64_t> a = {1, -2, 3, 40000000000};
  std::vector<int64_t> b = {150, 250, -5, 2};
  std::vector<int32_t> c = {7, -8, 9, 10};
  Tile tile;
  tile.rows = a.size();
  tile.columns.resize(3);
  tile.columns[0].data = reinterpret_cast<uint8_t*>(a.data());
  tile.columns[1].data = reinterpret_cast<uint8_t*>(b.data());
  tile.columns[1].type = storage::DataType::kDecimal;
  tile.columns[1].dsb_scale = 2;
  tile.columns[2].data = reinterpret_cast<uint8_t*>(c.data());
  tile.columns[2].type = storage::DataType::kInt32;
  tile.columns[2].width = 4;
  ColumnMeta cm{"c", storage::DataType::kInt32, 0};
  cm.width = 4;
  const std::vector<ColumnMeta> schema = {
      ColumnMeta{"a", {}, 0}, ColumnMeta{"b", storage::DataType::kDecimal, 2},
      cm};
  const ExprPtr expr = Bound(
      Expr::Add(Expr::Mul(Expr::Col("a"), Expr::Col("b")), Expr::Col("c")),
      schema);
  ASSERT_EQ(expr->scale, 2);

  dpu::Dpu dpu;
  ExecCtx ctx{&dpu.core(0), &dpu.dms(), &dpu.params(), true};
  std::vector<int64_t> out(a.size());
  const uint64_t acquires = ctx.pool().stats().acquires;
  ASSERT_OK(EvalExpr(ctx, tile, *expr, out.data()));
  EXPECT_EQ(ctx.pool().stats().acquires - acquires, 2u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(out[i], a[i] * b[i] + int64_t{c[i]} * 100) << i;
  }
  // The leaves were read, not written.
  EXPECT_EQ(a, (std::vector<int64_t>{1, -2, 3, 40000000000}));
  EXPECT_EQ(b, (std::vector<int64_t>{150, 250, -5, 2}));

  // b - a: a is rescaled in place, so it alone takes a copy.
  const ExprPtr diff =
      Bound(Expr::Sub(Expr::Col("b"), Expr::Col("a")), schema);
  const uint64_t before = ctx.pool().stats().acquires;
  ASSERT_OK(EvalExpr(ctx, tile, *diff, out.data()));
  EXPECT_EQ(ctx.pool().stats().acquires - before, 1u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(out[i], b[i] - a[i] * 100) << i;
  }
  EXPECT_EQ(a, (std::vector<int64_t>{1, -2, 3, 40000000000}));
}

TEST(BoundExprTest, MixedScaleDecimalArithmeticMatchesVolcano) {
  // a has 2 decimals, b 1 and c 4: a*b is at scale 3, so a*b + c
  // rescales the product and a*b + b rescales b.
  const std::vector<storage::ColumnSpec> specs = {
      {"id", storage::ColumnKind::kInt64},
      {"a", storage::ColumnKind::kDecimal},
      {"b", storage::ColumnKind::kDecimal},
      {"c", storage::ColumnKind::kDecimal}};
  std::vector<storage::ColumnData> data(4);
  for (int i = 0; i < 3000; ++i) {
    data[0].ints.push_back(i);
    data[1].decimals.push_back(static_cast<double>(i % 997 - 400) / 100.0);
    data[2].decimals.push_back(static_cast<double>(i % 31) / 10.0);
    data[3].decimals.push_back(static_cast<double>(i % 1009) / 10000.0);
  }
  storage::LoadOptions opts;
  opts.rows_per_chunk = 1024;
  RapidEngine engine;
  Catalog host;
  for (int copy = 0; copy < 2; ++copy) {
    auto table = storage::LoadTable("dec", specs, data, opts);
    ASSERT_OK(table.status());
    if (copy == 0) {
      ASSERT_OK(engine.Load(std::move(table).value()));
    } else {
      host.emplace("dec", std::move(table).value());
    }
  }
  const storage::Table& t = *engine.GetTable("dec");
  ASSERT_EQ(t.stats(1).dsb_scale, 2);
  ASSERT_EQ(t.stats(2).dsb_scale, 1);
  ASSERT_EQ(t.stats(3).dsb_scale, 4);

  const ExprPtr ab = Expr::Mul(Expr::Col("a"), Expr::Col("b"));
  const LogicalPtr plan = LogicalNode::Project(
      LogicalNode::Scan("dec", {"id", "a", "b", "c"},
                        {Predicate::CmpConst("id", CmpOp::kGe, 100)}),
      {{"abc", Expr::Add(ab, Expr::Col("c"))},
       {"abb", Expr::Add(ab, Expr::Col("b"))},
       {"cab", Expr::Sub(Expr::Col("c"), ab)}});
  auto want = hostdb::VolcanoExecutor::Execute(plan, host);
  ASSERT_OK(want.status());
  for (int l = 0; l <= static_cast<int>(SimdLevelSupported()); ++l) {
    ScopedConfig simd(&Config::simd, static_cast<SimdLevel>(l));
    auto got = engine.Execute(plan);
    ASSERT_OK(got.status());
    const ColumnSet& rows = got.value().rows;
    EXPECT_EQ(SortedRows(rows), SortedRows(want.value())) << "level " << l;
    ASSERT_EQ(rows.num_columns(), 3u);
    for (size_t c = 0; c < rows.num_columns(); ++c) {
      EXPECT_EQ(rows.meta(c).dsb_scale, want.value().meta(c).dsb_scale)
          << "level " << l << " column " << rows.meta(c).name;
    }
    EXPECT_EQ(rows.meta(0).dsb_scale, 4);
    EXPECT_EQ(rows.meta(1).dsb_scale, 3);
  }
}

}  // namespace
}  // namespace rapid::core
