// Selection-vector predicate chains. Once few rows of a tile still
// qualify, FilterOp turns its bit vector into a RID list and every
// later predicate runs a RID kernel over the listed rows
// (RefinePredicate on a sparse Selection). The switch must be invisible
// to everything but the host clock: the same rows, the same modeled
// compute and DMS cycles and the same counters as the bit-vector path,
// on every predicate kind, physical width and SIMD tier.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitvector.h"
#include "common/config.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/engine.h"
#include "core/expr.h"
#include "core/ops/filter_op.h"
#include "dpu/dpu.h"
#include "hostdb/database.h"
#include "primitives/bloom.h"
#include "primitives/filter.h"
#include "storage/loader.h"
#include "tests/test_util.h"

namespace rapid::core {
namespace {

using primitives::CmpOp;
using storage::DataType;

const CmpOp kOps[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                      CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};

// Tile lengths: one row, word edges either side and a length that is
// no multiple of 64, next to a full tile.
const size_t kLengths[] = {1, 65, 1000, 4096};

struct Width {
  size_t bytes;
  DataType type;
  const char* name;
};

// Every physical element type VisitPhysical names.
const Width kWidths[] = {{1, DataType::kInt8, "i8"},
                         {2, DataType::kInt16, "i16"},
                         {4, DataType::kInt32, "i32"},
                         {4, DataType::kDictCode, "dict"},
                         {8, DataType::kInt64, "i64"}};

std::vector<SimdLevel> Tiers() {
  std::vector<SimdLevel> tiers;
  for (int l = 0; l <= static_cast<int>(SimdLevelSupported()); ++l) {
    tiers.push_back(static_cast<SimdLevel>(l));
  }
  return tiers;
}

// One tile column stored at a physical width (8-byte aligned backing).
struct TypedColumn {
  Width width;
  std::vector<int64_t> backing;

  TileColumn View() {
    TileColumn col;
    col.data = reinterpret_cast<uint8_t*>(backing.data());
    col.width = width.bytes;
    col.type = width.type;
    return col;
  }
};

// n values of `w`'s element type: a small domain around zero (many
// duplicates, negatives for the signed types), the type's extremes and
// full-range values.
TypedColumn MakeColumn(const Width& w, size_t n, uint64_t seed) {
  TypedColumn col{w, std::vector<int64_t>(n)};
  std::mt19937_64 rng(seed);
  storage::VisitPhysical(w.bytes, w.type, [&](auto t) {
    using T = decltype(t);
    auto* data = reinterpret_cast<T*>(col.backing.data());
    for (size_t i = 0; i < n; ++i) {
      switch (rng() % 4) {
        case 0:
          data[i] = static_cast<T>(std::is_signed_v<T>
                                       ? static_cast<int64_t>(rng() % 32) - 8
                                       : static_cast<int64_t>(rng() % 32));
          break;
        case 1:
          data[i] = std::numeric_limits<T>::min();
          break;
        case 2:
          data[i] = std::numeric_limits<T>::max();
          break;
        default:
          data[i] = static_cast<T>(rng());
      }
    }
  });
  return col;
}

size_t CrossoverOf(const Predicate& pred) {
  switch (pred.kind) {
    case Predicate::Kind::kCmpConst:
      return primitives::kConstRidCrossover;
    case Predicate::Kind::kBetween:
      return primitives::kBetweenRidCrossover;
    case Predicate::Kind::kInSet:
      return primitives::kDictSetRidCrossover;
    case Predicate::Kind::kCmpCol:
      return primitives::kColColRidCrossover;
    case Predicate::Kind::kBloom:
      return primitives::kBloomRidCrossover;
  }
  return 1;
}

// Ascending selections of an n-row tile: none, one row, exactly at the
// predicate's crossover, one row above it, a third, and every row.
std::vector<std::vector<uint32_t>> Selections(size_t n, size_t crossover,
                                              uint64_t seed) {
  std::vector<uint32_t> all(n);
  std::iota(all.begin(), all.end(), 0u);
  std::vector<uint32_t> shuffled = all;
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937_64(seed));
  std::vector<std::vector<uint32_t>> out;
  for (size_t count : {size_t{0}, size_t{1}, n / crossover,
                       n / crossover + 1, n / 3, n}) {
    count = std::min(count, n);
    std::vector<uint32_t> sel(shuffled.begin(), shuffled.begin() + count);
    std::sort(sel.begin(), sel.end());
    out.push_back(std::move(sel));
  }
  return out;
}

// Refines selection `in` of `tile` with `pred` dense (bit vector, then
// And) on core 0 and sparse (RID list) on core 1, and checks both
// against the bit-vector kernel over the whole tile followed by And
// (core 2). The two refining cores see the same calls in the same
// order, so their modeled cycles and counters must match exactly.
class SelectionChecker {
 public:
  void Check(const Tile& tile, const Predicate& pred,
             const std::vector<uint32_t>& in, const std::string& what) {
    const size_t n = tile.rows;
    ExecCtx dense_ctx = Ctx(0);
    ExecCtx sparse_ctx = Ctx(1);
    ExecCtx ref_ctx = Ctx(2);

    BitVector full;
    EvalPredicate(ref_ctx, tile, pred, &full);
    BitVector expected = BitVector::FromRids(in, n);
    expected.And(full);
    std::vector<uint32_t> want;
    expected.ToRids(&want);

    Selection dense;
    dense.bits = BitVector::FromRids(in, n);
    dense.count = in.size();
    RefinePredicate(dense_ctx, tile, pred, &dense);
    std::vector<uint32_t> dense_rows;
    dense.bits.ToRids(&dense_rows);

    std::vector<uint32_t> rids(in);
    rids.resize(std::max<size_t>(n, 1));
    Selection sparse;
    sparse.rids = rids.data();
    sparse.count = in.size();
    sparse.sparse = true;
    RefinePredicate(sparse_ctx, tile, pred, &sparse);
    const std::vector<uint32_t> sparse_rows(rids.begin(),
                                            rids.begin() + sparse.count);

    ASSERT_EQ(dense_rows, want) << what;
    ASSERT_EQ(dense.count, want.size()) << what;
    ASSERT_EQ(sparse_rows, want) << what;
    const dpu::DpCore& d = dpu_.core(0);
    const dpu::DpCore& s = dpu_.core(1);
    ASSERT_EQ(d.cycles().compute_cycles(), s.cycles().compute_cycles())
        << what;
    ASSERT_EQ(d.cycles().dms_cycles(), s.cycles().dms_cycles()) << what;
    ASSERT_EQ(d.counters().rows_pruned_by_join_filter,
              s.counters().rows_pruned_by_join_filter)
        << what;
    ASSERT_EQ(d.counters().runs_filtered, s.counters().runs_filtered) << what;
    ++checks_;
  }

  // Every tier, and every selection of Selections(), of one tile.
  void CheckAll(const Tile& tile, const Predicate& pred,
                const std::string& what) {
    for (SimdLevel tier : Tiers()) {
      ScopedConfig simd(&Config::simd, tier);
      const auto selections =
          Selections(tile.rows, CrossoverOf(pred), tile.rows * 31 + 7);
      for (const auto& in : selections) {
        Check(tile, pred, in,
              what + " tier=" + SimdLevelName(tier) +
                  " n=" + std::to_string(tile.rows) +
                  " selected=" + std::to_string(in.size()));
      }
    }
  }

  size_t checks() const { return checks_; }

 private:
  ExecCtx Ctx(int core) {
    return ExecCtx{&dpu_.core(core), &dpu_.dms(), &dpu_.params(), true};
  }

  dpu::Dpu dpu_;
  size_t checks_ = 0;
};

Tile OneColumnTile(TypedColumn& col) {
  Tile tile;
  tile.rows = col.backing.size();
  tile.columns = {col.View()};
  return tile;
}

Predicate OnSlot(Predicate pred, int slot, int slot2 = -1) {
  pred.slot = slot;
  pred.slot2 = slot2;
  return pred;
}

TEST(SelectionVectorTest, ConstCompareMatchesBitVectorOnEveryWidth) {
  // Constants inside every range, at and just past the 1- and 2-byte
  // edges, and at the int64 extremes: a constant outside a narrow
  // column's range takes its uniform verdict on both paths.
  const int64_t constants[] = {-1,     0,      7,
                               127,    128,    -128,
                               -129,   200,    -200,
                               40000,  -40000, int64_t{1} << 40,
                               std::numeric_limits<int64_t>::min(),
                               std::numeric_limits<int64_t>::max()};
  SelectionChecker checker;
  for (const Width& w : kWidths) {
    for (size_t n : kLengths) {
      TypedColumn col = MakeColumn(w, n, n + w.bytes);
      const Tile tile = OneColumnTile(col);
      for (CmpOp op : kOps) {
        for (int64_t c : constants) {
          checker.CheckAll(tile,
                           OnSlot(Predicate::CmpConst("a", op, c), 0),
                           std::string(w.name) + " op=" +
                               std::to_string(static_cast<int>(op)) +
                               " c=" + std::to_string(c));
        }
      }
    }
  }
  EXPECT_GT(checker.checks(), 0u);
}

TEST(SelectionVectorTest, BetweenMatchesBitVectorOnEveryWidth) {
  // Ranges inside, straddling and outside a narrow column's range, and
  // an empty one: BETWEEN clips to the element range on both paths.
  const std::pair<int64_t, int64_t> ranges[] = {
      {-5, 10},        {-300, 5},       {100, 300},
      {200, 300},      {-300, -200},    {-40000, 40000},
      {10, -5},        {std::numeric_limits<int64_t>::min(),
                        std::numeric_limits<int64_t>::max()}};
  SelectionChecker checker;
  for (const Width& w : kWidths) {
    for (size_t n : kLengths) {
      TypedColumn col = MakeColumn(w, n, 3 * n + w.bytes);
      const Tile tile = OneColumnTile(col);
      for (const auto& [lo, hi] : ranges) {
        checker.CheckAll(tile, OnSlot(Predicate::Between("a", lo, hi), 0),
                         std::string(w.name) + " [" + std::to_string(lo) +
                             ", " + std::to_string(hi) + "]");
      }
    }
  }
}

TEST(SelectionVectorTest, InSetMatchesBitVectorOnEveryWidth) {
  // A 20-code bitmap: columns hold codes at and beyond its size and
  // negative values, which never qualify.
  BitVector codes(20);
  for (size_t c : {0, 3, 4, 7, 8, 15, 19}) codes.Set(c);
  SelectionChecker checker;
  for (const Width& w : kWidths) {
    for (size_t n : kLengths) {
      TypedColumn col = MakeColumn(w, n, 5 * n + w.bytes);
      const Tile tile = OneColumnTile(col);
      checker.CheckAll(tile, OnSlot(Predicate::InSet("a", codes), 0),
                       std::string(w.name) + " in-set");
    }
  }
}

TEST(SelectionVectorTest, ColColMatchesBitVectorOnEveryWidthPair) {
  SelectionChecker checker;
  for (const Width& lw : kWidths) {
    for (const Width& rw : kWidths) {
      for (size_t n : {size_t{65}, size_t{1000}}) {
        TypedColumn l = MakeColumn(lw, n, 7 * n + lw.bytes);
        TypedColumn r = MakeColumn(rw, n, 11 * n + rw.bytes);
        Tile tile;
        tile.rows = n;
        tile.columns = {l.View(), r.View()};
        for (CmpOp op : kOps) {
          checker.CheckAll(
              tile, OnSlot(Predicate::CmpCol("a", op, "b"), 0, 1),
              std::string(lw.name) + " vs " + rw.name + " op=" +
                  std::to_string(static_cast<int>(op)));
        }
      }
    }
  }
}

TEST(SelectionVectorTest, BloomMatchesBitVectorOnEveryWidth) {
  // Half the column's keys go in, widened as a build side's int64 keys
  // widen (so negative int16 keys sign-extend), plus keys the column
  // never holds; a small filter keeps false positives in play.
  SelectionChecker checker;
  for (const Width& w : kWidths) {
    for (size_t n : kLengths) {
      TypedColumn col = MakeColumn(w, n, 13 * n + w.bytes);
      const Tile tile = OneColumnTile(col);
      primitives::BlockedBloomFilter filter(
          primitives::BlockedBloomFilter::BlocksForNdv(n, 256));
      const TileColumn view = tile.columns[0];
      for (size_t i = 0; i < n; i += 2) {
        filter.Insert(static_cast<uint64_t>(view.GetInt(i)));
      }
      for (int64_t k = 1000; k < 1100; ++k) filter.Insert(k);
      checker.CheckAll(tile, OnSlot(Predicate::Bloom("a", &filter), 0),
                       std::string(w.name) + " bloom");
    }
  }
}

TEST(SelectionVectorTest, NegativeInt16BloomKeysProbeLikeTheBuildSide) {
  // The build side inserts int64 keys; an int16 probe column's -5 must
  // find the -5 the build side inserted on both paths.
  std::vector<int16_t> keys = {-5, 5, -300, 300, -5, 7};
  Tile tile;
  tile.rows = keys.size();
  tile.columns.resize(1);
  tile.columns[0].data = reinterpret_cast<uint8_t*>(keys.data());
  tile.columns[0].width = 2;
  tile.columns[0].type = DataType::kInt16;
  primitives::BlockedBloomFilter filter(64);
  filter.Insert(static_cast<uint64_t>(int64_t{-5}));
  filter.Insert(static_cast<uint64_t>(int64_t{300}));
  SelectionChecker checker;
  checker.CheckAll(tile, OnSlot(Predicate::Bloom("k", &filter), 0),
                   "int16 bloom");

  std::vector<uint32_t> rids = {0, 1, 2, 3, 4, 5};
  Selection sel;
  sel.rids = rids.data();
  sel.count = rids.size();
  sel.sparse = true;
  dpu::Dpu dpu;
  ExecCtx ctx{&dpu.core(0), &dpu.dms(), &dpu.params(), true};
  RefinePredicate(ctx, tile, OnSlot(Predicate::Bloom("k", &filter), 0), &sel);
  ASSERT_GE(sel.count, 3u);
  EXPECT_EQ(rids[0], 0u);
  EXPECT_EQ(rids[1], 3u);
  EXPECT_EQ(rids[2], 4u);
  EXPECT_EQ(dpu.core(0).counters().rows_pruned_by_join_filter,
            6u - sel.count);
}

TEST(SelectionVectorTest, RunLevelColumnsKeepTheirRunCharge) {
  // An RLE tile column decides once per run on both paths; the sparse
  // path then keeps the listed rows whose run passed.
  std::vector<int32_t> run_values = {3, -4, 9, 3, 12, 0};
  std::vector<uint32_t> run_lengths = {100, 1, 250, 0, 400, 249};
  std::vector<int32_t> expanded;
  for (size_t r = 0; r < run_values.size(); ++r) {
    expanded.insert(expanded.end(), run_lengths[r], run_values[r]);
  }
  Tile tile;
  tile.rows = expanded.size();
  tile.columns.resize(1);
  TileColumn& col = tile.columns[0];
  col.data = reinterpret_cast<uint8_t*>(expanded.data());
  col.width = 4;
  col.type = DataType::kInt32;
  col.run_values = reinterpret_cast<const uint8_t*>(run_values.data());
  col.run_lengths = run_lengths.data();
  col.num_runs = static_cast<uint32_t>(run_values.size());

  primitives::BlockedBloomFilter filter(8);
  filter.Insert(9);
  filter.Insert(0);
  BitVector codes(10);
  codes.Set(3);
  codes.Set(9);
  SelectionChecker checker;
  for (const Predicate& pred :
       {Predicate::CmpConst("a", CmpOp::kGt, 2), Predicate::Between("a", 0, 9),
        Predicate::InSet("a", codes), Predicate::Bloom("a", &filter)}) {
    checker.CheckAll(tile, OnSlot(pred, 0), "rle");
  }
}

TEST(SelectionVectorTest, CrossoverIsInclusive) {
  // A chain switches at exactly rows / k qualifying rows, not above.
  BitVector codes(4);
  primitives::BlockedBloomFilter filter(1);
  for (const Predicate& pred :
       {Predicate::CmpConst("a", CmpOp::kEq, 1), Predicate::Between("a", 0, 1),
        Predicate::InSet("a", codes), Predicate::CmpCol("a", CmpOp::kLt, "b"),
        Predicate::Bloom("a", &filter)}) {
    const size_t k = CrossoverOf(pred);
    for (size_t rows : {size_t{64}, size_t{1000}, size_t{4096}}) {
      EXPECT_TRUE(RefinesOnRids(pred, rows / k, rows)) << k << " " << rows;
      EXPECT_FALSE(RefinesOnRids(pred, rows / k + 1, rows)) << k << " " << rows;
    }
  }
}

// ---- FilterOp: the chain switches partway and charges as the dense one ----

// Terminal op that records every pushed row.
class CollectRows : public PipelineOp {
 public:
  size_t DmemBytes(size_t) const override { return 0; }
  Status Open(ExecCtx&) override { return Status::OK(); }
  Status Consume(ExecCtx&, const Tile& tile) override {
    for (size_t i = 0; i < tile.rows; ++i) {
      std::vector<int64_t> row;
      for (const TileColumn& c : tile.columns) row.push_back(c.GetInt(i));
      rows.push_back(std::move(row));
    }
    return Status::OK();
  }
  Status Finish(ExecCtx&) override { return Status::OK(); }

  std::vector<std::vector<int64_t>> rows;
};

// FilterOp::Consume as it was before the RID path: the bit vector all
// the way through the chain, then the gather's charges.
void DenseReference(ExecCtx& ctx, const Tile& tile,
                    const std::vector<Predicate>& preds,
                    const std::vector<size_t>& outputs,
                    std::vector<std::vector<int64_t>>* rows) {
  Selection sel;
  EvalPredicate(ctx, tile, preds[0], &sel.bits);
  sel.count = sel.bits.CountOnes();
  for (size_t p = 1; p < preds.size(); ++p) {
    RefinePredicate(ctx, tile, preds[p], &sel);
  }
  std::vector<uint32_t> rids;
  sel.bits.ToRids(&rids);
  if (rids.empty()) return;
  for (uint32_t r : rids) {
    std::vector<int64_t> row;
    for (size_t c : outputs) row.push_back(tile.columns[c].GetInt(r));
    rows->push_back(std::move(row));
  }
  for (size_t c = 0; c < outputs.size(); ++c) {
    ctx.ChargeCompute(static_cast<double>(rids.size()));
  }
  ctx.ChargeCompute(0.5 * static_cast<double>(tile.rows) / 64.0);
  ctx.ChargeVectorizationPenalty(rids.size());
}

TEST(SelectionVectorTest, FilterChainSwitchesAndChargesLikeTheDensePath) {
  // A selective 1-byte predicate, then a Bloom join filter over 2-byte
  // keys (negative ones too), then a col-col compare: the first tiles
  // leave the Bloom probe above its crossover (dense), later ones at,
  // just above and well below it (sparse), one tile passes every row
  // (the contiguous gather) and one passes none.
  constexpr size_t kRows = 1000;
  const size_t crossover = kRows / primitives::kBloomRidCrossover;
  const std::vector<size_t> passing = {kRows, 900, crossover + 1, crossover,
                                       crossover - 1, 100, 1, 0};
  primitives::BlockedBloomFilter filter(64);
  for (int64_t k = -200; k < 200; k += 3) {
    filter.Insert(static_cast<uint64_t>(k));
  }

  for (SimdLevel tier : Tiers()) {
    ScopedConfig simd(&Config::simd, tier);
    dpu::Dpu dpu;
    ExecCtx op_ctx{&dpu.core(0), &dpu.dms(), &dpu.params(), true};
    ExecCtx ref_ctx{&dpu.core(1), &dpu.dms(), &dpu.params(), true};
    const std::vector<Predicate> preds = {
        OnSlot(Predicate::CmpConst("s", CmpOp::kLt, 1), 0),
        OnSlot(Predicate::Bloom("k", &filter), 1),
        OnSlot(Predicate::CmpCol("k", CmpOp::kLe, "v"), 1, 2)};
    const std::vector<size_t> outputs = {1, 2};
    FilterOp filter_op(preds, outputs, kRows, /*use_rid_list=*/false);
    CollectRows sink;
    filter_op.set_downstream(&sink);
    ASSERT_OK(filter_op.Open(op_ctx));
    std::vector<std::vector<int64_t>> want;
    Rng rng(99);
    for (size_t t = 0; t < passing.size(); ++t) {
      std::vector<int8_t> s(kRows, 5);
      std::vector<int16_t> k(kRows);
      std::vector<int64_t> v(kRows);
      std::vector<size_t> order(kRows);
      std::iota(order.begin(), order.end(), 0);
      std::shuffle(order.begin(), order.end(), std::mt19937_64(t));
      for (size_t i = 0; i < passing[t]; ++i) s[order[i]] = 0;
      for (size_t i = 0; i < kRows; ++i) {
        k[i] = static_cast<int16_t>(rng.NextInRange(-200, 199));
        v[i] = rng.NextInRange(-220, 220);
      }
      Tile tile;
      tile.rows = kRows;
      tile.base_row = t * kRows;
      tile.columns.resize(3);
      tile.columns[0] = {reinterpret_cast<uint8_t*>(s.data()), DataType::kInt8,
                         1};
      tile.columns[1] = {reinterpret_cast<uint8_t*>(k.data()),
                         DataType::kInt16, 2};
      tile.columns[2] = {reinterpret_cast<uint8_t*>(v.data()),
                         DataType::kInt64, 8};
      ASSERT_OK(filter_op.Consume(op_ctx, tile));
      DenseReference(ref_ctx, tile, preds, outputs, &want);
      const std::string what = std::string(SimdLevelName(tier)) +
                               " tile " + std::to_string(t);
      ASSERT_EQ(sink.rows, want) << what;
      ASSERT_EQ(dpu.core(0).cycles().compute_cycles(),
                dpu.core(1).cycles().compute_cycles())
          << what;
      ASSERT_EQ(dpu.core(0).cycles().dms_cycles(),
                dpu.core(1).cycles().dms_cycles())
          << what;
      ASSERT_EQ(dpu.core(0).counters().rows_pruned_by_join_filter,
                dpu.core(1).counters().rows_pruned_by_join_filter)
          << what;
    }
    EXPECT_GT(dpu.core(0).counters().rows_pruned_by_join_filter, 0u);
    EXPECT_EQ(filter_op.rows_out(), want.size());
  }
}

// ---- Engine: a selective scan predicate ahead of a pushed join filter ----

// dim keys 0..4095, ~1% surviving the build-side filter; fact rows
// reference the whole key domain. Fact `s` passes `s < 9` at ~90% in
// even 1024-row blocks and ~5% in odd ones, so the pushed Bloom probe
// meets tiles on both sides of its crossover.
class SelectionVectorEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<storage::ColumnSpec> dim_specs = {
        {"k", storage::ColumnKind::kInt64}, {"w", storage::ColumnKind::kInt32}};
    std::vector<storage::ColumnData> dim_data(2);
    for (int i = 0; i < 4096; ++i) {
      dim_data[0].ints.push_back(i);
      dim_data[1].ints.push_back(i);
    }
    ASSERT_OK(host_.CreateTable("dim", dim_specs, dim_data));
    ASSERT_OK(host_.LoadToRapid("dim", &engine_));

    std::vector<storage::ColumnSpec> fact_specs = {
        {"id", storage::ColumnKind::kInt64},
        {"v", storage::ColumnKind::kInt64},
        {"s", storage::ColumnKind::kInt32}};
    std::vector<storage::ColumnData> fact_data(3);
    Rng rng(2033);
    for (int i = 0; i < 20000; ++i) {
      const bool dense_block = (i / 1024) % 2 == 0;
      const int64_t pass = rng.NextInRange(0, 8);
      const int64_t fail = rng.NextInRange(9, 99);
      const bool passes = dense_block ? rng.NextInRange(0, 9) != 0
                                      : rng.NextInRange(0, 19) == 0;
      fact_data[0].ints.push_back(i);
      fact_data[1].ints.push_back(rng.NextInRange(0, 4095));
      fact_data[2].ints.push_back(passes ? pass : fail);
    }
    ASSERT_OK(host_.CreateTable("fact", fact_specs, fact_data));
    ASSERT_OK(host_.LoadToRapid("fact", &engine_));
  }

  static LogicalPtr Plan() {
    return LogicalNode::Join(
        LogicalNode::Scan("dim", {"k", "w"},
                          {Predicate::Between("w", 0, 40, 0.01)}),
        LogicalNode::Scan("fact", {"id", "v"},
                          {Predicate::CmpConst("s", CmpOp::kLt, 9, 0.5)}),
        {"k"}, {"v"}, {"id", "w"}, JoinType::kInner);
  }

  hostdb::HostDatabase host_;
  RapidEngine engine_{dpu::DpuConfig{}};
};

TEST_F(SelectionVectorEngineTest, SelectiveScanThenJoinFilterMatchesDenseRun) {
  // Per-step cycles and the pruned count of this plan as the
  // bit-vector-only chain ran it (the engine before the RID path), at
  // the default 32 cores: the RID path may not move any of them, on
  // any tier.
  struct StepWant {
    double compute_cycles;
    double dms_cycles;
    uint64_t rows_out;
  };
  const std::vector<StepWant> kDenseSteps = {
      {6840.4000000000005, 1323.25, 41},     // SCAN dim
      {10658.900000000005, 12023.9375, 87},  // PIPELINE scan fact | probe
  };
  constexpr uint64_t kDensePruned = 9641;

  ASSERT_OK_AND_ASSIGN(ColumnSet oracle, host_.ExecuteLocal(Plan()));
  for (SimdLevel tier : Tiers()) {
    ScopedConfig simd(&Config::simd, tier);
    ASSERT_OK_AND_ASSIGN(QueryResult run, engine_.Execute(Plan()));
    rapid::testing::ExpectSameRows(run.rows, oracle);
    EXPECT_EQ(run.stats.rows_pruned_by_join_filter, kDensePruned)
        << SimdLevelName(tier);
    ASSERT_EQ(run.stats.steps.size(), kDenseSteps.size());
    for (size_t i = 0; i < kDenseSteps.size(); ++i) {
      const StepTiming& step = run.stats.steps[i];
      EXPECT_EQ(step.compute_cycles, kDenseSteps[i].compute_cycles)
          << step.description;
      EXPECT_EQ(step.dms_cycles, kDenseSteps[i].dms_cycles)
          << step.description;
      EXPECT_EQ(step.rows_out, kDenseSteps[i].rows_out) << step.description;
    }
  }
}

}  // namespace
}  // namespace rapid::core
