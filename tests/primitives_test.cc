// Unit and property tests for the primitive kernels: filters (both
// row representations), arithmetic, hashing, software-partitioning
// maps, aggregation, the primitive catalog, and the compact hash-join
// kernel with its DMEM-overflow behaviour.

#include <map>
#include <set>
#include <unordered_map>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "primitives/agg.h"
#include "primitives/arith.h"
#include "primitives/filter.h"
#include "primitives/hash.h"
#include "primitives/join_kernel.h"
#include "primitives/partition_map.h"
#include "primitives/registry.h"
#include "tests/test_util.h"

namespace rapid::primitives {
namespace {

// ---- Filter kernels --------------------------------------------------------

template <CmpOp op>
std::vector<uint32_t> ReferenceFilter(const std::vector<int32_t>& values,
                                      int32_t c) {
  std::vector<uint32_t> out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (Compare<op, int32_t>(values[i], c)) {
      out.push_back(static_cast<uint32_t>(i));
    }
  }
  return out;
}

template <CmpOp op>
void CheckFilterOp(const std::vector<int32_t>& values, int32_t c) {
  const std::vector<uint32_t> expected = ReferenceFilter<op>(values, c);
  // Bit-vector flavour.
  BitVector bv;
  FilterConstBv<op, int32_t>(values.data(), values.size(), c, &bv);
  std::vector<uint32_t> got;
  bv.ToRids(&got);
  EXPECT_EQ(got, expected);
  // RID flavour.
  std::vector<uint32_t> rids;
  FilterConstRid<op, int32_t>(values.data(), values.size(), c, &rids);
  EXPECT_EQ(rids, expected);
}

TEST(FilterTest, AllComparisonOpsMatchReference) {
  Rng rng(17);
  std::vector<int32_t> values(777);
  for (auto& v : values) v = static_cast<int32_t>(rng.NextInRange(-50, 50));
  for (int32_t c : {-50, -7, 0, 13, 50}) {
    CheckFilterOp<CmpOp::kEq>(values, c);
    CheckFilterOp<CmpOp::kNe>(values, c);
    CheckFilterOp<CmpOp::kLt>(values, c);
    CheckFilterOp<CmpOp::kLe>(values, c);
    CheckFilterOp<CmpOp::kGt>(values, c);
    CheckFilterOp<CmpOp::kGe>(values, c);
  }
}

TEST(FilterTest, RefineOnlyTouchesQualifyingRows) {
  // vals  : 0 1 2 3 4 5 6 7
  // first : even values        -> {0,2,4,6}
  // refine: value > 3          -> {4,6}
  std::vector<int32_t> values = {0, 1, 2, 3, 4, 5, 6, 7};
  BitVector even(8);
  for (size_t i = 0; i < 8; i += 2) even.Set(i);
  std::vector<uint32_t> rids;
  even.ToRids(&rids);
  rids.resize(FilterConstRidRefine<CmpOp::kGt, int32_t>(values.data(), 3,
                                                        rids.data(),
                                                        rids.size()));
  EXPECT_EQ(rids, (std::vector<uint32_t>{4, 6}));
}

TEST(FilterTest, RefineEqualsEvalThenAndProperty) {
  Rng rng(23);
  for (int trial = 0; trial < 10; ++trial) {
    const size_t n = 1 + rng.NextBounded(300);
    std::vector<int64_t> values(n);
    for (auto& v : values) v = rng.NextInRange(0, 20);
    BitVector first;
    FilterConstBv<CmpOp::kGt, int64_t>(values.data(), n, 5, &first);
    std::vector<uint32_t> refined;
    first.ToRids(&refined);
    refined.resize(FilterConstRidRefine<CmpOp::kLt, int64_t>(
        values.data(), 15, refined.data(), refined.size()));
    BitVector full;
    FilterConstBv<CmpOp::kLt, int64_t>(values.data(), n, 15, &full);
    full.And(first);
    std::vector<uint32_t> want;
    full.ToRids(&want);
    EXPECT_EQ(refined, want);
  }
}

TEST(FilterTest, Between) {
  std::vector<int32_t> values = {1, 5, 10, 15, 20};
  BitVector bv;
  FilterBetweenBv<int32_t>(values.data(), 5, 5, 15, &bv);
  std::vector<uint32_t> rids;
  bv.ToRids(&rids);
  EXPECT_EQ(rids, (std::vector<uint32_t>{1, 2, 3}));
}

TEST(FilterTest, ColumnVsColumn) {
  std::vector<int32_t> l = {1, 5, 3};
  std::vector<int32_t> r = {2, 4, 3};
  BitVector lt;
  FilterColColBv<CmpOp::kLt, int32_t>(l.data(), r.data(), 3, &lt);
  EXPECT_TRUE(lt.Test(0));
  EXPECT_FALSE(lt.Test(1));
  EXPECT_FALSE(lt.Test(2));
}

TEST(FilterTest, DictSetMembership) {
  std::vector<uint32_t> codes = {0, 1, 2, 3, 2, 9};
  BitVector qualifying(4);
  qualifying.Set(1);
  qualifying.Set(2);
  BitVector out;
  FilterDictSetBv(codes.data(), codes.size(), qualifying, &out);
  std::vector<uint32_t> rids;
  out.ToRids(&rids);
  // Code 9 is beyond the bitmap and must not qualify.
  EXPECT_EQ(rids, (std::vector<uint32_t>{1, 2, 4}));
}

TEST(FilterTest, RidRefinementCompactsInPlace) {
  std::vector<uint32_t> rids = {3, 8, 12, 20, 0};
  std::vector<int64_t> values(21, 0);
  values[3] = 5;
  values[8] = 50;
  values[12] = 7;
  values[20] = 80;
  // Only the first four entries are the list; the fifth stays put.
  const size_t kept = FilterConstRidRefine<CmpOp::kGt, int64_t>(
      values.data(), 10, rids.data(), 4);
  EXPECT_EQ(kept, 2u);
  EXPECT_EQ(rids[0], 8u);
  EXPECT_EQ(rids[1], 20u);
  EXPECT_EQ(rids[4], 0u);
}

TEST(FilterTest, NarrowTypesWork) {
  std::vector<int8_t> v8 = {-3, 0, 3};
  BitVector bv;
  FilterConstBv<CmpOp::kGe, int8_t>(v8.data(), 3, 0, &bv);
  EXPECT_EQ(bv.CountOnes(), 2u);
  std::vector<int16_t> v16 = {-300, 0, 300};
  FilterConstBv<CmpOp::kLt, int16_t>(v16.data(), 3, 0, &bv);
  EXPECT_EQ(bv.CountOnes(), 1u);
}

// ---- Arithmetic ------------------------------------------------------------

TEST(ArithTest, ColColAndColConst) {
  std::vector<int64_t> a = {1, 2, 3};
  std::vector<int64_t> b = {10, 20, 30};
  std::vector<int64_t> out(3);
  ArithColCol<ArithOp::kAdd, int64_t>(a.data(), b.data(), 3, out.data());
  EXPECT_EQ(out, (std::vector<int64_t>{11, 22, 33}));
  ArithColCol<ArithOp::kSub, int64_t>(b.data(), a.data(), 3, out.data());
  EXPECT_EQ(out, (std::vector<int64_t>{9, 18, 27}));
  ArithColConst<ArithOp::kMul, int64_t>(a.data(), 3, 5, out.data());
  EXPECT_EQ(out, (std::vector<int64_t>{5, 10, 15}));
}

TEST(ArithTest, DsbRescaleTile) {
  std::vector<int64_t> m = {125, -7};
  DsbRescaleTile(m.data(), 2, 2, 4);
  EXPECT_EQ(m, (std::vector<int64_t>{12500, -700}));
  DsbRescaleTile(m.data(), 2, 4, 4);  // no-op
  EXPECT_EQ(m[0], 12500);
}

TEST(ArithTest, DsbMulAddsScales) {
  // 1.25 * 0.3 = 0.375: mantissas 125(s2) * 3(s1) = 375(s3).
  std::vector<int64_t> l = {125};
  std::vector<int64_t> r = {3};
  std::vector<int64_t> out(1);
  const int scale = DsbMulTile(l.data(), 2, r.data(), 1, 1, out.data());
  EXPECT_EQ(scale, 3);
  EXPECT_EQ(out[0], 375);
}

TEST(ArithTest, DsbMulConst) {
  // 2.5 * 0.5 = 1.25: 25(s1) * 5(s1) = 125(s2).
  std::vector<int64_t> v = {25};
  std::vector<int64_t> out(1);
  const int scale = DsbMulConstTile(v.data(), 1, 5, 1, 1, out.data());
  EXPECT_EQ(scale, 2);
  EXPECT_EQ(out[0], 125);
}

// ---- Hash ------------------------------------------------------------------

TEST(HashTest, TileMatchesScalar) {
  std::vector<int64_t> keys = {1, 2, 3, 1};
  std::vector<uint32_t> hashes(4);
  HashTile(keys.data(), 4, hashes.data());
  EXPECT_EQ(hashes[0], hashes[3]);
  EXPECT_EQ(hashes[0], Crc32U64(1));
  EXPECT_NE(hashes[0], hashes[1]);
}

TEST(HashTest, CombineChainsColumns) {
  std::vector<int64_t> k1 = {1, 1};
  std::vector<int64_t> k2 = {5, 6};
  std::vector<uint32_t> hashes(2);
  HashTile(k1.data(), 2, hashes.data());
  HashCombineTile(k2.data(), 2, hashes.data());
  EXPECT_NE(hashes[0], hashes[1]);  // second key differentiates
}

TEST(HashTest, KeysTileChainsColumnsFromStartThenShifts) {
  // Rows [start, start + n) of two key columns hash to the row-by-row
  // Crc32Combine chain, shifted right.
  const std::vector<int64_t> k1 = {7, -1, 3, 3, 1 << 20, 42};
  const std::vector<int64_t> k2 = {0, 5, 5, 6, -9, 42};
  const int64_t* cols[] = {k1.data(), k2.data()};
  for (int shift : {0, 10, 31}) {
    std::vector<uint32_t> out(4);
    HashKeysTile(cols, 2, 2, 4, shift, out.data());
    for (size_t i = 0; i < 4; ++i) {
      const uint32_t crc = Crc32Combine(
          Crc32Combine(0xFFFFFFFFu, static_cast<uint64_t>(k1[2 + i])),
          static_cast<uint64_t>(k2[2 + i]));
      EXPECT_EQ(out[i], crc >> shift) << "row " << i << " shift " << shift;
    }
  }
}

// ---- Partition map (Listings 2 and 3) ----------------------------------

TEST(PartitionMapTest, MapMatchesHashBits) {
  std::vector<uint32_t> hashes = {0b0000, 0b0001, 0b0110, 0b1111};
  PartitionMap map;
  ComputePartitionMap(hashes.data(), hashes.size(), 4, /*shift=*/0, &map);
  EXPECT_EQ(map.partition_of,
            (std::vector<uint16_t>{0, 1, 2, 3}));
  ComputePartitionMap(hashes.data(), hashes.size(), 4, /*shift=*/2, &map);
  EXPECT_EQ(map.partition_of,
            (std::vector<uint16_t>{0, 0, 1, 3}));
}

TEST(PartitionMapTest, RidsGroupedInTileOrder) {
  std::vector<uint32_t> hashes = {1, 0, 1, 0, 1};
  PartitionMap map;
  ComputePartitionMap(hashes.data(), hashes.size(), 2, 0, &map);
  EXPECT_EQ(map.counts, (std::vector<uint32_t>{2, 3}));
  EXPECT_EQ(map.offsets, (std::vector<uint32_t>{0, 2, 5}));
  EXPECT_EQ(map.rids, (std::vector<uint32_t>{1, 3, 0, 2, 4}));
}

TEST(PartitionMapTest, SwPartitionColumnGathersSequentially) {
  std::vector<uint32_t> hashes = {1, 0, 1};
  PartitionMap map;
  ComputePartitionMap(hashes.data(), 3, 2, 0, &map);
  std::vector<int64_t> col = {100, 200, 300};
  std::vector<int64_t> out(3);
  SwPartitionColumn(col.data(), map, out.data());
  EXPECT_EQ(out, (std::vector<int64_t>{200, 100, 300}));
}

TEST(PartitionMapTest, PropertyEveryRowLandsInItsPartition) {
  Rng rng(31);
  for (int fanout : {2, 8, 64, 256}) {
    std::vector<uint32_t> hashes(1000);
    for (auto& h : hashes) h = static_cast<uint32_t>(rng.Next());
    PartitionMap map;
    ComputePartitionMap(hashes.data(), hashes.size(), fanout, 3, &map);
    uint32_t total = 0;
    for (int p = 0; p < fanout; ++p) {
      for (uint32_t i = map.offsets[p]; i < map.offsets[p + 1]; ++i) {
        EXPECT_EQ((hashes[map.rids[i]] >> 3) & (fanout - 1),
                  static_cast<uint32_t>(p));
      }
      total += map.counts[p];
    }
    EXPECT_EQ(total, 1000u);
  }
}

// ---- Aggregation -----------------------------------------------------------

TEST(AggTest, TileAggregatesAll) {
  std::vector<int64_t> values = {5, -2, 9, 0};
  AggState st;
  AggTile(values.data(), values.size(), &st);
  EXPECT_EQ(st.sum, 12);
  EXPECT_EQ(st.min, -2);
  EXPECT_EQ(st.max, 9);
  EXPECT_EQ(st.count, 4u);
}

TEST(AggTest, SelectedRowsOnly) {
  std::vector<int64_t> values = {5, -2, 9, 0};
  BitVector sel(4);
  sel.Set(0);
  sel.Set(2);
  AggState st;
  AggTileSelected(values.data(), sel, &st);
  EXPECT_EQ(st.sum, 14);
  EXPECT_EQ(st.min, 5);
  EXPECT_EQ(st.max, 9);
  EXPECT_EQ(st.count, 2u);
}

TEST(AggTest, GroupedUpdates) {
  std::vector<int64_t> values = {1, 2, 3, 4};
  std::vector<uint32_t> groups = {0, 1, 0, 1};
  std::vector<int64_t> sums(2, AggInit(AggOp::kSum));
  std::vector<int64_t> counts(2, AggInit(AggOp::kCount));
  AggGrouped<AggOp::kSum>(values.data(), groups.data(), 4, nullptr,
                          sums.data());
  AggGrouped<AggOp::kCount>(nullptr, groups.data(), 4, nullptr,
                            counts.data());
  EXPECT_EQ(sums[0], 4);
  EXPECT_EQ(sums[1], 6);
  EXPECT_EQ(counts[0], 2);
}

TEST(AggTest, GroupedSelectedSkipsUnsetRows) {
  // Row 70 sits in the second bit-vector word; group 2 gets no
  // selected row and keeps its initial MIN/MAX.
  std::vector<int64_t> values(80, 100);
  std::vector<uint32_t> groups(80, 2);
  values[3] = -5;
  groups[3] = 0;
  values[70] = 9;
  groups[70] = 1;
  values[71] = 4;
  groups[71] = 1;
  BitVector sel(80);
  sel.Set(3);
  sel.Set(70);
  sel.Set(71);
  std::vector<int64_t> mins(3, AggInit(AggOp::kMin));
  std::vector<int64_t> maxs(3, AggInit(AggOp::kMax));
  AggGrouped<AggOp::kMin>(values.data(), groups.data(), 80, &sel,
                          mins.data());
  AggGrouped<AggOp::kMax>(values.data(), groups.data(), 80, &sel,
                          maxs.data());
  EXPECT_EQ(mins, (std::vector<int64_t>{-5, 4, INT64_MAX}));
  EXPECT_EQ(maxs, (std::vector<int64_t>{-5, 9, INT64_MIN}));
}

TEST(AggTest, MergeCombinesStates) {
  AggState a;
  a.sum = 10;
  a.min = -1;
  a.max = 5;
  a.count = 3;
  AggState b;
  b.sum = 7;
  b.min = 0;
  b.max = 9;
  b.count = 2;
  a.Merge(b);
  EXPECT_EQ(a.sum, 17);
  EXPECT_EQ(a.min, -1);
  EXPECT_EQ(a.max, 9);
  EXPECT_EQ(a.count, 5u);
}

// ---- Primitive catalog -------------------------------------------------

TEST(RegistryTest, PaperNamingConvention) {
  // Listing 1's primitive name is reproducible from the convention.
  EXPECT_EQ(PrimitiveCatalog::FilterName("eq", 4, false),
            "rpdmpr_bvflt_ub4_OPT_TYPE_EQ_cval");
  ASSERT_OK_AND_ASSIGN(
      PrimitiveInfo info,
      PrimitiveCatalog::Instance().Find("rpdmpr_bvflt_ub4_OPT_TYPE_EQ_cval"));
  EXPECT_EQ(info.family, "filter");
  EXPECT_EQ(info.operation, "eq");
  EXPECT_EQ(info.input_width, 4);
  EXPECT_FALSE(info.rid_variant);
}

TEST(RegistryTest, GeneratesAllTypeCombinations) {
  const auto& prims = PrimitiveCatalog::Instance().primitives();
  // 6 cmp ops x 4 widths x 2 flavours = 48 filter primitives.
  int filters = 0;
  for (const auto& p : prims) {
    if (p.family == "filter") ++filters;
  }
  EXPECT_EQ(filters, 48);
  EXPECT_FALSE(PrimitiveCatalog::Instance().Find("nonexistent").ok());
  // The software-partitioning primitives of Listings 2/3 exist.
  EXPECT_OK(
      PrimitiveCatalog::Instance().Find("rpdmpr_compute_partition_map")
          .status());
  EXPECT_OK(PrimitiveCatalog::Instance().Find("swpart_partcol_ub4").status());
}

// ---- Compact hash-join kernel (Section 6.3) ----------------------------

TEST(JoinKernelTest, PaperFigure6Example) {
  // 8 tuples, 4 buckets; colours in the figure = hash values 0..3.
  // Tuples at offsets {0,4,7} share hash 0 etc.; we reproduce the
  // backward chaining with a hash function we control.
  const std::vector<uint32_t> hashes = {0, 1, 2, 1, 0, 1, 3, 0};
  CompactJoinTable table(8, 4, 8);
  for (size_t i = 0; i < 8; ++i) table.Insert(hashes[i], i);
  // Entries are ceil(log2(8+1)) = 4 bits.
  EXPECT_EQ(table.entry_bits(), 4);
  EXPECT_FALSE(table.overflowed());

  // Probing hash 0 must visit offsets 7 -> 4 -> 0 (backwards chain).
  std::vector<size_t> visited;
  ProbeStats stats;
  table.Probe(
      0, [](size_t) { return true; },
      [&](size_t offset) { visited.push_back(offset); }, &stats);
  EXPECT_EQ(visited, (std::vector<size_t>{7, 4, 0}));
  EXPECT_EQ(stats.chain_steps, 3u);
  EXPECT_EQ(stats.matches, 3u);
}

TEST(JoinKernelTest, KeyComparisonFiltersHashCollisions) {
  // Two keys in the same bucket; only the equal key matches.
  std::vector<int64_t> build_keys = {100, 200};
  CompactJoinTable table(2, 1, 2);  // one bucket: everything collides
  table.Insert(0, 0);
  table.Insert(0, 1);
  ProbeStats stats;
  std::vector<size_t> matches;
  table.Probe(
      0, [&](size_t offset) { return build_keys[offset] == 200; },
      [&](size_t offset) { matches.push_back(offset); }, &stats);
  EXPECT_EQ(matches, (std::vector<size_t>{1}));
  EXPECT_EQ(stats.chain_steps, 2u);
  EXPECT_EQ(stats.matches, 1u);
}

// The DMEM region is charged as two compact (bit-packed) arrays; these
// pin their entry width and byte size.
TEST(CompactArrayTest, BitsFor) {
  EXPECT_EQ(BitsFor(0), 1);
  EXPECT_EQ(BitsFor(1), 1);
  EXPECT_EQ(BitsFor(2), 2);
  EXPECT_EQ(BitsFor(7), 3);
  EXPECT_EQ(BitsFor(8), 4);
  EXPECT_EQ(BitsFor(255), 8);
  EXPECT_EQ(BitsFor(256), 9);
  EXPECT_EQ(BitsFor(~uint32_t{0}), 32);
}

TEST(CompactArrayTest, ByteSizeIsCompact) {
  // 1000 links of 10 bits = 10000 bits = 1250 bytes -> 1256 rounded to
  // whole words, plus one 8-byte word for a single bucket; far below
  // 1000 * 4 for the flat host words.
  CompactJoinTable table(1000, 1, 1000);
  EXPECT_EQ(table.entry_bits(), 10);
  EXPECT_LE(table.DmemBytes(), 1264u);
  EXPECT_LT(table.DmemBytes(), 1000 * sizeof(uint32_t));
}

// The table keeps flat 32-bit words on the host but is charged at the
// paper's compact width: both DMEM arrays bit-packed at
// ceil(log2(entries + 1)) bits into whole 64-bit words, the link array
// holding min(capacity, rows) entries (at least one).
TEST(JoinKernelTest, DmemBytesIsTheBitPackedFootprint) {
  auto packed_bytes = [](size_t entries, int bits) {
    return (entries * static_cast<size_t>(bits) + 63) / 64 * 8;
  };
  const size_t row_grid[] = {0, 1, 2, 3, 7, 8, 9, 63, 64, 65, 255, 256,
                             1000, 4095, 4096, 70000};
  const size_t bucket_grid[] = {1, 4, 64, 256, 1024};
  int straddling = 0;
  for (size_t rows : row_grid) {
    for (size_t buckets : bucket_grid) {
      const size_t capacity_grid[] = {rows, rows / 2, 1, 100,
                                      ~size_t{0}};
      for (size_t capacity : capacity_grid) {
        CompactJoinTable table(rows, buckets, capacity);
        const size_t entries = std::min(capacity, rows);
        const int bits = BitsFor(entries);
        EXPECT_EQ(table.entry_bits(), bits)
            << rows << " rows, capacity " << capacity;
        EXPECT_EQ(table.DmemBytes(),
                  packed_bytes(buckets, bits) +
                      packed_bytes(std::max<size_t>(entries, 1), bits))
            << rows << " rows, " << buckets << " buckets, capacity "
            << capacity;
        if (64 % bits != 0) ++straddling;
      }
    }
  }
  // Most widths in the grid pack entries across 64-bit word boundaries.
  EXPECT_GT(straddling, 100);
  // Spot values: 8 rows -> 4-bit entries, 4 buckets + 8 links = 48 bits.
  EXPECT_EQ(CompactJoinTable(8, 4, 8).DmemBytes(), 16u);
  // 1000 rows at 10 bits: 256 buckets (40 words) + 1000 links (157).
  EXPECT_EQ(CompactJoinTable(1000, 256, 1000).DmemBytes(), 8u * (40 + 157));
  // Capacity below the rows: 1000 rows, 100 in DMEM at 7 bits.
  CompactJoinTable overflowing(1000, 256, 100);
  EXPECT_EQ(overflowing.entry_bits(), 7);
  EXPECT_EQ(overflowing.DmemBytes(), 8u * (28 + 11));
}

TEST(JoinKernelTest, CompactSizing) {
  // 1000 rows, 256 buckets: entries are ceil(log2(1001)) = 10 bits;
  // bucket + link arrays stay under 1.6 KiB + overhead.
  CompactJoinTable table(1000, 256, 1000);
  EXPECT_EQ(table.entry_bits(), 10);
  EXPECT_LE(table.DmemBytes(), 1700u);
}

TEST(JoinKernelTest, DmemOverflowKeepsAllRowsProbeable) {
  // Capacity 100, 250 rows: 150 rows overflow to the DRAM region
  // (Figure 7); probes must still see every inserted row.
  constexpr size_t kRows = 250;
  constexpr size_t kCapacity = 100;
  std::vector<int64_t> keys(kRows);
  for (size_t i = 0; i < kRows; ++i) keys[i] = static_cast<int64_t>(i % 50);
  CompactJoinTable table(kRows, 64, kCapacity);
  for (size_t i = 0; i < kRows; ++i) {
    table.Insert(Crc32U64(static_cast<uint64_t>(keys[i])), i);
  }
  EXPECT_TRUE(table.overflowed());
  EXPECT_EQ(table.dmem_rows(), kCapacity);
  EXPECT_EQ(table.overflow_rows(), kRows - kCapacity);

  for (int64_t probe = 0; probe < 50; ++probe) {
    ProbeStats stats;
    size_t matches = 0;
    table.Probe(
        Crc32U64(static_cast<uint64_t>(probe)),
        [&](size_t offset) { return keys[offset] == probe; },
        [&](size_t) { ++matches; }, &stats);
    EXPECT_EQ(matches, kRows / 50) << probe;
    EXPECT_GT(stats.overflow_steps, 0u) << probe;
  }
}

TEST(JoinKernelTest, RandomEquijoinMatchesReferenceProperty) {
  Rng rng(41);
  for (int trial = 0; trial < 8; ++trial) {
    const size_t n = 50 + rng.NextBounded(400);
    std::vector<int64_t> build(n);
    for (auto& k : build) k = rng.NextInRange(0, 40);
    // Reference: multimap semantics.
    std::unordered_map<int64_t, size_t> expected_counts;
    for (int64_t k : build) expected_counts[k]++;

    const size_t buckets = 64;
    // Random DMEM capacity exercises both overflow and normal paths.
    const size_t capacity = 1 + rng.NextBounded(n);
    CompactJoinTable table(n, buckets, capacity);
    for (size_t i = 0; i < n; ++i) {
      table.Insert(Crc32U64(static_cast<uint64_t>(build[i])), i);
    }
    for (int64_t probe = -5; probe < 45; ++probe) {
      size_t matches = 0;
      ProbeStats stats;
      table.Probe(
          Crc32U64(static_cast<uint64_t>(probe)),
          [&](size_t offset) { return build[offset] == probe; },
          [&](size_t) { ++matches; }, &stats);
      const auto it = expected_counts.find(probe);
      EXPECT_EQ(matches, it == expected_counts.end() ? 0 : it->second);
    }
  }
}

TEST(JoinKernelTest, ComputeBucketIndices) {
  std::vector<uint32_t> hashes = {0, 17, 33, 64};
  std::vector<uint32_t> indices(4);
  ComputeBucketIndices(hashes.data(), 4, 32, indices.data());
  EXPECT_EQ(indices, (std::vector<uint32_t>{0, 17, 1, 0}));
}

TEST(JoinKernelTest, EmptyTableProbesCleanly) {
  CompactJoinTable table(0, 4, 0);
  ProbeStats stats;
  table.Probe(123, [](size_t) { return true; },
              [](size_t) { FAIL() << "no rows to match"; }, &stats);
  EXPECT_EQ(stats.matches, 0u);
}

}  // namespace
}  // namespace rapid::primitives
