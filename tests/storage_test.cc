// Unit tests for the storage model: types/schemas, vectors, DSB
// encoding, dictionaries, RLE, tables/statistics, the loader, and
// SCN-versioned update tracking.

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "storage/data_type.h"
#include "storage/dictionary.h"
#include "storage/dsb.h"
#include "storage/loader.h"
#include "storage/rle.h"
#include "storage/table.h"
#include "storage/update.h"
#include "storage/vector.h"
#include "tests/test_util.h"

namespace rapid::storage {
namespace {

// ---- Types / Schema --------------------------------------------------------

TEST(DataTypeTest, Widths) {
  EXPECT_EQ(WidthOf(DataType::kInt8), 1u);
  EXPECT_EQ(WidthOf(DataType::kInt16), 2u);
  EXPECT_EQ(WidthOf(DataType::kInt32), 4u);
  EXPECT_EQ(WidthOf(DataType::kInt64), 8u);
  EXPECT_EQ(WidthOf(DataType::kDecimal), 8u);
  EXPECT_EQ(WidthOf(DataType::kDate), 4u);
  EXPECT_EQ(WidthOf(DataType::kDictCode), 4u);
}

TEST(SchemaTest, IndexOfAndRowWidth) {
  Schema schema({{"a", DataType::kInt32},
                 {"b", DataType::kDecimal},
                 {"c", DataType::kInt8}});
  ASSERT_OK_AND_ASSIGN(size_t idx, schema.IndexOf("b"));
  EXPECT_EQ(idx, 1u);
  EXPECT_FALSE(schema.IndexOf("missing").ok());
  EXPECT_EQ(schema.RowWidth(), 13u);
}

// ---- Vector ----------------------------------------------------------------

TEST(VectorTest, TypedAccess) {
  Vector v(DataType::kInt16, 10);
  v.Append(42);
  v.Append(-7);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.GetInt(0), 42);
  EXPECT_EQ(v.GetInt(1), -7);
  EXPECT_EQ(v.Data<int16_t>()[0], 42);
}

TEST(VectorTest, AllPhysicalTypesRoundTrip) {
  for (DataType t : {DataType::kInt8, DataType::kInt16, DataType::kInt32,
                     DataType::kInt64, DataType::kDecimal, DataType::kDate,
                     DataType::kDictCode}) {
    Vector v(t, 4);
    const int64_t value = t == DataType::kInt8 ? 17 : 1234;
    v.Append(value);
    EXPECT_EQ(v.GetInt(0), value) << NameOf(t);
  }
}

TEST(VectorTest, CloneIsDeep) {
  Vector v(DataType::kInt64, 4);
  v.Append(1);
  v.set_dsb_scale(3);
  Vector c = v.Clone();
  c.SetInt(0, 99);
  EXPECT_EQ(v.GetInt(0), 1);
  EXPECT_EQ(c.GetInt(0), 99);
  EXPECT_EQ(c.dsb_scale(), 3);
}

// ---- DSB -------------------------------------------------------------------

TEST(DsbTest, EncodesCommonScale) {
  // Values need scales {2, 1, 0}; the common scale is the max (2).
  DsbColumn col = DsbEncode({1.25, 3.5, 7.0});
  EXPECT_EQ(col.scale, 2);
  EXPECT_EQ(col.mantissas, (std::vector<int64_t>{125, 350, 700}));
  EXPECT_TRUE(col.exceptions.empty());
}

TEST(DsbTest, RoundTripExactDecimals) {
  const std::vector<double> values = {0.0, -1.5, 12345.6789, 0.000001, -0.07};
  DsbColumn col = DsbEncode(values);
  EXPECT_EQ(DsbDecode(col), values);
}

TEST(DsbTest, IrrationalFractionBecomesException) {
  // 1/3 cannot be expressed at any decimal scale (paper's example).
  const double third = 1.0 / 3.0;
  DsbColumn col = DsbEncode({1.5, third});
  EXPECT_EQ(col.scale, 1);
  EXPECT_TRUE(col.IsException(1));
  EXPECT_FALSE(col.IsException(0));
  EXPECT_EQ(col.exceptions.size(), 1u);
  EXPECT_DOUBLE_EQ(col.DecodeRow(1), third);
  EXPECT_EQ(DsbDecode(col), (std::vector<double>{1.5, third}));
}

TEST(DsbTest, HugeValueAtCommonScaleBecomesException) {
  // 1e17 fits at scale 0 but overflows int64 at scale 6.
  DsbColumn col = DsbEncode({1e17, 0.000001});
  EXPECT_EQ(col.scale, 6);
  EXPECT_TRUE(col.IsException(0));
  EXPECT_DOUBLE_EQ(col.DecodeRow(0), 1e17);
}

TEST(DsbTest, RescalePreservesValue) {
  ASSERT_OK_AND_ASSIGN(int64_t m, DsbRescale(125, 2, 5));
  EXPECT_EQ(m, 125000);
  EXPECT_FALSE(DsbRescale(1, 5, 2).ok());  // precision loss forbidden
  EXPECT_FALSE(DsbRescale(INT64_MAX / 10, 0, 2).ok());  // overflow
}

TEST(DsbTest, Pow10Table) {
  EXPECT_EQ(Pow10(0), 1);
  EXPECT_EQ(Pow10(2), 100);
  EXPECT_EQ(Pow10(18), 1000000000000000000LL);
}

TEST(DsbTest, RandomCentsRoundTripProperty) {
  // The dominant production shape: integers / 100.
  Rng rng(11);
  std::vector<double> values;
  for (int i = 0; i < 2000; ++i) {
    values.push_back(static_cast<double>(rng.NextInRange(-10000000, 10000000)) /
                     100.0);
  }
  DsbColumn col = DsbEncode(values);
  EXPECT_TRUE(col.exceptions.empty());
  EXPECT_LE(col.scale, 2);
  EXPECT_EQ(DsbDecode(col), values);
}

// ---- Dictionary ------------------------------------------------------------

TEST(DictionaryTest, InsertLookupDecode) {
  Dictionary dict;
  const uint32_t a = dict.GetOrInsert("apple");
  const uint32_t b = dict.GetOrInsert("banana");
  EXPECT_EQ(dict.GetOrInsert("apple"), a);
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.size(), 2u);
  ASSERT_OK_AND_ASSIGN(uint32_t found, dict.Lookup("banana"));
  EXPECT_EQ(found, b);
  EXPECT_FALSE(dict.Lookup("cherry").ok());
  EXPECT_EQ(dict.Decode(a), "apple");
}

TEST(DictionaryTest, RangeLookup) {
  Dictionary dict;
  dict.GetOrInsert("delta");
  dict.GetOrInsert("alpha");
  dict.GetOrInsert("charlie");
  dict.GetOrInsert("bravo");
  // alpha..charlie inclusive.
  BitVector codes = dict.RangeLookup("alpha", true, "charlie", true);
  EXPECT_EQ(codes.CountOnes(), 3u);
  EXPECT_TRUE(codes.Test(dict.Lookup("alpha").value()));
  EXPECT_TRUE(codes.Test(dict.Lookup("bravo").value()));
  EXPECT_TRUE(codes.Test(dict.Lookup("charlie").value()));
  EXPECT_FALSE(codes.Test(dict.Lookup("delta").value()));
  // Unbounded below.
  BitVector below = dict.RangeLookup("", false, "bravo", true);
  EXPECT_EQ(below.CountOnes(), 2u);
  // Unbounded above.
  BitVector above = dict.RangeLookup("charlie", true, "", false);
  EXPECT_EQ(above.CountOnes(), 2u);
}

TEST(DictionaryTest, PrefixLookup) {
  Dictionary dict;
  dict.GetOrInsert("PROMO BRUSHED TIN");
  dict.GetOrInsert("STANDARD TIN");
  dict.GetOrInsert("PROMO PLATED STEEL");
  dict.GetOrInsert("PRO");
  BitVector promo = dict.PrefixLookup("PROMO");
  EXPECT_EQ(promo.CountOnes(), 2u);
  EXPECT_TRUE(promo.Test(dict.Lookup("PROMO BRUSHED TIN").value()));
  EXPECT_TRUE(promo.Test(dict.Lookup("PROMO PLATED STEEL").value()));
  BitVector pro = dict.PrefixLookup("PRO");
  EXPECT_EQ(pro.CountOnes(), 3u);
}

TEST(DictionaryTest, UpdatableAfterLoad) {
  // The dictionary supports updates: new values appended later keep
  // existing codes stable and remain range-searchable (Section 4.2).
  Dictionary dict;
  const uint32_t m = dict.GetOrInsert("mango");
  EXPECT_TRUE(dict.IsOrderPreserving());  // single entry
  const uint32_t a = dict.GetOrInsert("apricot");
  EXPECT_EQ(dict.Lookup("mango").value(), m);
  EXPECT_FALSE(dict.IsOrderPreserving());  // apricot < mango, code higher
  BitVector r = dict.RangeLookup("a", true, "m", true);
  EXPECT_TRUE(r.Test(a));
  EXPECT_FALSE(r.Test(m));
}

TEST(DictionaryTest, OrderPreservingWhenInsertedSorted) {
  Dictionary dict;
  dict.GetOrInsert("a");
  dict.GetOrInsert("b");
  dict.GetOrInsert("c");
  EXPECT_TRUE(dict.IsOrderPreserving());
}

// ---- RLE -------------------------------------------------------------------

TEST(RleTest, EncodeDecodeRoundTrip) {
  const std::vector<int64_t> values = {5, 5, 5, 1, 2, 2, 9};
  RleColumn col = RleEncode(values.data(), values.size());
  EXPECT_EQ(col.runs.size(), 4u);
  EXPECT_EQ(RleDecode(col), values);
}

TEST(RleTest, RandomAccess) {
  const std::vector<int64_t> values = {7, 7, 3, 3, 3, 8};
  RleColumn col = RleEncode(values.data(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(RleValueAt(col, i), values[i]) << i;
  }
}

TEST(RleTest, EmptyInput) {
  RleColumn col = RleEncode(nullptr, 0);
  EXPECT_TRUE(col.runs.empty());
  EXPECT_TRUE(RleDecode(col).empty());
}

TEST(RleTest, RandomRoundTripProperty) {
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<int64_t> values;
    for (int i = 0; i < 500; ++i) {
      values.insert(values.end(), 1 + rng.NextBounded(5),
                    static_cast<int64_t>(rng.NextBounded(10)));
    }
    RleColumn col = RleEncode(values.data(), values.size());
    EXPECT_EQ(RleDecode(col), values);
    EXPECT_EQ(col.num_rows, values.size());
  }
}

// ---- Loader / Table --------------------------------------------------------

std::pair<std::vector<ColumnSpec>, std::vector<ColumnData>> SampleTable() {
  std::vector<ColumnSpec> specs = {{"id", ColumnKind::kInt64},
                                   {"price", ColumnKind::kDecimal},
                                   {"city", ColumnKind::kString},
                                   {"day", ColumnKind::kDate}};
  std::vector<ColumnData> data(4);
  const char* cities[] = {"basel", "zurich", "bern"};
  for (int i = 0; i < 100; ++i) {
    data[0].ints.push_back(i);
    data[1].decimals.push_back(static_cast<double>(i) * 0.25);
    data[2].strings.push_back(cities[i % 3]);
    data[3].ints.push_back(10000 + i);
  }
  return {specs, data};
}

TEST(LoaderTest, LayoutFollowsOptions) {
  auto [specs, data] = SampleTable();
  LoadOptions opts;
  opts.rows_per_chunk = 16;
  opts.num_partitions = 2;
  ASSERT_OK_AND_ASSIGN(Table table, LoadTable("t", specs, data, opts));
  EXPECT_EQ(table.num_rows(), 100u);
  EXPECT_EQ(table.num_partitions(), 2u);
  // ceil(100/16) = 7 chunks dealt round-robin: 4 + 3.
  EXPECT_EQ(table.partition(0).num_chunks(), 4u);
  EXPECT_EQ(table.partition(1).num_chunks(), 3u);
  EXPECT_EQ(table.rows_per_chunk(), 16u);
}

TEST(LoaderTest, EncodesDictionaryAndDecimal) {
  auto [specs, data] = SampleTable();
  ASSERT_OK_AND_ASSIGN(Table table, LoadTable("t", specs, data));
  // Dictionary codes assigned in first-seen order.
  const Dictionary* dict = table.dictionary(2);
  ASSERT_NE(dict, nullptr);
  EXPECT_EQ(dict->Lookup("basel").value(), 0u);
  EXPECT_EQ(dict->Lookup("zurich").value(), 1u);
  EXPECT_EQ(dict->Lookup("bern").value(), 2u);
  // Decimal scale: 0.25 needs scale 2.
  EXPECT_EQ(table.stats(1).dsb_scale, 2);
  EXPECT_EQ(table.partition(0).chunk(0).column(1).GetInt(1), 25);  // 0.25
}

TEST(LoaderTest, StatsComputed) {
  auto [specs, data] = SampleTable();
  ASSERT_OK_AND_ASSIGN(Table table, LoadTable("t", specs, data));
  EXPECT_EQ(table.stats(0).min, 0);
  EXPECT_EQ(table.stats(0).max, 99);
  EXPECT_EQ(table.stats(0).ndv, 100u);
  EXPECT_EQ(table.stats(2).ndv, 3u);  // three cities
}

TEST(LoaderTest, RejectsMismatchedColumns) {
  auto [specs, data] = SampleTable();
  data[1].decimals.pop_back();
  EXPECT_FALSE(LoadTable("t", specs, data).ok());
}

TEST(LoaderTest, RejectsInexactDecimals) {
  std::vector<ColumnSpec> specs = {{"x", ColumnKind::kDecimal}};
  std::vector<ColumnData> data(1);
  data[0].decimals = {1.0 / 3.0};
  auto result = LoadTable("t", specs, data);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotSupported);
}

TEST(LoaderTest, ApplyRowChangeHitsRightSlot) {
  auto [specs, data] = SampleTable();
  LoadOptions opts;
  opts.rows_per_chunk = 16;
  opts.num_partitions = 2;
  ASSERT_OK_AND_ASSIGN(Table table, LoadTable("t", specs, data, opts));
  // Row 50: chunk 3 -> partition 1, chunk 1, row 2.
  ASSERT_OK(ApplyRowChanges(&table, {{50, {999, 7777, 1, 12345}}}).status());
  EXPECT_EQ(table.partition(1).chunk(1).column(0).GetInt(2), 999);
  EXPECT_EQ(table.partition(1).chunk(1).column(1).GetInt(2), 7777);
  // Out-of-range row rejected.
  EXPECT_FALSE(ApplyRowChanges(&table, {{100000, {0, 0, 0, 0}}}).ok());
  // Wrong arity rejected.
  EXPECT_FALSE(ApplyRowChanges(&table, {{1, {0}}}).ok());
}

TEST(TableTest, CloneIsDeep) {
  auto [specs, data] = SampleTable();
  // A run-heavy column, so some chunks carry an RLE encoding.
  specs.push_back({"run", ColumnKind::kInt32});
  data.emplace_back();
  for (int i = 0; i < 100; ++i) data.back().ints.push_back(i / 40);
  LoadOptions opts;
  opts.rows_per_chunk = 16;
  opts.num_partitions = 2;
  opts.scn = 9;
  ASSERT_OK_AND_ASSIGN(Table table, LoadTable("t", specs, data, opts));
  Table copy = table.Clone();
  ASSERT_NE(table.partition(0).chunk(0).encoding(4), nullptr);
  EXPECT_EQ(copy.name(), "t");
  EXPECT_EQ(copy.scn(), 9u);
  EXPECT_EQ(copy.rows_per_chunk(), 16u);
  ASSERT_EQ(copy.num_partitions(), 2u);
  for (size_t p = 0; p < 2; ++p) {
    ASSERT_EQ(copy.partition(p).num_chunks(), table.partition(p).num_chunks());
    for (size_t ch = 0; ch < table.partition(p).num_chunks(); ++ch) {
      const Chunk& a = table.partition(p).chunk(ch);
      const Chunk& b = copy.partition(p).chunk(ch);
      for (size_t c = 0; c < specs.size(); ++c) {
        ASSERT_EQ(b.column(c).size(), a.column(c).size());
        EXPECT_NE(b.column(c).raw(), a.column(c).raw());
        EXPECT_EQ(b.column(c).dsb_scale(), a.column(c).dsb_scale());
        for (size_t r = 0; r < a.num_rows(); ++r) {
          EXPECT_EQ(b.column(c).GetInt(r), a.column(c).GetInt(r));
        }
        ASSERT_EQ(b.encoding(c) == nullptr, a.encoding(c) == nullptr);
        if (a.encoding(c) != nullptr) {
          EXPECT_NE(b.encoding(c), a.encoding(c));
          EXPECT_EQ(b.encoding(c)->values, a.encoding(c)->values);
          EXPECT_EQ(b.encoding(c)->lengths, a.encoding(c)->lengths);
        }
      }
    }
  }
  for (size_t c = 0; c < specs.size(); ++c) {
    EXPECT_EQ(copy.stats(c).min, table.stats(c).min);
    EXPECT_EQ(copy.stats(c).max, table.stats(c).max);
    EXPECT_EQ(copy.stats(c).ndv, table.stats(c).ndv);
    EXPECT_EQ(copy.stats(c).dsb_scale, table.stats(c).dsb_scale);
    EXPECT_EQ(copy.stats(c).compression_ratio,
              table.stats(c).compression_ratio);
  }
  // Writes to the copy reach neither the original's vectors nor its
  // dictionary.
  ASSERT_OK(ApplyRowChanges(&copy, {{0, {-1, 1, 2, 3, 4}}}).status());
  EXPECT_EQ(table.partition(0).chunk(0).column(0).GetInt(0), 0);
  EXPECT_EQ(copy.dictionary(2)->GetOrInsert("geneva"), 3u);
  EXPECT_EQ(table.dictionary(2)->size(), 3u);
  EXPECT_EQ(copy.dictionary(2)->Lookup("bern").value(),
            table.dictionary(2)->Lookup("bern").value());
}

// ---- Statistics ------------------------------------------------------------

// A one-column table of `type` holding `values` in chunks of
// `rows_per_chunk`, dealt over two partitions.
Table OneColumnTable(DataType type, const std::vector<int64_t>& values,
                     size_t rows_per_chunk = 700) {
  Table table("t", Schema({Field{"x", type}}));
  std::vector<Partition> partitions(2);
  size_t chunk_index = 0;
  for (size_t start = 0; start < values.size(); start += rows_per_chunk) {
    const size_t rows = std::min(rows_per_chunk, values.size() - start);
    Chunk chunk(table.schema(), rows);
    for (size_t r = 0; r < rows; ++r) {
      chunk.column(0).SetInt(r, values[start + r]);
    }
    partitions[chunk_index++ % 2].AddChunk(std::move(chunk));
  }
  for (Partition& p : partitions) table.AddPartition(std::move(p));
  return table;
}

// RecomputeStats must match a std::set over the values exactly.
void ExpectExactStats(DataType type, const std::vector<int64_t>& values) {
  Table table = OneColumnTable(type, values);
  table.stats(0) = ColumnStats{-3, 3, 99, 2, 1.5};
  table.RecomputeStats();
  const std::set<int64_t> distinct(values.begin(), values.end());
  const ColumnStats& st = table.stats(0);
  EXPECT_EQ(st.min, distinct.empty() ? 0 : *distinct.begin()) << NameOf(type);
  EXPECT_EQ(st.max, distinct.empty() ? 0 : *distinct.rbegin())
      << NameOf(type);
  EXPECT_EQ(st.ndv, distinct.size()) << NameOf(type);
  // min/max/ndv only: the loader owns the other two fields.
  EXPECT_EQ(st.dsb_scale, 2);
  EXPECT_EQ(st.compression_ratio, 1.5);
}

TEST(StatsTest, Int64ExtremesInOneColumn) {
  // [INT64_MIN, INT64_MAX] spans the whole value space (the range
  // wraps in int64), and INT64_MIN is also the flat set's empty-slot
  // key.
  const int64_t lo = std::numeric_limits<int64_t>::min();
  const int64_t hi = std::numeric_limits<int64_t>::max();
  ExpectExactStats(DataType::kInt64, {hi, 0, lo, -1, 1, lo, hi, 5, -5});
  ExpectExactStats(DataType::kInt64, {lo, lo + 1, lo});
  ExpectExactStats(DataType::kInt64, {hi, hi - 1, hi});
  ExpectExactStats(DataType::kDecimal, {lo, hi});
}

TEST(StatsTest, DenseNegativeValuesUseBitmapRange) {
  Rng rng(11);
  std::vector<int64_t> values;
  for (int i = 0; i < 5000; ++i) values.push_back(rng.NextInRange(-900, 99));
  ExpectExactStats(DataType::kInt64, values);
  ExpectExactStats(DataType::kInt32, values);
  ExpectExactStats(DataType::kDecimal, values);
}

TEST(StatsTest, SparseKeysUseFlatSet) {
  // 5000 distinct keys, each twice, ~10^6 apart: the range is far
  // wider than 64 values per row, and the set grows past its
  // initial capacity.
  std::vector<int64_t> values;
  for (int64_t i = 0; i < 5000; ++i) {
    values.push_back(i * 1000003 - 7000000000);
  }
  for (int64_t i = 4999; i >= 0; --i) {
    values.push_back(i * 1000003 - 7000000000);
  }
  ExpectExactStats(DataType::kInt64, values);
}

TEST(StatsTest, SingleDistinctValue) {
  ExpectExactStats(DataType::kInt64, std::vector<int64_t>(3000, -42));
  ExpectExactStats(DataType::kInt8, std::vector<int64_t>(3000, 7));
  ExpectExactStats(DataType::kDictCode, {0});
}

TEST(StatsTest, EmptyTable) {
  ExpectExactStats(DataType::kInt64, {});
  // A table whose only chunk holds no rows.
  Table table("t", Schema({Field{"x", DataType::kInt16}}));
  Partition part;
  part.AddChunk(Chunk(table.schema(), 0));
  table.AddPartition(std::move(part));
  table.RecomputeStats();
  EXPECT_EQ(table.stats(0).min, 0);
  EXPECT_EQ(table.stats(0).max, 0);
  EXPECT_EQ(table.stats(0).ndv, 0u);
}

TEST(StatsTest, EveryVectorWidth) {
  Rng rng(5);
  struct Case {
    DataType type;
    int64_t lo;
    int64_t hi;
  };
  const Case cases[] = {
      {DataType::kInt8, -128, 127},
      {DataType::kInt16, -32768, 32767},
      {DataType::kInt32, std::numeric_limits<int32_t>::min(),
       std::numeric_limits<int32_t>::max()},
      {DataType::kDate, 8035, 10591},  // 1992-01-01 .. 1998-12-31
      {DataType::kDictCode, 0, std::numeric_limits<uint32_t>::max()},
      {DataType::kDictCode, 0, 24},
  };
  for (const Case& c : cases) {
    // Small and large row counts put each width on both sides of the
    // bitmap / flat-set choice where its range allows.
    for (int rows : {50, 4000}) {
      std::vector<int64_t> values = {c.lo, c.hi};
      for (int i = 0; i < rows; ++i) {
        values.push_back(rng.NextInRange(c.lo, c.hi));
      }
      ExpectExactStats(c.type, values);
    }
  }
}

// ---- Tracker ---------------------------------------------------------------

TEST(TrackerTest, ResolvesVersionsBySCN) {
  Tracker tracker(2);
  ASSERT_OK(tracker.ApplyUpdate(10, {{5, {100, 200}}}));
  ASSERT_OK(tracker.ApplyUpdate(20, {{5, {111, 222}}}));

  // Query at SCN 15 sees the version from SCN 10.
  ASSERT_OK_AND_ASSIGN(int64_t v, tracker.Resolve(15, 5, 0));
  EXPECT_EQ(v, 100);
  // Query at SCN 25 sees the newest version.
  ASSERT_OK_AND_ASSIGN(v, tracker.Resolve(25, 5, 1));
  EXPECT_EQ(v, 222);
  // Query older than any update: no version.
  EXPECT_FALSE(tracker.Resolve(5, 5, 0).ok());
  // Untouched row: not found (caller reads the base vector).
  EXPECT_FALSE(tracker.Resolve(25, 6, 0).ok());
  EXPECT_TRUE(tracker.HasVersionFor(25, 5));
  EXPECT_FALSE(tracker.HasVersionFor(25, 6));
}

TEST(TrackerTest, ExpirationSetOnSupersede) {
  Tracker tracker(1);
  ASSERT_OK(tracker.ApplyUpdate(10, {{1, {7}}}));
  ASSERT_OK(tracker.ApplyUpdate(20, {{1, {8}}}));
  EXPECT_EQ(tracker.num_units(), 2u);
  EXPECT_EQ(tracker.latest_scn(), 20u);
}

TEST(TrackerTest, RowNamedTwiceInOneBatchResolvesToLastChange) {
  Tracker tracker(2);
  ASSERT_OK(tracker.ApplyUpdate(10, {{3, {1, 10}}}));
  // Row 3 twice in one batch, plus another row between the two.
  ASSERT_OK(tracker.ApplyUpdate(20, {{3, {2, 20}}, {4, {0, 0}}, {3, {3, 30}}}));
  EXPECT_EQ(tracker.num_units(), 2u);
  EXPECT_EQ(tracker.Resolve(15, 3, 1).value(), 10);
  EXPECT_EQ(tracker.Resolve(25, 3, 0).value(), 3);
  EXPECT_EQ(tracker.Resolve(25, 3, 1).value(), 30);
  // The SCN-10 version expired at 20, exactly once.
  EXPECT_EQ(tracker.Vacuum(25), 1u);
  EXPECT_EQ(tracker.Resolve(25, 3, 1).value(), 30);
}

TEST(TrackerTest, RejectsNonMonotonicScn) {
  Tracker tracker(1);
  ASSERT_OK(tracker.ApplyUpdate(10, {{1, {7}}}));
  EXPECT_FALSE(tracker.ApplyUpdate(10, {{1, {8}}}).ok());
  EXPECT_FALSE(tracker.ApplyUpdate(5, {{1, {8}}}).ok());
}

TEST(TrackerTest, RejectsWrongArity) {
  Tracker tracker(2);
  EXPECT_FALSE(tracker.ApplyUpdate(10, {{1, {7}}}).ok());
}

TEST(TrackerTest, VacuumReclaimsDeadVersions) {
  Tracker tracker(1);
  ASSERT_OK(tracker.ApplyUpdate(10, {{1, {7}}}));
  ASSERT_OK(tracker.ApplyUpdate(20, {{1, {8}}}));
  ASSERT_OK(tracker.ApplyUpdate(30, {{2, {9}}}));
  // No active query before SCN 25: the SCN-10 version of row 1 died at
  // SCN 20 <= 25.
  EXPECT_EQ(tracker.Vacuum(25), 1u);
  // The survivors still resolve.
  EXPECT_EQ(tracker.Resolve(25, 1, 0).value(), 8);
  EXPECT_EQ(tracker.Resolve(35, 2, 0).value(), 9);
  EXPECT_EQ(tracker.Vacuum(25), 0u);  // idempotent
}

}  // namespace
}  // namespace rapid::storage
