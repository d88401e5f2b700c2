// ColumnSet storage at physical widths: every (width, type) pair
// round-trips through Value(), growth keeps earlier rows, Append
// concatenates, and a value a narrow column cannot hold fails with
// Internal naming the column, through AppendRow and AppendTile alike,
// leaving the set as it was.

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/ops/sink_op.h"
#include "core/qef/column_set.h"
#include "storage/data_type.h"
#include "tests/test_util.h"

namespace rapid {
namespace {

using core::ColumnMeta;
using core::ColumnSet;
using storage::DataType;

constexpr DataType kTypes[] = {DataType::kInt8,    DataType::kInt16,
                               DataType::kInt32,   DataType::kInt64,
                               DataType::kDecimal, DataType::kDate,
                               DataType::kDictCode};

ColumnMeta Meta(std::string name, DataType type, size_t width,
                int dsb_scale = 0) {
  ColumnMeta m;
  m.name = std::move(name);
  m.type = type;
  m.width = width;
  m.dsb_scale = dsb_scale;
  return m;
}

// The extremes of the element type a (width, type) column stores, with
// 0, 1 and, where it is signed, -1 and small negatives.
std::vector<int64_t> Edges(size_t width, DataType type) {
  return storage::VisitPhysical(width, type, [](auto t) {
    using T = decltype(t);
    std::vector<int64_t> v = {std::numeric_limits<T>::min(),
                              std::numeric_limits<T>::max(), 0, 1};
    if (std::numeric_limits<T>::is_signed) {
      v.push_back(-1);
      v.push_back(-100);
    }
    return v;
  });
}

TEST(ColumnSetTest, EveryWidthAndTypeRoundTripsThroughValue) {
  for (const DataType type : kTypes) {
    for (const size_t width : {1u, 2u, 4u, 8u}) {
      const std::vector<int64_t> values = Edges(width, type);
      ColumnSet set({Meta("x", type, width)});
      for (const int64_t v : values) ASSERT_OK(set.AppendRow({v}));
      ASSERT_EQ(set.num_rows(), values.size());
      for (size_t r = 0; r < values.size(); ++r) {
        EXPECT_EQ(set.Value(r, 0), values[r])
            << "type " << static_cast<int>(type) << " width " << width;
      }
      EXPECT_EQ(set.Values(0), values);
      EXPECT_EQ(set.RowBytes(), width);
    }
  }
  // Negative 1- and 2-byte values sign-extend; 4-byte dictionary codes
  // are unsigned, so the largest code reads back positive.
  ColumnSet set({Meta("a", DataType::kInt64, 1),
                 Meta("b", DataType::kInt64, 2),
                 Meta("c", DataType::kDictCode, 4),
                 Meta("d", DataType::kDecimal, 2, 2)});
  ASSERT_OK(set.AppendRow({-128, -32768, 0xFFFFFFFFLL, -12345}));
  ASSERT_OK(set.AppendRow({-1, -2, 7, 250}));
  EXPECT_EQ(rapid::testing::Rows(set),
            (std::vector<std::vector<int64_t>>{
                {-128, -32768, 0xFFFFFFFFLL, -12345}, {-1, -2, 7, 250}}));
  EXPECT_DOUBLE_EQ(set.Decimal(0, 3), -123.45);
  EXPECT_DOUBLE_EQ(set.Decimal(1, 3), 2.5);
  EXPECT_EQ(*set.data<uint32_t>(2), 0xFFFFFFFFu);
  EXPECT_EQ(set.data<int8_t>(0)[1], -1);
}

TEST(ColumnSetTest, GrowthKeepsEarlierRows) {
  ColumnSet set({Meta("a", DataType::kInt64, 1),
                 Meta("b", DataType::kInt64, 2),
                 Meta("c", DataType::kInt32, 4),
                 Meta("d", DataType::kInt64, 8)});
  auto row = [](size_t i) {
    const auto v = static_cast<int64_t>(i);
    return std::vector<int64_t>{v % 100 - 50, v % 30000 - 15000, -v,
                                v * 1000003};
  };
  // Row by row across many doublings of the capacity.
  constexpr size_t kRows = 5000;
  for (size_t i = 0; i < kRows; ++i) {
    ASSERT_OK(set.AppendRow(row(i)));
    if ((i & (i + 1)) == 0) {  // after each power of two, check all rows
      for (size_t r = 0; r <= i; ++r) {
        for (size_t c = 0; c < 4; ++c) ASSERT_EQ(set.Value(r, c), row(r)[c]);
      }
    }
  }
  // Resize grows uninitialized rows behind the kept ones; Reserve keeps
  // the row count; a shrink and regrow keeps the rows below the cut.
  set.Reserve(3 * kRows);
  EXPECT_EQ(set.num_rows(), kRows);
  set.Resize(2 * kRows);
  for (size_t r = kRows; r < 2 * kRows; ++r) {
    set.data<int8_t>(0)[r] = 1;
    set.data<int16_t>(1)[r] = 2;
    set.data<int32_t>(2)[r] = 3;
    set.data<int64_t>(3)[r] = 4;
  }
  set.Resize(kRows + 1);
  set.Resize(kRows + 2);
  for (size_t r = 0; r < kRows; ++r) {
    for (size_t c = 0; c < 4; ++c) ASSERT_EQ(set.Value(r, c), row(r)[c]);
  }
  EXPECT_EQ(set.Value(kRows, 2), 3);

  // A copy owns its rows; a move leaves an empty set behind.
  ColumnSet copy = set;
  copy.data<int64_t>(3)[0] = -7;
  EXPECT_EQ(set.Value(0, 3), row(0)[3]);
  ColumnSet moved = std::move(copy);
  EXPECT_EQ(moved.num_rows(), kRows + 2);
  EXPECT_EQ(moved.Value(0, 3), -7);
  EXPECT_EQ(copy.num_rows(), 0u);
}

TEST(ColumnSetTest, AppendConcatenatesAtTheSameWidths) {
  const std::vector<ColumnMeta> metas = {Meta("k", DataType::kInt64, 2),
                                         Meta("v", DataType::kDictCode, 4)};
  ColumnSet a(metas);
  ColumnSet b(metas);
  ASSERT_OK(a.AppendRow({-3, 9}));
  ASSERT_OK(b.AppendRow({300, 0xFFFFFFF0LL}));
  ASSERT_OK(b.AppendRow({-300, 0}));
  a.Append(b);
  a.Append(ColumnSet(metas));
  EXPECT_EQ(rapid::testing::Rows(a),
            (std::vector<std::vector<int64_t>>{
                {-3, 9}, {300, 0xFFFFFFF0LL}, {-300, 0}}));
  EXPECT_EQ(a.meta(0).width, 2u);
  EXPECT_EQ(a.meta(1).width, 4u);
  ColumnSet empty(metas);
  empty.Append(a);
  EXPECT_EQ(rapid::testing::Rows(empty), rapid::testing::Rows(a));
}

TEST(ColumnSetTest, OutOfRangeAppendRowFailsNamingTheColumn) {
  ColumnSet set({Meta("wide", DataType::kInt64, 8),
                 Meta("narrow", DataType::kInt64, 1)});
  ASSERT_OK(set.AppendRow({1, 127}));
  const Status st = set.AppendRow({2, 128});
  EXPECT_EQ(st.code(), StatusCode::kInternal) << st.ToString();
  EXPECT_NE(st.ToString().find("'narrow'"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.ToString().find("128"), std::string::npos) << st.ToString();
  // Nothing was appended, not even the wide column's value.
  EXPECT_EQ(rapid::testing::Rows(set),
            (std::vector<std::vector<int64_t>>{{1, 127}}));
  // A dictionary code is unsigned at 4 bytes: -1 does not fit.
  ColumnSet codes({Meta("code", DataType::kDictCode, 4)});
  EXPECT_EQ(codes.AppendRow({-1}).code(), StatusCode::kInternal);
  EXPECT_EQ(codes.num_rows(), 0u);
}

TEST(ColumnSetTest, OutOfRangeAppendTileFailsNamingTheColumn) {
  // An operator's int64 output tile into a set whose second column is
  // 2 bytes wide: the first tile fits, the second holds 40000.
  std::vector<int64_t> a = {1, 2, 3};
  std::vector<int64_t> b = {-32768, 0, 32767};
  core::Tile tile;
  tile.rows = 3;
  tile.columns.resize(2);
  tile.columns[0].data = reinterpret_cast<uint8_t*>(a.data());
  tile.columns[1].data = reinterpret_cast<uint8_t*>(b.data());
  ColumnSet out({Meta("a", DataType::kInt64, 8),
                 Meta("b_narrow", DataType::kInt64, 2)});
  ASSERT_OK(core::AppendTile(tile, &out));
  b[2] = 40000;
  const Status st = core::AppendTile(tile, &out);
  EXPECT_EQ(st.code(), StatusCode::kInternal) << st.ToString();
  EXPECT_NE(st.ToString().find("'b_narrow'"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.ToString().find("40000"), std::string::npos) << st.ToString();
  EXPECT_EQ(rapid::testing::Rows(out),
            (std::vector<std::vector<int64_t>>{
                {1, -32768}, {2, 0}, {3, 32767}}));

  // A narrower tile column widens into a wider meta without a check,
  // and a 4-byte dictionary-code tile keeps its unsigned codes.
  std::vector<int8_t> small = {-1, 5, -128};
  std::vector<uint32_t> codes = {0xFFFFFFFFu, 0, 7};
  core::Tile narrow;
  narrow.rows = 3;
  narrow.columns.resize(2);
  narrow.columns[0].data = reinterpret_cast<uint8_t*>(small.data());
  narrow.columns[0].width = 1;
  narrow.columns[1].data = reinterpret_cast<uint8_t*>(codes.data());
  narrow.columns[1].type = DataType::kDictCode;
  narrow.columns[1].width = 4;
  ColumnSet wide({Meta("s", DataType::kInt64, 2),
                  Meta("c", DataType::kDictCode, 4)});
  ASSERT_OK(core::AppendTile(narrow, &wide));
  EXPECT_EQ(rapid::testing::Rows(wide),
            (std::vector<std::vector<int64_t>>{
                {-1, 0xFFFFFFFFLL}, {5, 0}, {-128, 7}}));
}

}  // namespace
}  // namespace rapid
