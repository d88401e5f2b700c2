// Shared helpers for the RAPID test suite.

#ifndef RAPID_TESTS_TEST_UTIL_H_
#define RAPID_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <bit>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "core/ops/partition_exec.h"
#include "core/qef/column_set.h"
#include "storage/loader.h"

namespace rapid::testing {

// All rows of a ColumnSet as row tuples, sorted — engine results are
// order-insensitive unless a sort step fixed the order.
inline std::vector<std::vector<int64_t>> SortedRows(
    const core::ColumnSet& set) {
  std::vector<std::vector<int64_t>> rows;
  rows.reserve(set.num_rows());
  for (size_t r = 0; r < set.num_rows(); ++r) {
    std::vector<int64_t> row(set.num_columns());
    for (size_t c = 0; c < set.num_columns(); ++c) row[c] = set.Value(r, c);
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

inline std::vector<std::vector<int64_t>> Rows(const core::ColumnSet& set) {
  std::vector<std::vector<int64_t>> rows;
  rows.reserve(set.num_rows());
  for (size_t r = 0; r < set.num_rows(); ++r) {
    std::vector<int64_t> row(set.num_columns());
    for (size_t c = 0; c < set.num_columns(); ++c) row[c] = set.Value(r, c);
    rows.push_back(std::move(row));
  }
  return rows;
}

// Asserts two result sets hold the same bag of rows (sorted compare)
// and the same column names.
inline void ExpectSameRows(const core::ColumnSet& a,
                           const core::ColumnSet& b) {
  ASSERT_EQ(a.num_columns(), b.num_columns());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    EXPECT_EQ(a.meta(c).name, b.meta(c).name) << "column " << c;
  }
  EXPECT_EQ(SortedRows(a), SortedRows(b));
}

// Builds a ColumnSet from widened columns, with int64 metadata.
inline core::ColumnSet MakeColumnSet(
    const std::vector<std::string>& names,
    const std::vector<std::vector<int64_t>>& columns) {
  std::vector<core::ColumnMeta> metas;
  for (const auto& name : names) {
    core::ColumnMeta m;
    m.name = name;
    metas.push_back(m);
  }
  core::ColumnSet out(metas);
  for (size_t c = 0; c < columns.size(); ++c) out.column(c) = columns[c];
  return out;
}

// The buckets after the first `rounds` rounds of `scheme`, computed
// row by row: each bucket holds its rows in input order, next to the
// rows' key hashes (what PartitionExec carries between rounds).
struct StablePartition {
  std::vector<core::ColumnSet> buckets;
  std::vector<std::vector<uint32_t>> hashes;
};

inline StablePartition StablePartitionOf(const core::ColumnSet& input,
                                         const std::vector<size_t>& key_cols,
                                         const core::PartitionScheme& scheme,
                                         size_t rounds) {
  const std::vector<uint32_t> h =
      core::PartitionExec::HashColumn(input, key_cols);
  size_t total = 1;
  for (size_t r = 0; r < rounds; ++r) {
    total *= static_cast<size_t>(scheme.rounds[r].fanout);
  }
  StablePartition ref;
  ref.buckets.assign(total, core::ColumnSet(input.metas()));
  ref.hashes.resize(total);
  for (size_t i = 0; i < input.num_rows(); ++i) {
    size_t bucket = 0;
    int shift = 0;
    for (size_t r = 0; r < rounds; ++r) {
      const auto fanout = static_cast<unsigned>(scheme.rounds[r].fanout);
      bucket = bucket * fanout + ((h[i] >> shift) & (fanout - 1));
      shift += std::countr_zero(fanout);
    }
    for (size_t c = 0; c < input.num_columns(); ++c) {
      ref.buckets[bucket].column(c).push_back(input.Value(i, c));
    }
    ref.hashes[bucket].push_back(h[i]);
  }
  return ref;
}

// Counts the injector polls of `site` over one clean run of `fn` by
// arming the site at probability zero: the slow path runs on every
// poll but never injects. Descriptor/allocation poll counts are a pure
// function of the data layout (not of thread timing), so the count
// pins a deterministic injection point via skip_first.
template <typename Fn>
uint64_t CleanPollCount(const char* site, Fn&& fn) {
  ScopedFaultInjection fi(1);
  FaultInjector::SiteSpec probe;
  probe.probability = 0.0;
  fi.Arm(site, probe);
  fn();
  return FaultInjector::Instance().hits(site);
}

#define ASSERT_OK(expr)                                          \
  do {                                                           \
    auto _st = (expr);                                           \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                     \
  } while (0)

#define EXPECT_OK(expr)                                          \
  do {                                                           \
    auto _st = (expr);                                           \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                     \
  } while (0)

#define ASSERT_OK_AND_ASSIGN(lhs, rexpr)                         \
  ASSERT_OK_AND_ASSIGN_IMPL(RAPID_CONCAT(_res_, __LINE__), lhs, rexpr)

#define ASSERT_OK_AND_ASSIGN_IMPL(tmp, lhs, rexpr)               \
  auto tmp = (rexpr);                                            \
  ASSERT_TRUE(tmp.ok()) << tmp.status().ToString();              \
  lhs = std::move(tmp).value()

}  // namespace rapid::testing

#endif  // RAPID_TESTS_TEST_UTIL_H_
