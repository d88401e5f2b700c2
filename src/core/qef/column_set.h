// ColumnSet: a DRAM-resident materialized intermediate result.
//
// Task boundaries materialize to DRAM (Section 5.2); a ColumnSet is
// what a task writes and the next task's relation accessor reads.
// Each column's meta carries its logical type, DSB scale and physical
// width: the bytes per value the DMS moves when the column is
// partitioned, stored or loaded into a DMEM tile, proven to hold every
// value the column can carry. The host stores each column at that
// width too, in one byte buffer per column that grows without
// zero-filling; storage::VisitPhysical of the meta names its element
// type.

#ifndef RAPID_CORE_QEF_COLUMN_SET_H_
#define RAPID_CORE_QEF_COLUMN_SET_H_

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "storage/data_type.h"
#include "storage/dictionary.h"

namespace rapid::core {

struct ColumnMeta {
  std::string name;
  storage::DataType type = storage::DataType::kInt64;
  int dsb_scale = 0;
  // Dictionary of the source column when the values are dictionary
  // codes (propagated through plans so results can decode to strings);
  // null otherwise. Not owned.
  const storage::Dictionary* dict = nullptr;
  // Physical bytes per value (1, 2, 4 or 8; storage::VisitPhysical of
  // `type` names the element type). A table source proves it from the
  // vectors it reads, and a bare column keeps its source's width
  // through projections, joins, partitions and group-by keys. Every
  // other column, computed or aggregated, is 8 bytes wide.
  size_t width = 8;
};

// The element type a ColumnSet::Visit callback's pointer `P` points to.
template <typename P>
using ElementOf = std::remove_cv_t<std::remove_pointer_t<P>>;

// The error a value too wide for its column's physical width raises.
Status WidthOverflow(const ColumnMeta& meta, int64_t value);

// dst[i] = src[i] for n values, converting S to the column's element
// type D. A value D cannot hold fails with Internal naming `meta`'s
// column (WidthOverflow) instead of being truncated; the check is
// compiled out where every S fits in D.
template <typename S, typename D>
Status CopyToWidth(const S* src, size_t n, D* dst, const ColumnMeta& meta) {
  if constexpr (std::is_same_v<S, D>) {
    if (n > 0) std::memcpy(dst, src, n * sizeof(D));
    return Status::OK();
  } else if constexpr (std::in_range<D>(std::numeric_limits<S>::min()) &&
                       std::in_range<D>(std::numeric_limits<S>::max())) {
    for (size_t i = 0; i < n; ++i) dst[i] = static_cast<D>(src[i]);
    return Status::OK();
  } else {
    bool fits = true;
    for (size_t i = 0; i < n; ++i) {
      const D v = static_cast<D>(src[i]);
      dst[i] = v;
      fits &= static_cast<int64_t>(v) == static_cast<int64_t>(src[i]);
    }
    if (fits) return Status::OK();
    size_t bad = 0;
    while (std::in_range<D>(src[bad])) ++bad;
    return WidthOverflow(meta, static_cast<int64_t>(src[bad]));
  }
}

class ColumnSet {
 public:
  ColumnSet() = default;
  explicit ColumnSet(std::vector<ColumnMeta> meta)
      : meta_(std::move(meta)), columns_(meta_.size()) {}

  ColumnSet(const ColumnSet& other);
  ColumnSet& operator=(const ColumnSet& other);
  ColumnSet(ColumnSet&& other) noexcept { *this = std::move(other); }
  ColumnSet& operator=(ColumnSet&& other) noexcept {
    meta_ = std::move(other.meta_);
    columns_ = std::move(other.columns_);
    rows_ = std::exchange(other.rows_, 0);
    capacity_ = std::exchange(other.capacity_, 0);
    return *this;
  }

  size_t num_columns() const { return meta_.size(); }
  size_t num_rows() const { return rows_; }

  const ColumnMeta& meta(size_t c) const { return meta_[c]; }
  const std::vector<ColumnMeta>& metas() const { return meta_; }

  // Column c's values; T must be its physical element type
  // (storage::VisitPhysical of its meta).
  template <typename T>
  T* data(size_t c) {
    RAPID_DCHECK(sizeof(T) == meta_[c].width);
    return reinterpret_cast<T*>(columns_[c].get());
  }
  template <typename T>
  const T* data(size_t c) const {
    RAPID_DCHECK(sizeof(T) == meta_[c].width);
    return reinterpret_cast<const T*>(columns_[c].get());
  }

  // Calls fn(data<T>(c)) with column c's physical element type T.
  template <typename Fn>
  decltype(auto) Visit(size_t c, Fn&& fn) {
    return storage::VisitPhysical(meta_[c].width, meta_[c].type, [&](auto t) {
      return fn(data<decltype(t)>(c));
    });
  }
  template <typename Fn>
  decltype(auto) Visit(size_t c, Fn&& fn) const {
    return storage::VisitPhysical(meta_[c].width, meta_[c].type, [&](auto t) {
      return fn(data<decltype(t)>(c));
    });
  }

  // Sets the row count to n. Rows past the old count are
  // uninitialized; growing past the capacity at least doubles it, so
  // row-at-a-time growth stays amortized O(1).
  void Resize(size_t n) {
    if (n > capacity_) Reserve(std::max(n, 2 * capacity_));
    rows_ = n;
  }
  // Makes room for n rows without changing the row count.
  void Reserve(size_t n);

  // Appends one row. A value its column's width cannot hold appends
  // nothing and returns Internal (WidthOverflow).
  Status AppendRow(const std::vector<int64_t>& values);

  // Appends all rows of `other` (schemas, widths included, must match
  // positionally).
  void Append(const ColumnSet& other);

  int64_t Value(size_t row, size_t col) const {
    return Visit(col, [row](const auto* v) -> int64_t { return v[row]; });
  }

  // Column c widened to int64.
  std::vector<int64_t> Values(size_t c) const;

  // Decodes a decimal column value to double using its DSB scale.
  double Decimal(size_t row, size_t col) const;

  // Bytes per row the DMS moves for all columns, or for `cols`: the
  // sum of their physical widths.
  size_t RowBytes() const {
    size_t bytes = 0;
    for (const ColumnMeta& m : meta_) bytes += m.width;
    return bytes;
  }
  size_t RowBytes(const std::vector<size_t>& cols) const {
    size_t bytes = 0;
    for (size_t c : cols) bytes += meta_[c].width;
    return bytes;
  }

  Result<size_t> IndexOf(const std::string& name) const {
    for (size_t c = 0; c < meta_.size(); ++c) {
      if (meta_[c].name == name) return c;
    }
    return Status::NotFound("no column named '" + name + "'");
  }

 private:
  struct Free {
    void operator()(uint8_t* p) const { std::free(p); }
  };
  using Buffer = std::unique_ptr<uint8_t[], Free>;

  std::vector<ColumnMeta> meta_;
  std::vector<Buffer> columns_;  // capacity_ values of meta_[c].width each
  size_t rows_ = 0;
  size_t capacity_ = 0;
};

}  // namespace rapid::core

#endif  // RAPID_CORE_QEF_COLUMN_SET_H_
