// ColumnSet: a DRAM-resident materialized intermediate result.
//
// Task boundaries materialize to DRAM (Section 5.2); a ColumnSet is
// what a task writes and the next task's relation accessor reads.
// The host keeps every value as int64. Each column's meta carries its
// logical type, DSB scale and physical width: the bytes per value the
// DMS moves when the column is partitioned, stored or loaded into a
// DMEM tile, proven to hold every value the column can carry.

#ifndef RAPID_CORE_QEF_COLUMN_SET_H_
#define RAPID_CORE_QEF_COLUMN_SET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.h"
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

class ColumnSet {
 public:
  ColumnSet() = default;
  explicit ColumnSet(std::vector<ColumnMeta> meta)
      : meta_(std::move(meta)), columns_(meta_.size()) {}

  size_t num_columns() const { return meta_.size(); }
  size_t num_rows() const { return columns_.empty() ? 0 : columns_[0].size(); }

  const ColumnMeta& meta(size_t c) const { return meta_[c]; }
  ColumnMeta& meta(size_t c) { return meta_[c]; }
  const std::vector<ColumnMeta>& metas() const { return meta_; }

  std::vector<int64_t>& column(size_t c) { return columns_[c]; }
  const std::vector<int64_t>& column(size_t c) const { return columns_[c]; }

  void AppendRow(const std::vector<int64_t>& values) {
    RAPID_DCHECK(values.size() == columns_.size());
    for (size_t c = 0; c < columns_.size(); ++c) {
      columns_[c].push_back(values[c]);
    }
  }

  // Appends all rows of `other` (schemas must match positionally).
  void Append(const ColumnSet& other) {
    RAPID_DCHECK(other.num_columns() == num_columns());
    for (size_t c = 0; c < columns_.size(); ++c) {
      columns_[c].insert(columns_[c].end(), other.columns_[c].begin(),
                         other.columns_[c].end());
    }
  }

  int64_t Value(size_t row, size_t col) const { return columns_[col][row]; }

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
  std::vector<ColumnMeta> meta_;
  std::vector<std::vector<int64_t>> columns_;
};

}  // namespace rapid::core

#endif  // RAPID_CORE_QEF_COLUMN_SET_H_
