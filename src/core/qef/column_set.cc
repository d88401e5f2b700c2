#include "core/qef/column_set.h"

#include "storage/dsb.h"

namespace rapid::core {

Status WidthOverflow(const ColumnMeta& meta, int64_t value) {
  return Status::Internal("intermediate column '" + meta.name + "' holds " +
                          std::to_string(value) + ", which its " +
                          std::to_string(meta.width) +
                          "-byte width cannot hold");
}

ColumnSet::ColumnSet(const ColumnSet& other)
    : meta_(other.meta_), columns_(other.meta_.size()) {
  Reserve(other.rows_);
  rows_ = other.rows_;
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (rows_ > 0) {
      std::memcpy(columns_[c].get(), other.columns_[c].get(),
                  rows_ * meta_[c].width);
    }
  }
}

ColumnSet& ColumnSet::operator=(const ColumnSet& other) {
  if (this != &other) *this = ColumnSet(other);
  return *this;
}

void ColumnSet::Reserve(size_t n) {
  if (n <= capacity_) return;
  for (size_t c = 0; c < columns_.size(); ++c) {
    void* grown = std::realloc(columns_[c].get(), n * meta_[c].width);
    RAPID_CHECK(grown != nullptr);
    (void)columns_[c].release();
    columns_[c].reset(static_cast<uint8_t*>(grown));
  }
  capacity_ = n;
}

Status ColumnSet::AppendRow(const std::vector<int64_t>& values) {
  RAPID_DCHECK(values.size() == columns_.size());
  const size_t row = rows_;
  Resize(row + 1);
  for (size_t c = 0; c < columns_.size(); ++c) {
    const Status st = Visit(c, [&](auto* col) {
      return CopyToWidth(&values[c], 1, col + row, meta_[c]);
    });
    if (!st.ok()) {
      rows_ = row;
      return st;
    }
  }
  return Status::OK();
}

void ColumnSet::Append(const ColumnSet& other) {
  RAPID_DCHECK(other.num_columns() == num_columns());
  const size_t base = rows_;
  Resize(base + other.rows_);
  for (size_t c = 0; c < columns_.size(); ++c) {
    const size_t width = meta_[c].width;
    RAPID_CHECK(other.meta_[c].width == width);
    if (other.rows_ > 0) {
      std::memcpy(columns_[c].get() + base * width, other.columns_[c].get(),
                  other.rows_ * width);
    }
  }
}

std::vector<int64_t> ColumnSet::Values(size_t c) const {
  return Visit(c, [&](const auto* col) {
    return std::vector<int64_t>(col, col + rows_);
  });
}

double ColumnSet::Decimal(size_t row, size_t col) const {
  return static_cast<double>(Value(row, col)) /
         static_cast<double>(storage::Pow10(meta_[col].dsb_scale));
}

}  // namespace rapid::core
