#include "storage/table.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <type_traits>

#include "common/mix64.h"

namespace rapid::storage {

namespace {

// Open-addressing set of int64 keys: linear probing from a Mix64 slot,
// doubled at half load. One key value marks empty slots, so that value
// is tracked apart when it occurs.
class FlatInt64Set {
 public:
  void Insert(int64_t key) {
    if (key == kEmpty) {
      has_empty_key_ = true;
      return;
    }
    if ((size_ + 1) * 2 > slots_.size()) Grow();
    if (Place(key)) ++size_;
  }

  size_t size() const { return size_ + (has_empty_key_ ? 1 : 0); }

 private:
  static constexpr int64_t kEmpty = std::numeric_limits<int64_t>::min();

  // Returns true if `key` was absent.
  bool Place(int64_t key) {
    const size_t mask = slots_.size() - 1;
    for (size_t i = Mix64(static_cast<uint64_t>(key)) & mask;;
         i = (i + 1) & mask) {
      if (slots_[i] == key) return false;
      if (slots_[i] == kEmpty) {
        slots_[i] = key;
        return true;
      }
    }
  }

  void Grow() {
    std::vector<int64_t> old = std::move(slots_);
    slots_.assign(std::max<size_t>(1024, old.size() * 2), kEmpty);
    for (int64_t key : old) {
      if (key != kEmpty) Place(key);
    }
  }

  std::vector<int64_t> slots_;
  size_t size_ = 0;
  bool has_empty_key_ = false;
};

// Calls fn(data, rows) for column `col` of every chunk, with `data`
// typed at each vector's own physical width (widths differ per chunk).
template <typename Fn>
void ForEachVector(const std::vector<Partition>& partitions, size_t col,
                   Fn&& fn) {
  for (const Partition& part : partitions) {
    for (size_t ci = 0; ci < part.num_chunks(); ++ci) {
      const Vector& v = part.chunk(ci).column(col);
      VisitPhysical(v.width(), v.type(), [&](auto t) {
        fn(v.Data<decltype(t)>(), v.size());
      });
    }
  }
}

// Exact min/max/ndv of one column: a min/max pass, then a bitmap over
// [min, max] when it needs no more 64-bit words than the column has
// rows, else a flat hash set.
void ComputeColumnStats(const std::vector<Partition>& partitions, size_t col,
                        ColumnStats* st) {
  size_t rows = 0;
  int64_t lo = std::numeric_limits<int64_t>::max();
  int64_t hi = std::numeric_limits<int64_t>::lowest();
  ForEachVector(partitions, col, [&](const auto* data, size_t n) {
    using T = std::remove_cvref_t<decltype(*data)>;
    if (n == 0) return;
    T vlo = data[0];
    T vhi = data[0];
    for (size_t r = 1; r < n; ++r) {
      vlo = std::min(vlo, data[r]);
      vhi = std::max(vhi, data[r]);
    }
    lo = std::min<int64_t>(lo, vlo);
    hi = std::max<int64_t>(hi, vhi);
    rows += n;
  });
  if (rows == 0) {
    st->min = st->max = 0;
    st->ndv = 0;
    return;
  }
  st->min = lo;
  st->max = hi;
  // Unsigned difference: exact even when [min, max] spans all of int64.
  const uint64_t base = static_cast<uint64_t>(st->min);
  const uint64_t range = static_cast<uint64_t>(st->max) - base;
  if (range / 64 < rows) {
    std::vector<uint64_t> bits(range / 64 + 1, 0);
    ForEachVector(partitions, col, [&](const auto* data, size_t n) {
      for (size_t r = 0; r < n; ++r) {
        const uint64_t off =
            static_cast<uint64_t>(static_cast<int64_t>(data[r])) - base;
        bits[off >> 6] |= uint64_t{1} << (off & 63);
      }
    });
    uint64_t ndv = 0;
    for (uint64_t word : bits) ndv += static_cast<uint64_t>(std::popcount(word));
    st->ndv = ndv;
  } else {
    FlatInt64Set distinct;
    ForEachVector(partitions, col, [&](const auto* data, size_t n) {
      for (size_t r = 0; r < n; ++r) {
        distinct.Insert(static_cast<int64_t>(data[r]));
      }
    });
    st->ndv = distinct.size();
  }
}

}  // namespace

Chunk Chunk::Clone() const {
  Chunk out;
  out.columns_.reserve(columns_.size());
  for (const Vector& v : columns_) out.columns_.push_back(v.Clone());
  out.encodings_.reserve(encodings_.size());
  for (const std::unique_ptr<EncodedColumn>& enc : encodings_) {
    out.encodings_.push_back(
        enc == nullptr ? nullptr : std::make_unique<EncodedColumn>(*enc));
  }
  return out;
}

Partition Partition::Clone() const {
  Partition out;
  out.chunks_.reserve(chunks_.size());
  for (const Chunk& chunk : chunks_) out.chunks_.push_back(chunk.Clone());
  return out;
}

Table Table::Clone() const {
  Table out(name_, schema_);
  out.partitions_.reserve(partitions_.size());
  for (const Partition& part : partitions_) {
    out.partitions_.push_back(part.Clone());
  }
  for (size_t i = 0; i < dictionaries_.size(); ++i) {
    if (dictionaries_[i] != nullptr) {
      out.dictionaries_[i] = std::make_unique<Dictionary>(*dictionaries_[i]);
    }
  }
  out.stats_ = stats_;
  out.scn_ = scn_;
  out.rows_per_chunk_ = rows_per_chunk_;
  return out;
}

void Table::RecomputeStats() {
  for (size_t col = 0; col < schema_.num_fields(); ++col) {
    ComputeColumnStats(partitions_, col, &stats_[col]);
  }
}

}  // namespace rapid::storage
