// Tile: the unit of transfer between the relation accessor and
// operators (Section 4.1): N >= 64 rows of one or more columns,
// resident in DMEM during processing. All rows of a tile are consumed
// at once by vectorized execution (Section 5.4).

#ifndef RAPID_CORE_QEF_TILE_H_
#define RAPID_CORE_QEF_TILE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "storage/data_type.h"

namespace rapid::core {

struct TileColumn {
  uint8_t* data = nullptr;          // DMEM pointer
  storage::DataType type = storage::DataType::kInt64;
  // Physical bytes per element (storage::VisitPhysical gives the
  // element type): a base-table scan tile carries its vector's width,
  // a tile loaded from an intermediate the ColumnMeta::width its
  // ColumnSet stores it at, and an operator's own output buffers are
  // int64, which AppendTile stores back at the meta's width.
  size_t width = 8;
  int dsb_scale = 0;                // for kDecimal columns

  // Run metadata of the encoded scan path: when the accessor expanded
  // this tile from DMS-staged RLE runs it leaves the staged (value,
  // length) arrays visible so predicates can evaluate once per run and
  // emit whole bit-vector spans. `run_values` holds num_runs values
  // packed at `width`; the lengths sum to exactly the tile's rows.
  // Zero num_runs means plain data (the common case).
  const uint8_t* run_values = nullptr;  // DMEM pointer (staging buffer)
  const uint32_t* run_lengths = nullptr;
  uint32_t num_runs = 0;

  // Calls fn(T{}) with the element type of `data`.
  template <typename Fn>
  decltype(auto) Visit(Fn&& fn) const {
    return storage::VisitPhysical(width, type, std::forward<Fn>(fn));
  }

  int64_t GetInt(size_t row) const {
    return Visit([&](auto t) -> int64_t {
      return reinterpret_cast<const decltype(t)*>(data)[row];
    });
  }
};

// Widening bulk copy: dst[i] = (int64) column[rids ? rids[i] : i],
// dispatching on the physical width once instead of per row.
inline void WidenColumn(const TileColumn& col, const uint32_t* rids,
                        size_t n, int64_t* dst) {
  col.Visit([&](auto t) {
    const auto* src = reinterpret_cast<const decltype(t)*>(col.data);
    if (rids != nullptr) {
      for (size_t i = 0; i < n; ++i) dst[i] = src[rids[i]];
    } else {
      for (size_t i = 0; i < n; ++i) dst[i] = src[i];
    }
  });
}

struct Tile {
  size_t rows = 0;
  std::vector<TileColumn> columns;
  // Global row number of the tile's first row within its input, so
  // operators can form RIDs/row ids spanning the whole relation.
  uint64_t base_row = 0;
};

}  // namespace rapid::core

#endif  // RAPID_CORE_QEF_TILE_H_
