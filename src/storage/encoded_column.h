// Chunk-resident RLE topping of a column vector (Section 4.2).
//
// The loader's encoding pass materializes, for every vector where RLE
// wins, a run-split representation next to the plain array: run
// values packed at the vector's physical width plus 4-byte run lengths. The plain Vector
// stays the backing store (updates, stats, host fallback and random
// access keep using it); the EncodedColumn is the *transfer*
// representation — the relation accessor programs DMS descriptors
// over these bytes instead of the flat array, so a scan moves
// `encoded_bytes()` over the DRAM interface instead of
// `num_rows * width`.

#ifndef RAPID_STORAGE_ENCODED_COLUMN_H_
#define RAPID_STORAGE_ENCODED_COLUMN_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rapid::storage {

struct EncodedColumn {
  // num_runs * width bytes: each run's value at the vector's physical
  // width, back to back (what the DMS streams).
  std::vector<uint8_t> values;
  // Per-run repeat counts; sums to num_rows.
  std::vector<uint32_t> lengths;
  // Per-run start rows (exclusive prefix sum of lengths). Host-side
  // descriptor-programming metadata only — never transferred.
  std::vector<uint32_t> starts;
  size_t num_rows = 0;
  size_t width = 0;

  size_t num_runs() const { return lengths.size(); }

  // DRAM bytes a full-vector scan moves: run values + run lengths.
  size_t encoded_bytes() const { return values.size() + lengths.size() * 4; }

  // Index of the run whose span covers `row`.
  size_t RunIndexOf(size_t row) const {
    auto it = std::upper_bound(starts.begin(), starts.end(),
                               static_cast<uint32_t>(row));
    return static_cast<size_t>(it - starts.begin()) - 1;
  }
};

}  // namespace rapid::storage

#endif  // RAPID_STORAGE_ENCODED_COLUMN_H_
