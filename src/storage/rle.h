// Run-length encoding, one of the lightweight compressions RAPID
// stacks on column vectors (Section 4.2).

#ifndef RAPID_STORAGE_RLE_H_
#define RAPID_STORAGE_RLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rapid::storage {

struct RleRun {
  int64_t value;
  uint32_t length;
};

struct RleColumn {
  std::vector<RleRun> runs;
  size_t num_rows = 0;
};

RleColumn RleEncode(const int64_t* values, size_t n);
std::vector<int64_t> RleDecode(const RleColumn& column);

// Typed encode: splits runs at the column's native width without
// first widening every row into an int64 copy (run values widen once,
// per run). Bit-identical to RleEncode over the widened array.
template <typename T>
RleColumn RleEncodeTyped(const T* values, size_t n) {
  RleColumn out;
  out.num_rows = n;
  for (size_t i = 0; i < n;) {
    size_t j = i + 1;
    while (j < n && values[j] == values[i] && j - i < UINT32_MAX) ++j;
    out.runs.push_back(
        RleRun{static_cast<int64_t>(values[i]), static_cast<uint32_t>(j - i)});
    i = j;
  }
  return out;
}

// Typed decode into a caller-provided buffer of column.num_rows
// elements at the column's native width. Callers on the scan path
// lease the buffer from a TileBufferPool instead of growing a heap
// vector per decode.
template <typename T>
void RleDecode(const RleColumn& column, T* out) {
  for (const RleRun& run : column.runs) {
    const T value = static_cast<T>(run.value);
    for (uint32_t i = 0; i < run.length; ++i) *out++ = value;
  }
}

// Random access into the compressed form (binary search over runs).
int64_t RleValueAt(const RleColumn& column, size_t row);

}  // namespace rapid::storage

#endif  // RAPID_STORAGE_RLE_H_
