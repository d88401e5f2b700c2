// Hash primitives: vectorized CRC32 hash-value generation over tiles,
// modeling the dpCore CRC32 instruction and the DMS hash engine.
// Bodies dispatch to the SIMD kernel tables (simd.h); the AVX2 tier
// batches the hardware crc32 instruction 4-way per tile. Hash values
// are identical at every tier — join and partition placement never
// depends on the dispatch level.

#ifndef RAPID_PRIMITIVES_HASH_H_
#define RAPID_PRIMITIVES_HASH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "common/crc32.h"
#include "primitives/simd.h"

namespace rapid::primitives {

// out[i] = CRC32(keys[i]), one tight loop per tile.
template <typename T>
void HashTile(const T* keys, size_t n, uint32_t* out) {
  if constexpr (simd::kHasKernelTables<T>) {
    simd::hash_kernels<T>().tile(keys, n, out);
  } else {
    for (size_t i = 0; i < n; ++i) {
      out[i] = Crc32U64(static_cast<uint64_t>(keys[i]));
    }
  }
}

// Chains another key column into existing hash values (multi-key
// joins / group-bys).
template <typename T>
void HashCombineTile(const T* keys, size_t n, uint32_t* inout) {
  if constexpr (simd::kHasKernelTables<T>) {
    simd::hash_kernels<T>().combine(keys, n, inout);
  } else {
    for (size_t i = 0; i < n; ++i) {
      inout[i] = Crc32Combine(inout[i], static_cast<uint64_t>(keys[i]));
    }
  }
}

// The key hash the partitioner, the partitioned join kernel and the
// group-by place rows by: rows [start, start + n) of the `ncols` key columns `cols`,
// chained CRC32 seeded 0xFFFFFFFF (one HashCombineTile per column,
// the values Crc32Combine gives row by row), shifted right by `shift`
// (the bits an upstream partitioning already spent; 0 for none).
inline void HashKeysTile(const int64_t* const* cols, size_t ncols,
                         size_t start, size_t n, int shift, uint32_t* out) {
  std::fill_n(out, n, 0xFFFFFFFFu);
  for (size_t c = 0; c < ncols; ++c) HashCombineTile(cols[c] + start, n, out);
  if (shift > 0) {
    for (size_t i = 0; i < n; ++i) out[i] >>= shift;
  }
}

}  // namespace rapid::primitives

#endif  // RAPID_PRIMITIVES_HASH_H_
