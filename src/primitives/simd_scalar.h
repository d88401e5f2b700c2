// Scalar reference kernels backing the level-0 dispatch tables, plus
// the whole-word builders every tier uses for unaligned tile tails.
//
// Everything here is `static` (internal linkage) ON PURPOSE: this
// header is included both by simd.cc (baseline codegen) and by the
// AVX2 translation unit, which compiles under a `#pragma GCC target`
// region. With external linkage the instantiations would share one
// COMDAT symbol and the linker could keep the ISA-compiled copy,
// silently executing e.g. AVX2 instructions on the scalar path.
// Internal linkage gives each TU its own copy compiled with its own
// target flags.

#ifndef RAPID_PRIMITIVES_SIMD_SCALAR_H_
#define RAPID_PRIMITIVES_SIMD_SCALAR_H_

#include <cstddef>
#include <cstdint>

#include "common/crc32.h"
#include "primitives/agg.h"
#include "primitives/bloom.h"
#include "primitives/simd.h"

namespace rapid::primitives::simd {

// ---- Whole-word builders (rows <= 64; bits >= rows stay zero) -------------

template <CmpOp op, typename T>
static inline uint64_t CmpConstWord(const T* values, size_t rows, T constant) {
  uint64_t w = 0;
  for (size_t i = 0; i < rows; ++i) {
    w |= static_cast<uint64_t>(Compare<op, T>(values[i], constant)) << i;
  }
  return w;
}

template <CmpOp op, typename T>
static inline uint64_t CmpColColWord(const T* left, const T* right,
                                     size_t rows) {
  uint64_t w = 0;
  for (size_t i = 0; i < rows; ++i) {
    w |= static_cast<uint64_t>(Compare<op, T>(left[i], right[i])) << i;
  }
  return w;
}

template <typename T>
static inline uint64_t BetweenWord(const T* values, size_t rows, T lo, T hi) {
  uint64_t w = 0;
  for (size_t i = 0; i < rows; ++i) {
    w |= static_cast<uint64_t>(values[i] >= lo && values[i] <= hi) << i;
  }
  return w;
}

// ---- Filter kernels -------------------------------------------------------

template <CmpOp op, typename T>
static void ScalarFilterConstBv(const T* values, size_t n, T constant,
                                uint64_t* words) {
  size_t i = 0, w = 0;
  for (; i + 64 <= n; i += 64, ++w) {
    words[w] = CmpConstWord<op, T>(values + i, 64, constant);
  }
  if (i < n) words[w] = CmpConstWord<op, T>(values + i, n - i, constant);
}

template <CmpOp op, typename T>
static void ScalarFilterColColBv(const T* left, const T* right, size_t n,
                                 uint64_t* words) {
  size_t i = 0, w = 0;
  for (; i + 64 <= n; i += 64, ++w) {
    words[w] = CmpColColWord<op, T>(left + i, right + i, 64);
  }
  if (i < n) words[w] = CmpColColWord<op, T>(left + i, right + i, n - i);
}

template <typename T>
static void ScalarFilterBetweenBv(const T* values, size_t n, T lo, T hi,
                                  uint64_t* words) {
  size_t i = 0, w = 0;
  for (; i + 64 <= n; i += 64, ++w) {
    words[w] = BetweenWord<T>(values + i, 64, lo, hi);
  }
  if (i < n) words[w] = BetweenWord<T>(values + i, n - i, lo, hi);
}

// ---- Aggregation kernels --------------------------------------------------

template <typename T>
static void ScalarAggTile(const T* values, size_t n, AggState* state) {
  for (size_t i = 0; i < n; ++i) {
    const int64_t v = static_cast<int64_t>(values[i]);
    state->sum += v;
    if (v < state->min) state->min = v;
    if (v > state->max) state->max = v;
  }
  state->count += n;
}

template <typename T>
static void ScalarAggTileSelected(const T* values, const uint64_t* words,
                                  size_t num_words, AggState* state) {
  for (size_t wi = 0; wi < num_words; ++wi) {
    uint64_t w = words[wi];
    while (w != 0) {
      const size_t row = wi * 64 + static_cast<size_t>(__builtin_ctzll(w));
      const int64_t v = static_cast<int64_t>(values[row]);
      state->sum += v;
      if (v < state->min) state->min = v;
      if (v > state->max) state->max = v;
      ++state->count;
      w &= (w - 1);
    }
  }
}

// ---- Hash kernels ---------------------------------------------------------
// Per-row Crc32U64/Crc32Combine; these dispatch to the hardware CRC32
// instruction independently of the SIMD level (identical values either
// way), so "scalar" here means one call per row, not software CRC.

template <typename T>
static void ScalarHashTile(const T* keys, size_t n, uint32_t* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = Crc32U64(static_cast<uint64_t>(keys[i]));
  }
}

template <typename T>
static void ScalarHashCombineTile(const T* keys, size_t n, uint32_t* inout) {
  for (size_t i = 0; i < n; ++i) {
    inout[i] = Crc32Combine(inout[i], static_cast<uint64_t>(keys[i]));
  }
}

// ---- Bloom probe kernels --------------------------------------------------

template <typename T>
static inline uint64_t BloomProbeWord(const T* values, size_t rows,
                                      const uint64_t* blocks,
                                      uint32_t block_mask) {
  uint64_t w = 0;
  for (size_t i = 0; i < rows; ++i) {
    const uint64_t h = Mix64(static_cast<uint64_t>(values[i]));
    const uint64_t* block =
        blocks + BloomBlockIndex(h, block_mask) * kBloomLanes;
    w |= static_cast<uint64_t>(
             BloomBlockTest(block, static_cast<uint32_t>(h)))
         << i;
  }
  return w;
}

template <typename T>
static void ScalarBloomProbeBv(const T* values, size_t n,
                               const uint64_t* blocks, uint32_t block_mask,
                               uint64_t* words) {
  size_t i = 0, w = 0;
  for (; i + 64 <= n; i += 64, ++w) {
    words[w] = BloomProbeWord<T>(values + i, 64, blocks, block_mask);
  }
  if (i < n) {
    words[w] = BloomProbeWord<T>(values + i, n - i, blocks, block_mask);
  }
}

template <typename T>
static size_t ScalarBloomProbeRid(const T* values, const uint64_t* blocks,
                                  uint32_t block_mask, uint32_t* rids,
                                  size_t n) {
  size_t out = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = rids[i];
    const uint64_t h = Mix64(static_cast<uint64_t>(values[r]));
    const uint64_t* block =
        blocks + BloomBlockIndex(h, block_mask) * kBloomLanes;
    rids[out] = r;
    out += BloomBlockTest(block, static_cast<uint32_t>(h)) ? 1 : 0;
  }
  return out;
}

// ---- RLE expansion kernels ------------------------------------------------

template <typename T>
static void ScalarRleExpand(const T* run_values, const uint32_t* run_lengths,
                            size_t num_runs, T* out) {
  for (size_t r = 0; r < num_runs; ++r) {
    const T value = run_values[r];
    const uint32_t length = run_lengths[r];
    for (uint32_t i = 0; i < length; ++i) out[i] = value;
    out += length;
  }
}

// ---- Arithmetic kernels ---------------------------------------------------

template <ArithOp op, typename T>
static void ScalarArithColCol(const T* left, const T* right, size_t n,
                              T* out) {
  for (size_t i = 0; i < n; ++i) out[i] = Apply<op, T>(left[i], right[i]);
}

template <ArithOp op, typename T>
static void ScalarArithColConst(const T* values, size_t n, T constant,
                                T* out) {
  for (size_t i = 0; i < n; ++i) out[i] = Apply<op, T>(values[i], constant);
}

}  // namespace rapid::primitives::simd

#endif  // RAPID_PRIMITIVES_SIMD_SCALAR_H_
