// AVX2 kernel tier — the BVLD/FILT/CRC32 substitution (Section 5.4,
// Listing 1): 256-bit predicate evaluation producing BitVector words
// directly, plus aggregation, arithmetic projection, RLE expansion,
// Bloom probe, batched CRC32C hash and partition-map kernels. Kernels
// and their explicit instantiations live inside a `#pragma GCC target`
// region (the function-level equivalent of crc32.cc's dispatch idiom,
// extended to templates) so their codegen gets the AVX2 flags; the
// 4-way histogram and the overlay functions below are baseline code,
// and the overlays only install pointers, so building the tables
// executes no AVX2 instruction.
//
// Mask-building per element width (rows per 64-bit BitVector word):
//   *  8-bit: _mm256_movemask_epi8 -> 32 bits/vec, 2 vecs/word;
//   * 16-bit: compare pairs, _mm256_packs_epi16 + permute4x64(0xD8)
//             (packs interleaves 128-bit lanes; the permute restores
//             row order), movemask_epi8 -> 32 bits per 2 vecs;
//   * 32-bit: movemask_ps -> 8 bits/vec, 8 vecs/word;
//   * 64-bit: movemask_pd -> 4 bits/vec, 16 vecs/word.
// Unsigned ordered compares XOR the sign bit of both operands and use
// the signed compare. ne/le/ge complement the eq/gt/lt word; tails
// (n & 63) use the masked scalar word builders, so tail bits above n
// are always zero.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "primitives/agg.h"
#include "primitives/simd.h"
#include "primitives/simd_isa.h"
#include "primitives/simd_scalar.h"

#if defined(__x86_64__)
#define RAPID_SIMD_X86_64 1
#endif

#if defined(RAPID_SIMD_X86_64)

#pragma GCC push_options
#pragma GCC target("avx2")
#include <immintrin.h>

namespace rapid::primitives::simd::avx2_impl {

// ---- Per-type vector traits ----------------------------------------------

template <typename T>
struct V;

static inline __m256i Load256(const void* p) {
  return _mm256_loadu_si256(static_cast<const __m256i*>(p));
}

template <>
struct V<int8_t> {
  static constexpr int kStepRows = 32;
  using Vec = __m256i;
  static inline Vec Bcast(int8_t c) { return _mm256_set1_epi8(c); }
  static inline Vec Load(const int8_t* p) { return Load256(p); }
  static inline uint64_t MaskEq(Vec a, Vec b) {
    return static_cast<uint32_t>(_mm256_movemask_epi8(_mm256_cmpeq_epi8(a, b)));
  }
  static inline uint64_t MaskGt(Vec a, Vec b) {
    return static_cast<uint32_t>(_mm256_movemask_epi8(_mm256_cmpgt_epi8(a, b)));
  }
};

template <>
struct V<uint8_t> {
  static constexpr int kStepRows = 32;
  using Vec = __m256i;
  static inline Vec Flip(Vec v) {
    return _mm256_xor_si256(v, _mm256_set1_epi8(static_cast<char>(0x80)));
  }
  static inline Vec Bcast(uint8_t c) {
    return Flip(_mm256_set1_epi8(static_cast<char>(c)));
  }
  static inline Vec Load(const uint8_t* p) { return Flip(Load256(p)); }
  static inline uint64_t MaskEq(Vec a, Vec b) { return V<int8_t>::MaskEq(a, b); }
  static inline uint64_t MaskGt(Vec a, Vec b) { return V<int8_t>::MaskGt(a, b); }
};

// 16-bit compares span two vectors so the packed mask covers 32 rows.
struct Vec16Pair {
  __m256i a, b;
};

static inline uint64_t Pack16Masks(__m256i m0, __m256i m1) {
  __m256i packed = _mm256_packs_epi16(m0, m1);
  packed = _mm256_permute4x64_epi64(packed, 0xD8);  // _MM_SHUFFLE(3,1,2,0)
  return static_cast<uint32_t>(_mm256_movemask_epi8(packed));
}

template <>
struct V<int16_t> {
  static constexpr int kStepRows = 32;
  using Vec = Vec16Pair;
  static inline Vec Bcast(int16_t c) {
    const __m256i v = _mm256_set1_epi16(c);
    return {v, v};
  }
  static inline Vec Load(const int16_t* p) {
    return {Load256(p), Load256(p + 16)};
  }
  static inline uint64_t MaskEq(Vec x, Vec y) {
    return Pack16Masks(_mm256_cmpeq_epi16(x.a, y.a),
                       _mm256_cmpeq_epi16(x.b, y.b));
  }
  static inline uint64_t MaskGt(Vec x, Vec y) {
    return Pack16Masks(_mm256_cmpgt_epi16(x.a, y.a),
                       _mm256_cmpgt_epi16(x.b, y.b));
  }
};

template <>
struct V<uint16_t> {
  static constexpr int kStepRows = 32;
  using Vec = Vec16Pair;
  static inline __m256i Flip(__m256i v) {
    return _mm256_xor_si256(v, _mm256_set1_epi16(static_cast<short>(0x8000)));
  }
  static inline Vec Bcast(uint16_t c) {
    const __m256i v = Flip(_mm256_set1_epi16(static_cast<short>(c)));
    return {v, v};
  }
  static inline Vec Load(const uint16_t* p) {
    return {Flip(Load256(p)), Flip(Load256(p + 16))};
  }
  static inline uint64_t MaskEq(Vec x, Vec y) { return V<int16_t>::MaskEq(x, y); }
  static inline uint64_t MaskGt(Vec x, Vec y) { return V<int16_t>::MaskGt(x, y); }
};

template <>
struct V<int32_t> {
  static constexpr int kStepRows = 8;
  using Vec = __m256i;
  static inline Vec Bcast(int32_t c) { return _mm256_set1_epi32(c); }
  static inline Vec Load(const int32_t* p) { return Load256(p); }
  static inline uint64_t MaskEq(Vec a, Vec b) {
    return static_cast<uint32_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(a, b))));
  }
  static inline uint64_t MaskGt(Vec a, Vec b) {
    return static_cast<uint32_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(a, b))));
  }
};

template <>
struct V<uint32_t> {
  static constexpr int kStepRows = 8;
  using Vec = __m256i;
  static inline Vec Flip(Vec v) {
    return _mm256_xor_si256(v,
                            _mm256_set1_epi32(static_cast<int32_t>(0x80000000u)));
  }
  static inline Vec Bcast(uint32_t c) {
    return Flip(_mm256_set1_epi32(static_cast<int32_t>(c)));
  }
  static inline Vec Load(const uint32_t* p) { return Flip(Load256(p)); }
  static inline uint64_t MaskEq(Vec a, Vec b) { return V<int32_t>::MaskEq(a, b); }
  static inline uint64_t MaskGt(Vec a, Vec b) { return V<int32_t>::MaskGt(a, b); }
};

template <>
struct V<int64_t> {
  static constexpr int kStepRows = 4;
  using Vec = __m256i;
  static inline Vec Bcast(int64_t c) { return _mm256_set1_epi64x(c); }
  static inline Vec Load(const int64_t* p) { return Load256(p); }
  static inline uint64_t MaskEq(Vec a, Vec b) {
    return static_cast<uint32_t>(
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(a, b))));
  }
  static inline uint64_t MaskGt(Vec a, Vec b) {
    return static_cast<uint32_t>(
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(a, b))));
  }
};

template <>
struct V<uint64_t> {
  static constexpr int kStepRows = 4;
  using Vec = __m256i;
  static inline Vec Flip(Vec v) {
    return _mm256_xor_si256(v, _mm256_set1_epi64x(INT64_MIN));
  }
  static inline Vec Bcast(uint64_t c) {
    return Flip(_mm256_set1_epi64x(static_cast<int64_t>(c)));
  }
  static inline Vec Load(const uint64_t* p) { return Flip(Load256(p)); }
  static inline uint64_t MaskEq(Vec a, Vec b) { return V<int64_t>::MaskEq(a, b); }
  static inline uint64_t MaskGt(Vec a, Vec b) { return V<int64_t>::MaskGt(a, b); }
};

// ---- Whole-word drivers ---------------------------------------------------

template <CmpOp op, typename T>
static inline uint64_t ConstWord64(const T* p, const typename V<T>::Vec c) {
  using VT = V<T>;
  uint64_t bits = 0;
  for (int k = 0; k < 64 / VT::kStepRows; ++k) {
    const T* q = p + k * VT::kStepRows;
    uint64_t m;
    if constexpr (op == CmpOp::kEq || op == CmpOp::kNe) {
      m = VT::MaskEq(VT::Load(q), c);
    } else if constexpr (op == CmpOp::kGt || op == CmpOp::kLe) {
      m = VT::MaskGt(VT::Load(q), c);
    } else {
      m = VT::MaskGt(c, VT::Load(q));
    }
    bits |= m << (k * VT::kStepRows);
  }
  if constexpr (op == CmpOp::kNe || op == CmpOp::kLe || op == CmpOp::kGe) {
    bits = ~bits;
  }
  return bits;
}

template <CmpOp op, typename T>
static inline uint64_t ColColWord64(const T* a, const T* b) {
  using VT = V<T>;
  uint64_t bits = 0;
  for (int k = 0; k < 64 / VT::kStepRows; ++k) {
    const T* qa = a + k * VT::kStepRows;
    const T* qb = b + k * VT::kStepRows;
    uint64_t m;
    if constexpr (op == CmpOp::kEq || op == CmpOp::kNe) {
      m = VT::MaskEq(VT::Load(qa), VT::Load(qb));
    } else if constexpr (op == CmpOp::kGt || op == CmpOp::kLe) {
      m = VT::MaskGt(VT::Load(qa), VT::Load(qb));
    } else {
      m = VT::MaskGt(VT::Load(qb), VT::Load(qa));
    }
    bits |= m << (k * VT::kStepRows);
  }
  if constexpr (op == CmpOp::kNe || op == CmpOp::kLe || op == CmpOp::kGe) {
    bits = ~bits;
  }
  return bits;
}

// ---- Filter kernels -------------------------------------------------------

template <CmpOp op, typename T>
void FilterConstBv(const T* values, size_t n, T constant, uint64_t* words) {
  const typename V<T>::Vec c = V<T>::Bcast(constant);
  size_t i = 0, w = 0;
  for (; i + 64 <= n; i += 64, ++w) {
    words[w] = ConstWord64<op, T>(values + i, c);
  }
  if (i < n) words[w] = CmpConstWord<op, T>(values + i, n - i, constant);
}

template <CmpOp op, typename T>
void FilterColColBv(const T* left, const T* right, size_t n, uint64_t* words) {
  size_t i = 0, w = 0;
  for (; i + 64 <= n; i += 64, ++w) {
    words[w] = ColColWord64<op, T>(left + i, right + i);
  }
  if (i < n) words[w] = CmpColColWord<op, T>(left + i, right + i, n - i);
}

template <typename T>
void FilterBetweenBv(const T* values, size_t n, T lo, T hi, uint64_t* words) {
  using VT = V<T>;
  const typename VT::Vec vlo = VT::Bcast(lo);
  const typename VT::Vec vhi = VT::Bcast(hi);
  size_t i = 0, w = 0;
  for (; i + 64 <= n; i += 64, ++w) {
    // in [lo, hi]  ==  !(v < lo || v > hi)
    uint64_t below = 0, above = 0;
    for (int k = 0; k < 64 / VT::kStepRows; ++k) {
      const T* q = values + i + k * VT::kStepRows;
      const typename VT::Vec v = VT::Load(q);
      below |= VT::MaskGt(vlo, v) << (k * VT::kStepRows);
      above |= VT::MaskGt(v, vhi) << (k * VT::kStepRows);
    }
    words[w] = ~(below | above);
  }
  if (i < n) words[w] = BetweenWord<T>(values + i, n - i, lo, hi);
}

#define RAPID_AVX2_INSTANTIATE_FILTER(T)                                      \
  template void FilterConstBv<CmpOp::kEq, T>(const T*, size_t, T, uint64_t*); \
  template void FilterConstBv<CmpOp::kNe, T>(const T*, size_t, T, uint64_t*); \
  template void FilterConstBv<CmpOp::kLt, T>(const T*, size_t, T, uint64_t*); \
  template void FilterConstBv<CmpOp::kLe, T>(const T*, size_t, T, uint64_t*); \
  template void FilterConstBv<CmpOp::kGt, T>(const T*, size_t, T, uint64_t*); \
  template void FilterConstBv<CmpOp::kGe, T>(const T*, size_t, T, uint64_t*); \
  template void FilterColColBv<CmpOp::kEq, T>(const T*, const T*, size_t,     \
                                              uint64_t*);                     \
  template void FilterColColBv<CmpOp::kNe, T>(const T*, const T*, size_t,     \
                                              uint64_t*);                     \
  template void FilterColColBv<CmpOp::kLt, T>(const T*, const T*, size_t,     \
                                              uint64_t*);                     \
  template void FilterColColBv<CmpOp::kLe, T>(const T*, const T*, size_t,     \
                                              uint64_t*);                     \
  template void FilterColColBv<CmpOp::kGt, T>(const T*, const T*, size_t,     \
                                              uint64_t*);                     \
  template void FilterColColBv<CmpOp::kGe, T>(const T*, const T*, size_t,     \
                                              uint64_t*);                     \
  template void FilterBetweenBv<T>(const T*, size_t, T, T, uint64_t*);

RAPID_SIMD_FOR_EACH_TYPE(RAPID_AVX2_INSTANTIATE_FILTER)
#undef RAPID_AVX2_INSTANTIATE_FILTER

// ---- Aggregation kernels --------------------------------------------------
// Lane-partial sums/mins/maxes reduced after the loop; integer
// addition commutes under wraparound and min/max are
// order-independent, so results are bit-identical to the scalar
// left-to-right loop. The vector accumulators are only merged when
// the vector loop ran — otherwise an empty tile would clamp
// state->min/max with the identity values.

static inline int64_t HSum64(__m256i v) {
  const __m128i s =
      _mm_add_epi64(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
  return static_cast<int64_t>(
      static_cast<uint64_t>(_mm_cvtsi128_si64(s)) +
      static_cast<uint64_t>(_mm_extract_epi64(s, 1)));
}

static inline int32_t HMin32(__m256i v) {
  __m128i m = _mm_min_epi32(_mm256_castsi256_si128(v),
                            _mm256_extracti128_si256(v, 1));
  m = _mm_min_epi32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(1, 0, 3, 2)));
  m = _mm_min_epi32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(m);
}

static inline int32_t HMax32(__m256i v) {
  __m128i m = _mm_max_epi32(_mm256_castsi256_si128(v),
                            _mm256_extracti128_si256(v, 1));
  m = _mm_max_epi32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(1, 0, 3, 2)));
  m = _mm_max_epi32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(m);
}

static inline uint32_t HMinU32(__m256i v) {
  __m128i m = _mm_min_epu32(_mm256_castsi256_si128(v),
                            _mm256_extracti128_si256(v, 1));
  m = _mm_min_epu32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(1, 0, 3, 2)));
  m = _mm_min_epu32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(2, 3, 0, 1)));
  return static_cast<uint32_t>(_mm_cvtsi128_si32(m));
}

static inline uint32_t HMaxU32(__m256i v) {
  __m128i m = _mm_max_epu32(_mm256_castsi256_si128(v),
                            _mm256_extracti128_si256(v, 1));
  m = _mm_max_epu32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(1, 0, 3, 2)));
  m = _mm_max_epu32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(2, 3, 0, 1)));
  return static_cast<uint32_t>(_mm_cvtsi128_si32(m));
}

static inline int64_t HMin64(__m256i v) {
  alignas(32) int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
  int64_t m = lanes[0];
  if (lanes[1] < m) m = lanes[1];
  if (lanes[2] < m) m = lanes[2];
  if (lanes[3] < m) m = lanes[3];
  return m;
}

static inline int64_t HMax64(__m256i v) {
  alignas(32) int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
  int64_t m = lanes[0];
  if (lanes[1] > m) m = lanes[1];
  if (lanes[2] > m) m = lanes[2];
  if (lanes[3] > m) m = lanes[3];
  return m;
}

void AggTileI32(const int32_t* values, size_t n, AggState* state) {
  size_t i = 0;
  if (n >= 8) {
    __m256i sum0 = _mm256_setzero_si256();
    __m256i sum1 = _mm256_setzero_si256();
    __m256i vmin = _mm256_set1_epi32(INT32_MAX);
    __m256i vmax = _mm256_set1_epi32(INT32_MIN);
    for (; i + 8 <= n; i += 8) {
      const __m256i v = Load256(values + i);
      sum0 = _mm256_add_epi64(
          sum0, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(v)));
      sum1 = _mm256_add_epi64(
          sum1, _mm256_cvtepi32_epi64(_mm256_extracti128_si256(v, 1)));
      vmin = _mm256_min_epi32(vmin, v);
      vmax = _mm256_max_epi32(vmax, v);
    }
    state->sum += HSum64(_mm256_add_epi64(sum0, sum1));
    const int64_t mn = HMin32(vmin);
    const int64_t mx = HMax32(vmax);
    if (mn < state->min) state->min = mn;
    if (mx > state->max) state->max = mx;
  }
  for (; i < n; ++i) {
    const int64_t v = static_cast<int64_t>(values[i]);
    state->sum += v;
    if (v < state->min) state->min = v;
    if (v > state->max) state->max = v;
  }
  state->count += n;
}

void AggTileU32(const uint32_t* values, size_t n, AggState* state) {
  size_t i = 0;
  if (n >= 8) {
    __m256i sum0 = _mm256_setzero_si256();
    __m256i sum1 = _mm256_setzero_si256();
    __m256i vmin = _mm256_set1_epi32(static_cast<int32_t>(0xFFFFFFFFu));
    __m256i vmax = _mm256_setzero_si256();
    for (; i + 8 <= n; i += 8) {
      const __m256i v = Load256(values + i);
      sum0 = _mm256_add_epi64(
          sum0, _mm256_cvtepu32_epi64(_mm256_castsi256_si128(v)));
      sum1 = _mm256_add_epi64(
          sum1, _mm256_cvtepu32_epi64(_mm256_extracti128_si256(v, 1)));
      vmin = _mm256_min_epu32(vmin, v);
      vmax = _mm256_max_epu32(vmax, v);
    }
    state->sum += HSum64(_mm256_add_epi64(sum0, sum1));
    const int64_t mn = static_cast<int64_t>(HMinU32(vmin));
    const int64_t mx = static_cast<int64_t>(HMaxU32(vmax));
    if (mn < state->min) state->min = mn;
    if (mx > state->max) state->max = mx;
  }
  for (; i < n; ++i) {
    const int64_t v = static_cast<int64_t>(values[i]);
    state->sum += v;
    if (v < state->min) state->min = v;
    if (v > state->max) state->max = v;
  }
  state->count += n;
}

void AggTileI64(const int64_t* values, size_t n, AggState* state) {
  size_t i = 0;
  if (n >= 4) {
    __m256i sum = _mm256_setzero_si256();
    __m256i vmin = _mm256_set1_epi64x(INT64_MAX);
    __m256i vmax = _mm256_set1_epi64x(INT64_MIN);
    for (; i + 4 <= n; i += 4) {
      const __m256i v = Load256(values + i);
      sum = _mm256_add_epi64(sum, v);
      vmin = _mm256_blendv_epi8(vmin, v, _mm256_cmpgt_epi64(vmin, v));
      vmax = _mm256_blendv_epi8(vmax, v, _mm256_cmpgt_epi64(v, vmax));
    }
    state->sum += HSum64(sum);
    const int64_t mn = HMin64(vmin);
    const int64_t mx = HMax64(vmax);
    if (mn < state->min) state->min = mn;
    if (mx > state->max) state->max = mx;
  }
  // GCC's auto-vectorizer warns about a hypothetical 2^61-iteration
  // pointer overflow here; n is bounded by the address space / 8.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Waggressive-loop-optimizations"
  for (; i < n; ++i) {
    const int64_t v = values[i];
    // Wrapping add (matches HSum64); avoids signed-overflow UB.
    state->sum = static_cast<int64_t>(static_cast<uint64_t>(state->sum) +
                                      static_cast<uint64_t>(v));
    if (v < state->min) state->min = v;
    if (v > state->max) state->max = v;
  }
#pragma GCC diagnostic pop
  state->count += n;
}

// AggState compares static_cast<int64_t>(value), so uint64 aggregation
// is the int64 kernel over the same bit patterns (int64_t and uint64_t
// may alias).
void AggTileU64(const uint64_t* values, size_t n, AggState* state) {
  AggTileI64(reinterpret_cast<const int64_t*>(values), n, state);
}

// Selected variants: all-ones words (fully-qualifying 64-row blocks)
// run through the vector tile kernel; sparse words use the scalar
// bit-scan. Row order is preserved either way.
#define RAPID_AVX2_AGG_SELECTED(NAME, T, FULL_TILE)                           \
  void NAME(const T* values, const uint64_t* words, size_t num_words,         \
            AggState* state) {                                                \
    for (size_t wi = 0; wi < num_words; ++wi) {                               \
      uint64_t w = words[wi];                                                 \
      if (w == ~uint64_t{0}) {                                                \
        FULL_TILE(values + wi * 64, 64, state);                               \
        continue;                                                             \
      }                                                                       \
      while (w != 0) {                                                        \
        const size_t row = wi * 64 + static_cast<size_t>(__builtin_ctzll(w)); \
        const int64_t v = static_cast<int64_t>(values[row]);                  \
        state->sum += v;                                                      \
        if (v < state->min) state->min = v;                                   \
        if (v > state->max) state->max = v;                                   \
        ++state->count;                                                       \
        w &= (w - 1);                                                         \
      }                                                                       \
    }                                                                         \
  }

RAPID_AVX2_AGG_SELECTED(AggTileSelectedI32, int32_t, AggTileI32)
RAPID_AVX2_AGG_SELECTED(AggTileSelectedU32, uint32_t, AggTileU32)
RAPID_AVX2_AGG_SELECTED(AggTileSelectedI64, int64_t, AggTileI64)
RAPID_AVX2_AGG_SELECTED(AggTileSelectedU64, uint64_t, AggTileU64)
#undef RAPID_AVX2_AGG_SELECTED

// ---- Arithmetic kernels ---------------------------------------------------
// Signed and unsigned add/sub/mul share instructions (two's-complement
// wraparound); 64-bit low multiply is emulated as
// lo(a)*lo(b) + ((lo(a)*hi(b) + hi(a)*lo(b)) << 32).

static inline __m256i MulLow64(__m256i a, __m256i b) {
  const __m256i ahi = _mm256_srli_epi64(a, 32);
  const __m256i bhi = _mm256_srli_epi64(b, 32);
  const __m256i albl = _mm256_mul_epu32(a, b);
  const __m256i albh = _mm256_mul_epu32(a, bhi);
  const __m256i ahbl = _mm256_mul_epu32(ahi, b);
  const __m256i hi = _mm256_slli_epi64(_mm256_add_epi64(albh, ahbl), 32);
  return _mm256_add_epi64(albl, hi);
}

template <typename T>
struct A;

struct A32 {
  static constexpr int kLanes = 8;
  template <ArithOp op>
  static inline __m256i Op(__m256i a, __m256i b) {
    if constexpr (op == ArithOp::kAdd) return _mm256_add_epi32(a, b);
    if constexpr (op == ArithOp::kSub) return _mm256_sub_epi32(a, b);
    if constexpr (op == ArithOp::kMul) return _mm256_mullo_epi32(a, b);
  }
};

struct A64 {
  static constexpr int kLanes = 4;
  template <ArithOp op>
  static inline __m256i Op(__m256i a, __m256i b) {
    if constexpr (op == ArithOp::kAdd) return _mm256_add_epi64(a, b);
    if constexpr (op == ArithOp::kSub) return _mm256_sub_epi64(a, b);
    if constexpr (op == ArithOp::kMul) return MulLow64(a, b);
  }
};

template <>
struct A<int32_t> : A32 {
  static inline __m256i Bcast(int32_t c) { return _mm256_set1_epi32(c); }
};
template <>
struct A<uint32_t> : A32 {
  static inline __m256i Bcast(uint32_t c) {
    return _mm256_set1_epi32(static_cast<int32_t>(c));
  }
};
template <>
struct A<int64_t> : A64 {
  static inline __m256i Bcast(int64_t c) { return _mm256_set1_epi64x(c); }
};
template <>
struct A<uint64_t> : A64 {
  static inline __m256i Bcast(uint64_t c) {
    return _mm256_set1_epi64x(static_cast<int64_t>(c));
  }
};

template <ArithOp op, typename T>
void ArithColCol(const T* left, const T* right, size_t n, T* out) {
  using AT = A<T>;
  size_t i = 0;
  for (; i + AT::kLanes <= n; i += AT::kLanes) {
    const __m256i v =
        AT::template Op<op>(Load256(left + i), Load256(right + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), v);
  }
  for (; i < n; ++i) out[i] = Apply<op, T>(left[i], right[i]);
}

template <ArithOp op, typename T>
void ArithColConst(const T* values, size_t n, T constant, T* out) {
  using AT = A<T>;
  const __m256i c = AT::Bcast(constant);
  size_t i = 0;
  for (; i + AT::kLanes <= n; i += AT::kLanes) {
    const __m256i v = AT::template Op<op>(Load256(values + i), c);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), v);
  }
  for (; i < n; ++i) out[i] = Apply<op, T>(values[i], constant);
}

#define RAPID_AVX2_INSTANTIATE_ARITH(T)                                        \
  template void ArithColCol<ArithOp::kAdd, T>(const T*, const T*, size_t, T*); \
  template void ArithColCol<ArithOp::kSub, T>(const T*, const T*, size_t, T*); \
  template void ArithColCol<ArithOp::kMul, T>(const T*, const T*, size_t, T*); \
  template void ArithColConst<ArithOp::kAdd, T>(const T*, size_t, T, T*);      \
  template void ArithColConst<ArithOp::kSub, T>(const T*, size_t, T, T*);      \
  template void ArithColConst<ArithOp::kMul, T>(const T*, size_t, T, T*);

RAPID_AVX2_INSTANTIATE_ARITH(int32_t)
RAPID_AVX2_INSTANTIATE_ARITH(uint32_t)
RAPID_AVX2_INSTANTIATE_ARITH(int64_t)
RAPID_AVX2_INSTANTIATE_ARITH(uint64_t)
#undef RAPID_AVX2_INSTANTIATE_ARITH

// ---- RLE expansion kernels ------------------------------------------------
// Broadcast the run value into a 256-bit register once per run, then
// fill with unaligned stores; rows past the last full vector store
// scalar. Covers all 8 widths (splat exists at every element size).

template <typename T>
void RleExpand(const T* run_values, const uint32_t* run_lengths,
               size_t num_runs, T* out) {
  constexpr size_t kLane = 32 / sizeof(T);
  for (size_t r = 0; r < num_runs; ++r) {
    const T value = run_values[r];
    const uint32_t length = run_lengths[r];
    __m256i splat;
    if constexpr (sizeof(T) == 1) {
      splat = _mm256_set1_epi8(static_cast<char>(value));
    } else if constexpr (sizeof(T) == 2) {
      splat = _mm256_set1_epi16(static_cast<short>(value));
    } else if constexpr (sizeof(T) == 4) {
      splat = _mm256_set1_epi32(static_cast<int32_t>(value));
    } else {
      splat = _mm256_set1_epi64x(static_cast<int64_t>(value));
    }
    size_t i = 0;
    for (; i + kLane <= length; i += kLane) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), splat);
    }
    for (; i < length; ++i) out[i] = value;
    out += length;
  }
}

#define RAPID_AVX2_INSTANTIATE_RLE(T) \
  template void RleExpand<T>(const T*, const uint32_t*, size_t, T*);
RAPID_SIMD_FOR_EACH_TYPE(RAPID_AVX2_INSTANTIATE_RLE)
#undef RAPID_AVX2_INSTANTIATE_RLE

// ---- Bloom probe kernels --------------------------------------------------
// One key per iteration: the eight salted lane positions come from one
// mullo/srli pair, widen to two 4x64 shift counts, and become bit
// masks via sllv; the block test is then two AND+CMPEQ pairs over the
// block's 64 bytes. Mix64 itself stays scalar (a serial multiply
// chain feeding the vector part). Exact integer math throughout, so
// the output is bit-identical to the scalar twin.

// BloomBlockTest of key `key`'s block, vectorized as above.
static inline bool BloomKeyHit(uint64_t key, const uint64_t* blocks,
                               uint32_t block_mask, __m256i salts) {
  const __m256i ones = _mm256_set1_epi64x(1);
  const uint64_t h = Mix64(key);
  const uint64_t* block = blocks + BloomBlockIndex(h, block_mask) * kBloomLanes;
  const __m256i pos32 = _mm256_srli_epi32(
      _mm256_mullo_epi32(
          _mm256_set1_epi32(static_cast<int32_t>(static_cast<uint32_t>(h))),
          salts),
      26);
  const __m256i pos_lo = _mm256_cvtepu32_epi64(_mm256_castsi256_si128(pos32));
  const __m256i pos_hi =
      _mm256_cvtepu32_epi64(_mm256_extracti128_si256(pos32, 1));
  const __m256i mask_lo = _mm256_sllv_epi64(ones, pos_lo);
  const __m256i mask_hi = _mm256_sllv_epi64(ones, pos_hi);
  const __m256i hit_lo =
      _mm256_cmpeq_epi64(_mm256_and_si256(Load256(block), mask_lo), mask_lo);
  const __m256i hit_hi = _mm256_cmpeq_epi64(
      _mm256_and_si256(Load256(block + 4), mask_hi), mask_hi);
  return _mm256_movemask_pd(_mm256_castsi256_pd(
             _mm256_and_si256(hit_lo, hit_hi))) == 0xF;
}

static inline __m256i BloomSalts() {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(kBloomSalt));
}

template <typename T>
void BloomProbeBv(const T* values, size_t n, const uint64_t* blocks,
                  uint32_t block_mask, uint64_t* words) {
  const __m256i salts = BloomSalts();
  const size_t num_words = (n + 63) / 64;
  for (size_t wi = 0; wi < num_words; ++wi) {
    const size_t base = wi * 64;
    const size_t rows = n - base < 64 ? n - base : 64;
    uint64_t w = 0;
    for (size_t i = 0; i < rows; ++i) {
      w |= static_cast<uint64_t>(BloomKeyHit(
               static_cast<uint64_t>(values[base + i]), blocks, block_mask,
               salts))
           << i;
    }
    words[wi] = w;
  }
}

template <typename T>
size_t BloomProbeRid(const T* values, const uint64_t* blocks,
                     uint32_t block_mask, uint32_t* rids, size_t n) {
  const __m256i salts = BloomSalts();
  size_t out = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = rids[i];
    rids[out] = r;
    out += BloomKeyHit(static_cast<uint64_t>(values[r]), blocks, block_mask,
                       salts)
               ? 1
               : 0;
  }
  return out;
}

#define RAPID_AVX2_INSTANTIATE_BLOOM(T)                                 \
  template void BloomProbeBv<T>(const T*, size_t, const uint64_t*,      \
                                uint32_t, uint64_t*);                   \
  template size_t BloomProbeRid<T>(const T*, const uint64_t*, uint32_t, \
                                   uint32_t*, size_t);
RAPID_SIMD_FOR_EACH_TYPE(RAPID_AVX2_INSTANTIATE_BLOOM)
#undef RAPID_AVX2_INSTANTIATE_BLOOM

// ---- Hash kernels ---------------------------------------------------------
// No vector CRC32 instruction exists, so these are the scalar crc32
// instruction batched: one per 8-byte key (AVX2 implies SSE4.2, which
// supplies it). Sign-extension of narrower signed keys matches the
// scalar static_cast<uint64_t>(keys[i]). The 4-way unroll hides the
// 3-cycle crc32 latency across independent rows. Seeds match
// Crc32U64 / Crc32Combine exactly.

template <typename T>
void HashTile(const T* keys, size_t n, uint32_t* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    out[i + 0] = static_cast<uint32_t>(__builtin_ia32_crc32di(
        0xFFFFFFFFu, static_cast<uint64_t>(keys[i + 0])));
    out[i + 1] = static_cast<uint32_t>(__builtin_ia32_crc32di(
        0xFFFFFFFFu, static_cast<uint64_t>(keys[i + 1])));
    out[i + 2] = static_cast<uint32_t>(__builtin_ia32_crc32di(
        0xFFFFFFFFu, static_cast<uint64_t>(keys[i + 2])));
    out[i + 3] = static_cast<uint32_t>(__builtin_ia32_crc32di(
        0xFFFFFFFFu, static_cast<uint64_t>(keys[i + 3])));
  }
  for (; i < n; ++i) {
    out[i] = static_cast<uint32_t>(
        __builtin_ia32_crc32di(0xFFFFFFFFu, static_cast<uint64_t>(keys[i])));
  }
}

template <typename T>
void HashCombineTile(const T* keys, size_t n, uint32_t* inout) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    inout[i + 0] = static_cast<uint32_t>(__builtin_ia32_crc32di(
        inout[i + 0], static_cast<uint64_t>(keys[i + 0])));
    inout[i + 1] = static_cast<uint32_t>(__builtin_ia32_crc32di(
        inout[i + 1], static_cast<uint64_t>(keys[i + 1])));
    inout[i + 2] = static_cast<uint32_t>(__builtin_ia32_crc32di(
        inout[i + 2], static_cast<uint64_t>(keys[i + 2])));
    inout[i + 3] = static_cast<uint32_t>(__builtin_ia32_crc32di(
        inout[i + 3], static_cast<uint64_t>(keys[i + 3])));
  }
  for (; i < n; ++i) {
    inout[i] = static_cast<uint32_t>(
        __builtin_ia32_crc32di(inout[i], static_cast<uint64_t>(keys[i])));
  }
}

#define RAPID_AVX2_INSTANTIATE_HASH(T)                    \
  template void HashTile<T>(const T*, size_t, uint32_t*); \
  template void HashCombineTile<T>(const T*, size_t, uint32_t*);
RAPID_SIMD_FOR_EACH_TYPE(RAPID_AVX2_INSTANTIATE_HASH)
#undef RAPID_AVX2_INSTANTIATE_HASH

// ---- Partition kernels ----------------------------------------------------

// (hash >> shift) & mask for 16 rows per iteration, packed to uint16
// with _mm256_packus_epi32 + permute4x64(0xD8) to restore row order.
// packus saturates above 0xFFFF, so larger masks (fanout > 65536,
// beyond the uint16 partition id space anyway) use the scalar loop.
void PartitionOfAvx2(const uint32_t* hashes, size_t n, int shift,
                     uint32_t mask, uint16_t* out) {
  if (mask > 0xFFFFu) {
    for (size_t i = 0; i < n; ++i) {
      out[i] = static_cast<uint16_t>((hashes[i] >> shift) & mask);
    }
    return;
  }
  const __m128i sh = _mm_cvtsi32_si128(shift);
  const __m256i m = _mm256_set1_epi32(static_cast<int32_t>(mask));
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i a =
        _mm256_and_si256(_mm256_srl_epi32(Load256(hashes + i), sh), m);
    const __m256i b =
        _mm256_and_si256(_mm256_srl_epi32(Load256(hashes + i + 8), sh), m);
    __m256i packed = _mm256_packus_epi32(a, b);
    packed = _mm256_permute4x64_epi64(packed, 0xD8);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), packed);
  }
  for (; i < n; ++i) {
    out[i] = static_cast<uint16_t>((hashes[i] >> shift) & mask);
  }
}

void BucketIndicesAvx2(const uint32_t* hashes, size_t n, uint32_t mask,
                       uint32_t* indices) {
  const __m256i m = _mm256_set1_epi32(static_cast<int32_t>(mask));
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(indices + i),
                        _mm256_and_si256(Load256(hashes + i), m));
  }
  for (; i < n; ++i) indices[i] = hashes[i] & mask;
}

}  // namespace rapid::primitives::simd::avx2_impl

#pragma GCC pop_options

#endif  // RAPID_SIMD_X86_64

namespace rapid::primitives::simd {

#if defined(RAPID_SIMD_X86_64)

namespace {

// Plain-C++ 4-way partial histogram, at baseline codegen outside the
// target region: four independent count arrays break the
// load-increment-store dependency on hot partitions, so it needs no
// vector instructions at all. Merged counts are order-independent, so
// the result is bit-identical.
void Histogram4Way(const uint16_t* partition_of, size_t n, uint32_t* counts,
                   size_t fanout) {
  if (n < 256 || fanout > 8192) {
    for (size_t i = 0; i < n; ++i) ++counts[partition_of[i]];
    return;
  }
  thread_local std::vector<uint32_t> scratch;
  scratch.assign(3 * fanout, 0);
  uint32_t* c1 = scratch.data();
  uint32_t* c2 = c1 + fanout;
  uint32_t* c3 = c2 + fanout;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    ++counts[partition_of[i + 0]];
    ++c1[partition_of[i + 1]];
    ++c2[partition_of[i + 2]];
    ++c3[partition_of[i + 3]];
  }
  for (; i < n; ++i) ++counts[partition_of[i]];
  for (size_t p = 0; p < fanout; ++p) counts[p] += c1[p] + c2[p] + c3[p];
}

}  // namespace

#define RAPID_AVX2_OVERLAY_FILTER(T)                                         \
  void Avx2Overlay(FilterKernelTable<T>* t) {                                \
    t->const_bv[static_cast<int>(CmpOp::kEq)] =                              \
        &avx2_impl::FilterConstBv<CmpOp::kEq, T>;                            \
    t->const_bv[static_cast<int>(CmpOp::kNe)] =                              \
        &avx2_impl::FilterConstBv<CmpOp::kNe, T>;                            \
    t->const_bv[static_cast<int>(CmpOp::kLt)] =                              \
        &avx2_impl::FilterConstBv<CmpOp::kLt, T>;                            \
    t->const_bv[static_cast<int>(CmpOp::kLe)] =                              \
        &avx2_impl::FilterConstBv<CmpOp::kLe, T>;                            \
    t->const_bv[static_cast<int>(CmpOp::kGt)] =                              \
        &avx2_impl::FilterConstBv<CmpOp::kGt, T>;                            \
    t->const_bv[static_cast<int>(CmpOp::kGe)] =                              \
        &avx2_impl::FilterConstBv<CmpOp::kGe, T>;                            \
    t->colcol_bv[static_cast<int>(CmpOp::kEq)] =                             \
        &avx2_impl::FilterColColBv<CmpOp::kEq, T>;                           \
    t->colcol_bv[static_cast<int>(CmpOp::kNe)] =                             \
        &avx2_impl::FilterColColBv<CmpOp::kNe, T>;                           \
    t->colcol_bv[static_cast<int>(CmpOp::kLt)] =                             \
        &avx2_impl::FilterColColBv<CmpOp::kLt, T>;                           \
    t->colcol_bv[static_cast<int>(CmpOp::kLe)] =                             \
        &avx2_impl::FilterColColBv<CmpOp::kLe, T>;                           \
    t->colcol_bv[static_cast<int>(CmpOp::kGt)] =                             \
        &avx2_impl::FilterColColBv<CmpOp::kGt, T>;                           \
    t->colcol_bv[static_cast<int>(CmpOp::kGe)] =                             \
        &avx2_impl::FilterColColBv<CmpOp::kGe, T>;                           \
    t->between_bv = &avx2_impl::FilterBetweenBv<T>;                          \
  }
RAPID_SIMD_FOR_EACH_TYPE(RAPID_AVX2_OVERLAY_FILTER)
#undef RAPID_AVX2_OVERLAY_FILTER

void Avx2Overlay(AggKernelTable<int8_t>* t) { (void)t; }
void Avx2Overlay(AggKernelTable<uint8_t>* t) { (void)t; }
void Avx2Overlay(AggKernelTable<int16_t>* t) { (void)t; }
void Avx2Overlay(AggKernelTable<uint16_t>* t) { (void)t; }
void Avx2Overlay(AggKernelTable<int32_t>* t) {
  t->tile = &avx2_impl::AggTileI32;
  t->tile_selected = &avx2_impl::AggTileSelectedI32;
}
void Avx2Overlay(AggKernelTable<uint32_t>* t) {
  t->tile = &avx2_impl::AggTileU32;
  t->tile_selected = &avx2_impl::AggTileSelectedU32;
}
void Avx2Overlay(AggKernelTable<int64_t>* t) {
  t->tile = &avx2_impl::AggTileI64;
  t->tile_selected = &avx2_impl::AggTileSelectedI64;
}
void Avx2Overlay(AggKernelTable<uint64_t>* t) {
  t->tile = &avx2_impl::AggTileU64;
  t->tile_selected = &avx2_impl::AggTileSelectedU64;
}

#define RAPID_AVX2_OVERLAY_ARITH(T)                                           \
  void Avx2Overlay(ArithKernelTable<T>* t) {                                  \
    t->colcol[static_cast<int>(ArithOp::kAdd)] =                              \
        &avx2_impl::ArithColCol<ArithOp::kAdd, T>;                            \
    t->colcol[static_cast<int>(ArithOp::kSub)] =                              \
        &avx2_impl::ArithColCol<ArithOp::kSub, T>;                            \
    t->colcol[static_cast<int>(ArithOp::kMul)] =                              \
        &avx2_impl::ArithColCol<ArithOp::kMul, T>;                            \
    t->colconst[static_cast<int>(ArithOp::kAdd)] =                            \
        &avx2_impl::ArithColConst<ArithOp::kAdd, T>;                          \
    t->colconst[static_cast<int>(ArithOp::kSub)] =                            \
        &avx2_impl::ArithColConst<ArithOp::kSub, T>;                          \
    t->colconst[static_cast<int>(ArithOp::kMul)] =                            \
        &avx2_impl::ArithColConst<ArithOp::kMul, T>;                          \
  }
RAPID_AVX2_OVERLAY_ARITH(int32_t)
RAPID_AVX2_OVERLAY_ARITH(uint32_t)
RAPID_AVX2_OVERLAY_ARITH(int64_t)
RAPID_AVX2_OVERLAY_ARITH(uint64_t)
#undef RAPID_AVX2_OVERLAY_ARITH
void Avx2Overlay(ArithKernelTable<int8_t>* t) { (void)t; }
void Avx2Overlay(ArithKernelTable<uint8_t>* t) { (void)t; }
void Avx2Overlay(ArithKernelTable<int16_t>* t) { (void)t; }
void Avx2Overlay(ArithKernelTable<uint16_t>* t) { (void)t; }

#define RAPID_AVX2_OVERLAY_HASH(T)                   \
  void Avx2Overlay(HashKernelTable<T>* t) {          \
    t->tile = &avx2_impl::HashTile<T>;               \
    t->combine = &avx2_impl::HashCombineTile<T>;     \
  }
RAPID_SIMD_FOR_EACH_TYPE(RAPID_AVX2_OVERLAY_HASH)
#undef RAPID_AVX2_OVERLAY_HASH

#define RAPID_AVX2_OVERLAY_BLOOM(T) \
  void Avx2Overlay(BloomKernelTable<T>* t) {     \
    t->probe_bv = &avx2_impl::BloomProbeBv<T>;    \
    t->probe_rid = &avx2_impl::BloomProbeRid<T>;  \
  }
RAPID_SIMD_FOR_EACH_TYPE(RAPID_AVX2_OVERLAY_BLOOM)
#undef RAPID_AVX2_OVERLAY_BLOOM

#define RAPID_AVX2_OVERLAY_RLE(T) \
  void Avx2Overlay(RleKernelTable<T>* t) { t->expand = &avx2_impl::RleExpand<T>; }
RAPID_SIMD_FOR_EACH_TYPE(RAPID_AVX2_OVERLAY_RLE)
#undef RAPID_AVX2_OVERLAY_RLE

void Avx2Overlay(PartitionKernelTable* t) {
  t->partition_of = &avx2_impl::PartitionOfAvx2;
  t->histogram = &Histogram4Way;
  t->bucket_indices = &avx2_impl::BucketIndicesAvx2;
}

#else  // !RAPID_SIMD_X86_64

#define RAPID_AVX2_OVERLAY_NOOP(T)                        \
  void Avx2Overlay(FilterKernelTable<T>* t) { (void)t; }  \
  void Avx2Overlay(AggKernelTable<T>* t) { (void)t; }     \
  void Avx2Overlay(ArithKernelTable<T>* t) { (void)t; }   \
  void Avx2Overlay(HashKernelTable<T>* t) { (void)t; }    \
  void Avx2Overlay(BloomKernelTable<T>* t) { (void)t; }   \
  void Avx2Overlay(RleKernelTable<T>* t) { (void)t; }
RAPID_SIMD_FOR_EACH_TYPE(RAPID_AVX2_OVERLAY_NOOP)
#undef RAPID_AVX2_OVERLAY_NOOP

void Avx2Overlay(PartitionKernelTable* t) { (void)t; }

#endif  // RAPID_SIMD_X86_64

}  // namespace rapid::primitives::simd
