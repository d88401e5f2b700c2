// Filter primitives (Section 5.4, Listing 1).
//
// Each primitive is a type-specialized, side-effect-free tight loop
// evaluating one predicate over a tile of column data. Mirroring the
// dpCore implementation, primitives come in two row-representation
// flavours:
//   * bit-vector: consume/produce a bit vector of qualifying rows
//     (the bvld/filteq loop of Listing 1), and
//   * RID-list: consume/produce a list of row offsets, chosen when
//     fewer than 1/32 of rows are expected to qualify.
//
// The C++ templates play the role of the paper's primitive generator
// framework: one template body is instantiated for every supported
// (operation, type) combination at compile time. Bodies dispatch to
// the SIMD kernel tables (simd.h) — the runtime stand-in for the
// dpCore's BVLD/FILT vector instructions — and every kernel tier
// writes whole BitVector words (never read-modify-write), so a
// BitVector reused across tiles of varying length can never leak
// stale bits.

#ifndef RAPID_PRIMITIVES_FILTER_H_
#define RAPID_PRIMITIVES_FILTER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/bitvector.h"
#include "primitives/simd.h"

namespace rapid::primitives {

// ---- Bit-vector flavour ----------------------------------------------------

// out[i] = (values[i] op constant), for all rows of the tile.
template <CmpOp op, typename T>
void FilterConstBv(const T* values, size_t n, T constant, BitVector* out) {
  out->Resize(n);
  if (n == 0) return;
  if constexpr (simd::kHasKernelTables<T>) {
    simd::filter_kernels<T>().const_bv[static_cast<int>(op)](
        values, n, constant, out->mutable_words());
  } else {
    uint64_t* words = out->mutable_words();
    for (size_t i = 0; i < n; ++i) {
      const uint64_t bit = Compare<op, T>(values[i], constant) ? 1u : 0u;
      words[i >> 6] |= bit << (i & 63);
    }
  }
}

// values[i] in [lo, hi] — fused range predicate.
template <typename T>
void FilterBetweenBv(const T* values, size_t n, T lo, T hi, BitVector* out) {
  out->Resize(n);
  if (n == 0) return;
  if constexpr (simd::kHasKernelTables<T>) {
    simd::filter_kernels<T>().between_bv(values, n, lo, hi,
                                         out->mutable_words());
  } else {
    uint64_t* words = out->mutable_words();
    for (size_t i = 0; i < n; ++i) {
      const uint64_t bit = (values[i] >= lo && values[i] <= hi) ? 1u : 0u;
      words[i >> 6] |= bit << (i & 63);
    }
  }
}

// Column-vs-column comparison (e.g. l_commitdate < l_receiptdate).
template <CmpOp op, typename T>
void FilterColColBv(const T* left, const T* right, size_t n, BitVector* out) {
  out->Resize(n);
  if (n == 0) return;
  if constexpr (simd::kHasKernelTables<T>) {
    simd::filter_kernels<T>().colcol_bv[static_cast<int>(op)](
        left, right, n, out->mutable_words());
  } else {
    uint64_t* words = out->mutable_words();
    for (size_t i = 0; i < n; ++i) {
      const uint64_t bit = Compare<op, T>(left[i], right[i]) ? 1u : 0u;
      words[i >> 6] |= bit << (i & 63);
    }
  }
}

// 1 iff `code` is a member of the code bitmap: negative codes and
// codes at or beyond its size never are.
template <typename T>
inline uint64_t DictSetMember(T code, const BitVector& qualifying_codes) {
  if constexpr (std::is_signed_v<T>) {
    if (code < 0) return 0;
  }
  const auto c = static_cast<uint64_t>(code);
  return c < qualifying_codes.size() && qualifying_codes.Test(c);
}

// Dictionary-set membership: qualifying dictionary codes are given as
// a bitmap over the code space (produced by Dictionary::RangeLookup /
// PrefixLookup or an IN list). Codes come at any width: negative and
// out-of-bitmap values never qualify. Bitmap probes stay scalar (a
// gather per row), but the output is built as whole words like every
// other bit-vector kernel.
template <typename T>
void FilterDictSetBv(const T* codes, size_t n,
                     const BitVector& qualifying_codes, BitVector* out) {
  out->Resize(n);
  uint64_t* words = out->mutable_words();
  for (size_t i = 0; i < n; i += 64) {
    const size_t end = std::min(n, i + 64);
    uint64_t bits = 0;
    for (size_t r = i; r < end; ++r) {
      bits |= DictSetMember(codes[r], qualifying_codes) << (r - i);
    }
    words[i / 64] = bits;
  }
}

// ---- RID-list flavour ------------------------------------------------------

namespace detail {
// RID kernels run the bit-vector kernel over fixed-size chunks and
// extract set bits — the vectorized predicate pays for itself and the
// extraction preserves ascending RID order.
inline constexpr size_t kRidChunkRows = 1024;
}  // namespace detail

// Appends qualifying row offsets to `rids`; used when the expected
// selectivity is below 1/32 (Section 5.4).
template <CmpOp op, typename T>
void FilterConstRid(const T* values, size_t n, T constant,
                    std::vector<uint32_t>* rids) {
  if constexpr (simd::kHasKernelTables<T>) {
    const auto fn = simd::filter_kernels<T>().const_bv[static_cast<int>(op)];
    uint64_t words[detail::kRidChunkRows / 64];
    for (size_t base = 0; base < n; base += detail::kRidChunkRows) {
      const size_t rows = std::min(detail::kRidChunkRows, n - base);
      fn(values + base, rows, constant, words);
      const size_t num_words = (rows + 63) / 64;
      for (size_t wi = 0; wi < num_words; ++wi) {
        uint64_t w = words[wi];
        while (w != 0) {
          rids->push_back(static_cast<uint32_t>(
              base + wi * 64 + static_cast<size_t>(__builtin_ctzll(w))));
          w &= (w - 1);
        }
      }
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      if (Compare<op, T>(values[i], constant)) {
        rids->push_back(static_cast<uint32_t>(i));
      }
    }
  }
}

// ---- Selection-vector refinement -------------------------------------------
//
// Once few rows of a tile still qualify, a predicate chain turns its
// bit vector into an ascending RID list (the selection vector) and
// each later predicate tests only the listed rows of the tile column:
// the Listing 1 loop, whose bvld fetches only the set rows. Each kernel
// keeps rids[i] iff its row passes, compacts the list in place (order
// stays ascending) and returns the new count. Values compare exactly
// as the bit-vector kernels do; the caller range-checks constants
// against a narrow element type first, as it does for them.

// Crossovers: a chain switches to the RID list before a predicate of
// a kind once at most rows / k of a tile's rows still qualify. Each k
// is the densest density 1/k at which bench_primitives' rid_vs_bv
// table has the RID kernel at least 1.25x faster than the bit-vector
// kernel plus And on AVX2 (bloom.h holds the Bloom probe's); the
// margin keeps a near-tie from flipping with noise or with columns
// that no longer sit in L1. The compare kernels' AVX2 twins test 8-32
// rows per instruction, so they keep the bit vector until the
// selection is sparse; the in-set bitmap probe is scalar either way.
inline constexpr size_t kConstRidCrossover = 8;
inline constexpr size_t kBetweenRidCrossover = 16;
inline constexpr size_t kColColRidCrossover = 16;
inline constexpr size_t kDictSetRidCrossover = 2;

// Calls fn(std::integral_constant<CmpOp, op>{}): resolves a runtime
// op to a kernel template once, outside the row loop.
template <typename Fn>
decltype(auto) VisitCmpOp(CmpOp op, Fn&& fn) {
  switch (op) {
    case CmpOp::kEq:
      return fn(std::integral_constant<CmpOp, CmpOp::kEq>{});
    case CmpOp::kNe:
      return fn(std::integral_constant<CmpOp, CmpOp::kNe>{});
    case CmpOp::kLt:
      return fn(std::integral_constant<CmpOp, CmpOp::kLt>{});
    case CmpOp::kLe:
      return fn(std::integral_constant<CmpOp, CmpOp::kLe>{});
    case CmpOp::kGt:
      return fn(std::integral_constant<CmpOp, CmpOp::kGt>{});
    case CmpOp::kGe:
      break;
  }
  return fn(std::integral_constant<CmpOp, CmpOp::kGe>{});
}

// Keeps rids[i] iff values[rids[i]] op constant.
template <CmpOp op, typename T>
size_t FilterConstRidRefine(const T* values, T constant, uint32_t* rids,
                            size_t n) {
  size_t out = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = rids[i];
    rids[out] = r;
    out += Compare<op, T>(values[r], constant) ? 1 : 0;
  }
  return out;
}

// Keeps rids[i] iff values[rids[i]] lies in [lo, hi].
template <typename T>
size_t FilterBetweenRidRefine(const T* values, T lo, T hi, uint32_t* rids,
                              size_t n) {
  size_t out = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = rids[i];
    const T v = values[r];
    rids[out] = r;
    out += (v >= lo && v <= hi) ? 1 : 0;
  }
  return out;
}

// Keeps rids[i] iff left[r] op right[r] for r = rids[i], both sides
// compared as int64 — what the bit-vector path computes when the two
// element types differ (both widen first) and, for one element type,
// the same verdict as comparing natively.
template <CmpOp op, typename L, typename R>
size_t FilterColColRidRefine(const L* left, const R* right, uint32_t* rids,
                             size_t n) {
  size_t out = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = rids[i];
    rids[out] = r;
    out += Compare<op, int64_t>(static_cast<int64_t>(left[r]),
                                static_cast<int64_t>(right[r]))
               ? 1
               : 0;
  }
  return out;
}

// Keeps rids[i] iff codes[rids[i]] is a member of `qualifying_codes`
// (negative and out-of-bitmap codes never are, as in FilterDictSetBv).
template <typename T>
size_t FilterDictSetRidRefine(const T* codes,
                              const BitVector& qualifying_codes,
                              uint32_t* rids, size_t n) {
  size_t out = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = rids[i];
    rids[out] = r;
    out += DictSetMember(codes[r], qualifying_codes);
  }
  return out;
}

}  // namespace rapid::primitives

#endif  // RAPID_PRIMITIVES_FILTER_H_
