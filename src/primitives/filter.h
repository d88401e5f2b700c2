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

// Refines a previous predicate's bit vector: for rows whose bit is
// set, re-evaluate; others stay unqualified. This is the
// rpdmpr_bvflt loop of Listing 1 (bvld gathers the next qualifying
// value, filteq tests it); here the predicate word is computed
// vectorized and ANDed with the input word — identical bits, since
// kernel tail bits above n are zero exactly like MaskTail's invariant.
template <CmpOp op, typename T>
void FilterConstBvRefine(const T* values, size_t n, T constant,
                         const BitVector& in, BitVector* out) {
  FilterConstBv<op, T>(values, n, constant, out);
  uint64_t* words = out->mutable_words();
  const size_t num_words = out->num_words();
  const size_t shared = std::min(num_words, in.num_words());
  for (size_t wi = 0; wi < shared; ++wi) words[wi] &= in.words()[wi];
  for (size_t wi = shared; wi < num_words; ++wi) words[wi] = 0;
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
  const auto member = [&](T code) -> uint64_t {
    if constexpr (std::is_signed_v<T>) {
      if (code < 0) return 0;
    }
    const auto c = static_cast<uint64_t>(code);
    return c < qualifying_codes.size() && qualifying_codes.Test(c);
  };
  for (size_t i = 0; i < n; i += 64) {
    const size_t end = std::min(n, i + 64);
    uint64_t bits = 0;
    for (size_t r = i; r < end; ++r) bits |= member(codes[r]) << (r - i);
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

// Refines an existing RID list in place: keeps rid r iff
// values[r] op constant. `values` is indexed by the rids (a gathered
// tile), i.e. values[i] corresponds to rids[i].
template <CmpOp op, typename T>
size_t FilterGatheredRid(const T* values, T constant,
                         std::vector<uint32_t>* rids) {
  const size_t n = rids->size();
  size_t out = 0;
  if constexpr (simd::kHasKernelTables<T>) {
    const auto fn = simd::filter_kernels<T>().const_bv[static_cast<int>(op)];
    uint64_t words[detail::kRidChunkRows / 64];
    for (size_t base = 0; base < n; base += detail::kRidChunkRows) {
      const size_t rows = std::min(detail::kRidChunkRows, n - base);
      fn(values + base, rows, constant, words);
      const size_t num_words = (rows + 63) / 64;
      for (size_t wi = 0; wi < num_words; ++wi) {
        uint64_t w = words[wi];
        // In-place compaction is safe: `out` never overtakes the row
        // being read (out <= base + wi*64 + bit always holds).
        while (w != 0) {
          const size_t row =
              base + wi * 64 + static_cast<size_t>(__builtin_ctzll(w));
          (*rids)[out++] = (*rids)[row];
          w &= (w - 1);
        }
      }
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      const bool keep = Compare<op, T>(values[i], constant);
      (*rids)[out] = (*rids)[i];
      out += keep ? 1 : 0;
    }
  }
  rids->resize(out);
  return out;
}

}  // namespace rapid::primitives

#endif  // RAPID_PRIMITIVES_FILTER_H_
