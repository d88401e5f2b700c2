// Aggregation primitives: tight loops computing SUM/MIN/MAX/COUNT over
// a tile, optionally restricted to rows selected by a bit vector.
// Bodies dispatch to the SIMD kernel tables (simd.h); every tier is
// bit-identical (integer sums commute under wraparound, min/max are
// order-independent).

#ifndef RAPID_PRIMITIVES_AGG_H_
#define RAPID_PRIMITIVES_AGG_H_

#include <cstddef>
#include <cstdint>

#include "common/bitvector.h"
#include "primitives/simd.h"

namespace rapid::primitives {

enum class AggOp { kSum, kMin, kMax, kCount };

struct AggState {
  int64_t sum = 0;
  int64_t min = INT64_MAX;
  int64_t max = INT64_MIN;
  uint64_t count = 0;

  void Merge(const AggState& other) {
    sum += other.sum;
    if (other.min < min) min = other.min;
    if (other.max > max) max = other.max;
    count += other.count;
  }
};

template <typename T>
void AggTile(const T* values, size_t n, AggState* state) {
  if constexpr (simd::kHasKernelTables<T>) {
    simd::agg_kernels<T>().tile(values, n, state);
  } else {
    for (size_t i = 0; i < n; ++i) {
      const int64_t v = static_cast<int64_t>(values[i]);
      state->sum += v;
      if (v < state->min) state->min = v;
      if (v > state->max) state->max = v;
    }
    state->count += n;
  }
}

template <typename T>
void AggTileSelected(const T* values, const BitVector& selected,
                     AggState* state) {
  if constexpr (simd::kHasKernelTables<T>) {
    simd::agg_kernels<T>().tile_selected(values, selected.words(),
                                         selected.num_words(), state);
  } else {
    for (size_t wi = 0; wi < selected.num_words(); ++wi) {
      uint64_t w = selected.words()[wi];
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
}

// Grouped aggregation: one int64 state column per aggregate, indexed
// by group id. A column starts at AggInit(op) per group; AggGrouped
// folds values[i] into states[groups[i]] for every row, or only for
// the rows set in `selected` when it is non-null. COUNT ignores
// `values` (may be null). The function is switched once per call, not
// per row. Stays scalar: the state update is a data-dependent scatter
// and AVX2 has no scatter.
constexpr int64_t AggInit(AggOp op) {
  return op == AggOp::kMin   ? INT64_MAX
         : op == AggOp::kMax ? INT64_MIN
                             : 0;
}

template <AggOp op>
inline void AggUpdate(int64_t* state, const int64_t* values, size_t row) {
  if constexpr (op == AggOp::kSum) {
    *state += values[row];
  } else if constexpr (op == AggOp::kMin) {
    if (values[row] < *state) *state = values[row];
  } else if constexpr (op == AggOp::kMax) {
    if (values[row] > *state) *state = values[row];
  } else {
    ++*state;
  }
}

template <AggOp op>
void AggGrouped(const int64_t* values, const uint32_t* groups, size_t n,
                const BitVector* selected, int64_t* states) {
  if (selected == nullptr) {
    for (size_t i = 0; i < n; ++i) {
      AggUpdate<op>(&states[groups[i]], values, i);
    }
    return;
  }
  for (size_t wi = 0; wi < selected->num_words(); ++wi) {
    uint64_t w = selected->words()[wi];
    while (w != 0) {
      const size_t row = wi * 64 + static_cast<size_t>(__builtin_ctzll(w));
      AggUpdate<op>(&states[groups[row]], values, row);
      w &= (w - 1);
    }
  }
}

// Same, with the function chosen at run time: one switch per call.
inline void AggGrouped(AggOp op, const int64_t* values,
                       const uint32_t* groups, size_t n,
                       const BitVector* selected, int64_t* states) {
  switch (op) {
    case AggOp::kSum:
      AggGrouped<AggOp::kSum>(values, groups, n, selected, states);
      break;
    case AggOp::kMin:
      AggGrouped<AggOp::kMin>(values, groups, n, selected, states);
      break;
    case AggOp::kMax:
      AggGrouped<AggOp::kMax>(values, groups, n, selected, states);
      break;
    case AggOp::kCount:
      AggGrouped<AggOp::kCount>(values, groups, n, selected, states);
      break;
  }
}

}  // namespace rapid::primitives

#endif  // RAPID_PRIMITIVES_AGG_H_
