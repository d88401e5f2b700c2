// Internal: overlay hooks the AVX2 translation unit exports.
//
// simd.cc builds the AVX2 tables by copying the scalar table and
// calling the matching overlay, which overwrites just the entries the
// AVX2 TU implements (simd_avx2.cc). The overlay functions themselves
// are compiled with BASELINE codegen — only the kernels they install
// live inside `#pragma GCC target` regions — so building the tables
// never executes an instruction the host may lack. On non-x86 builds
// every overlay is a no-op.

#ifndef RAPID_PRIMITIVES_SIMD_ISA_H_
#define RAPID_PRIMITIVES_SIMD_ISA_H_

#include "primitives/simd.h"

namespace rapid::primitives::simd {

#define RAPID_SIMD_FOR_EACH_TYPE(M) \
  M(int8_t)                         \
  M(uint8_t)                        \
  M(int16_t)                        \
  M(uint16_t)                       \
  M(int32_t)                        \
  M(uint32_t)                       \
  M(int64_t)                        \
  M(uint64_t)

#define RAPID_SIMD_DECLARE_OVERLAYS(T)     \
  void Avx2Overlay(FilterKernelTable<T>*); \
  void Avx2Overlay(AggKernelTable<T>*);    \
  void Avx2Overlay(ArithKernelTable<T>*);  \
  void Avx2Overlay(HashKernelTable<T>*);   \
  void Avx2Overlay(BloomKernelTable<T>*);  \
  void Avx2Overlay(RleKernelTable<T>*);

RAPID_SIMD_FOR_EACH_TYPE(RAPID_SIMD_DECLARE_OVERLAYS)
#undef RAPID_SIMD_DECLARE_OVERLAYS

void Avx2Overlay(PartitionKernelTable*);

}  // namespace rapid::primitives::simd

#endif  // RAPID_PRIMITIVES_SIMD_ISA_H_
