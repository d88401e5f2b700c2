// Host SIMD capability detection and dispatch-level selection.
//
// The dpCore's database-specific vector instructions (BVLD, FILT,
// CRC32 — Section 5.4) are substituted on commodity CPUs by SIMD
// kernels in src/primitives/. This module decides which instruction-set
// tier those kernels dispatch to:
//
//   * kScalar — portable reference loops (always available; its
//               CRC32C still uses the crc32 instruction where the CPU
//               has one, through common/crc32.cc's dispatch),
//   * kAvx2   — AVX2: 256-bit predicate, aggregation and projection
//               kernels plus batched hardware CRC32C.
//
// The CPU's capabilities are probed once; the active tier is the
// config's `simd` field (RAPID_SIMD, common/config.h), always clamped
// to what the CPU supports. Every kernel tier is bit-identical, so
// flipping levels never changes results, only throughput.

#ifndef RAPID_COMMON_SIMD_H_
#define RAPID_COMMON_SIMD_H_

#include "common/config.h"

namespace rapid {

// Highest tier this CPU can execute (probed once).
SimdLevel SimdLevelSupported();

// Tier the primitive dispatch tables use right now.
inline SimdLevel SimdLevelActive() { return GetConfig().simd; }

}  // namespace rapid

#endif  // RAPID_COMMON_SIMD_H_
