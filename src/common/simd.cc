#include "common/simd.h"

namespace rapid {

SimdLevel SimdLevelSupported() {
  static const SimdLevel supported = [] {
#if defined(__x86_64__) || defined(__i386__)
    if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
    return SimdLevel::kScalar;
  }();
  return supported;
}

}  // namespace rapid
