// Primitive catalog: the compile-time equivalent of RAPID's primitive
// generator framework (Section 5.1).
//
// In the paper, primitives are defined via C-like templates; a
// generator emits one C function per supported (operation, input type,
// output type) combination, which is compiled into the binary. Here
// the C++ templates *are* the generator: this catalog enumerates every
// instantiated combination under the paper's naming convention
// (e.g. "rpdmpr_bvflt_ub4_OPT_TYPE_EQ_cval" in Listing 1). It is a
// name index only: no engine code looks a primitive up by name —
// operators call the typed wrappers (filter.h, agg.h, ...), which
// dispatch through the kernel tables (simd.h).

#ifndef RAPID_PRIMITIVES_REGISTRY_H_
#define RAPID_PRIMITIVES_REGISTRY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace rapid::primitives {

struct PrimitiveInfo {
  std::string name;      // generated function name
  std::string family;    // "filter", "arith", "hash", "agg", "partition"
  std::string operation; // "eq", "lt", "sum", ...
  int input_width = 0;   // bytes; 0 = width-independent
  bool rid_variant = false;  // RID-list flavour vs bit-vector flavour
};

class PrimitiveCatalog {
 public:
  static const PrimitiveCatalog& Instance();

  const std::vector<PrimitiveInfo>& primitives() const { return primitives_; }

  // Looks up a primitive by generated name.
  Result<PrimitiveInfo> Find(const std::string& name) const;

  // Name a filter primitive following the paper's convention, e.g.
  // FilterName("eq", 4, false) == "rpdmpr_bvflt_ub4_OPT_TYPE_EQ_cval".
  static std::string FilterName(const std::string& op, int width,
                                bool rid_variant);

 private:
  PrimitiveCatalog();
  std::vector<PrimitiveInfo> primitives_;
};

}  // namespace rapid::primitives

#endif  // RAPID_PRIMITIVES_REGISTRY_H_
