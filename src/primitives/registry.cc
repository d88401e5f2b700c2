#include "primitives/registry.h"

#include <algorithm>
#include <cctype>

namespace rapid::primitives {

namespace {

std::string Upper(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return s;
}

}  // namespace

std::string PrimitiveCatalog::FilterName(const std::string& op, int width,
                                         bool rid_variant) {
  // bvflt: bit-vector filter; ridflt: RID-list filter. ub<N>: unsigned
  // binary of N bytes. cval: compare against a constant value.
  return std::string("rpdmpr_") + (rid_variant ? "ridflt" : "bvflt") + "_ub" +
         std::to_string(width) + "_OPT_TYPE_" + Upper(op) + "_cval";
}

PrimitiveCatalog::PrimitiveCatalog() {
  const char* cmp_ops[] = {"eq", "ne", "lt", "le", "gt", "ge"};
  const int widths[] = {1, 2, 4, 8};
  for (const char* op : cmp_ops) {
    for (int w : widths) {
      for (bool rid : {false, true}) {
        primitives_.push_back(
            PrimitiveInfo{FilterName(op, w, rid), "filter", op, w, rid});
      }
    }
  }
  const char* arith_ops[] = {"add", "sub", "mul"};
  for (const char* op : arith_ops) {
    for (int w : {4, 8}) {
      primitives_.push_back(PrimitiveInfo{
          std::string("rpdmpr_arith_ub") + std::to_string(w) + "_" + op,
          "arith", op, w, false});
    }
  }
  for (int w : {1, 2, 4, 8}) {
    primitives_.push_back(PrimitiveInfo{
        std::string("rpdmpr_crc32_ub") + std::to_string(w), "hash", "crc32",
        w, false});
  }
  const char* agg_ops[] = {"sum", "min", "max", "count"};
  for (const char* op : agg_ops) {
    for (int w : {4, 8}) {
      primitives_.push_back(PrimitiveInfo{
          std::string("rpdmpr_agg_ub") + std::to_string(w) + "_" + op, "agg",
          op, w, false});
    }
  }
  for (int w : {1, 2, 4, 8}) {
    primitives_.push_back(PrimitiveInfo{
        std::string("rpdmpr_rledec_ub") + std::to_string(w), "rle", "expand",
        w, false});
  }
  primitives_.push_back(PrimitiveInfo{"rpdmpr_compute_partition_map",
                                      "partition", "map", 0, false});
  primitives_.push_back(
      PrimitiveInfo{"swpart_partcol_ub4", "partition", "partcol", 4, false});
  primitives_.push_back(
      PrimitiveInfo{"swpart_partcol_ub8", "partition", "partcol", 8, false});
  // The row-slot scatter's typed stores, one per physical width.
  for (int w : {1, 2, 4, 8}) {
    primitives_.push_back(PrimitiveInfo{
        std::string("swpart_scatcol_ub") + std::to_string(w), "scatter",
        "scatcol", w, false});
  }
}

const PrimitiveCatalog& PrimitiveCatalog::Instance() {
  static const PrimitiveCatalog* catalog = new PrimitiveCatalog();
  return *catalog;
}

Result<PrimitiveInfo> PrimitiveCatalog::Find(const std::string& name) const {
  for (const PrimitiveInfo& info : primitives_) {
    if (info.name == name) return info;
  }
  return Status::NotFound("no primitive named '" + name + "'");
}

}  // namespace rapid::primitives
