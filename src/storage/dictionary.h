// Dictionary encoding for fixed- and variable-length strings
// (Section 4.2). The dictionary supports updates (new values can be
// appended after initial load) and range/prefix lookups so that range
// and LIKE-prefix predicates can be evaluated directly on codes.
//
// Codes are assigned in insertion order (stable across updates); a
// sorted index over the values supports order-based lookups. A range
// or prefix query therefore yields a *set* of qualifying codes,
// returned as a bitmap over the code space — the filter primitives
// then test membership per row.

#ifndef RAPID_STORAGE_DICTIONARY_H_
#define RAPID_STORAGE_DICTIONARY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/bitvector.h"
#include "common/status.h"

namespace rapid::storage {

class Dictionary {
 public:
  Dictionary() = default;

  // Returns the code for `value`, inserting it if absent.
  uint32_t GetOrInsert(std::string_view value);

  // Returns the code for `value` or NotFound.
  Result<uint32_t> Lookup(std::string_view value) const;

  const std::string& Decode(uint32_t code) const;

  size_t size() const { return values_.size(); }

  // Bitmap over codes: bit c set iff lo <= values_[c] <= hi
  // (inclusive bounds; empty string for an unbounded side is expressed
  // via the `has_*` flags).
  BitVector RangeLookup(std::string_view lo, bool has_lo, std::string_view hi,
                        bool has_hi) const;

  // Bitmap over codes whose value starts with `prefix` (LIKE 'p%').
  BitVector PrefixLookup(std::string_view prefix) const;

  // True if codes currently compare in value order (no out-of-order
  // appends since load); order-preserving dictionaries let range
  // predicates compile to simple code comparisons.
  bool IsOrderPreserving() const;

 private:
  // Index of the first entry in sorted order whose value is >= `key`.
  size_t LowerBound(std::string_view key) const;

  // Transparent hash: code_of_ is probed with a string_view, without
  // building a temporary std::string per lookup.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::vector<std::string> values_;              // by code
  std::unordered_map<std::string, uint32_t, StringHash, std::equal_to<>>
      code_of_;
  std::vector<uint32_t> sorted_;                 // codes sorted by value
};

}  // namespace rapid::storage

#endif  // RAPID_STORAGE_DICTIONARY_H_
