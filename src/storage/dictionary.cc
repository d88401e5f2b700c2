#include "storage/dictionary.h"

#include <algorithm>
#include <cstddef>

#include "common/logging.h"

namespace rapid::storage {

uint32_t Dictionary::GetOrInsert(std::string_view value) {
  auto it = code_of_.find(value);
  if (it != code_of_.end()) return it->second;
  const auto code = static_cast<uint32_t>(values_.size());
  values_.emplace_back(value);
  code_of_.emplace(values_.back(), code);
  // Keep the sorted index up to date with a positional insert.
  const size_t pos = LowerBound(value);
  sorted_.insert(sorted_.begin() + static_cast<ptrdiff_t>(pos), code);
  return code;
}

Result<uint32_t> Dictionary::Lookup(std::string_view value) const {
  auto it = code_of_.find(value);
  if (it == code_of_.end()) {
    return Status::NotFound("value not in dictionary");
  }
  return it->second;
}

const std::string& Dictionary::Decode(uint32_t code) const {
  RAPID_CHECK(code < values_.size());
  return values_[code];
}

size_t Dictionary::LowerBound(std::string_view key) const {
  size_t lo = 0;
  size_t hi = sorted_.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (std::string_view(values_[sorted_[mid]]) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

BitVector Dictionary::RangeLookup(std::string_view lo, bool has_lo,
                                  std::string_view hi, bool has_hi) const {
  BitVector out(values_.size());
  const size_t begin = has_lo ? LowerBound(lo) : 0;
  for (size_t i = begin; i < sorted_.size(); ++i) {
    const std::string& v = values_[sorted_[i]];
    if (has_hi && std::string_view(v) > hi) break;
    out.Set(sorted_[i]);
  }
  return out;
}

BitVector Dictionary::PrefixLookup(std::string_view prefix) const {
  BitVector out(values_.size());
  for (size_t i = LowerBound(prefix); i < sorted_.size(); ++i) {
    const std::string& v = values_[sorted_[i]];
    if (v.compare(0, prefix.size(), prefix) != 0) break;
    out.Set(sorted_[i]);
  }
  return out;
}

bool Dictionary::IsOrderPreserving() const {
  for (size_t i = 0; i < sorted_.size(); ++i) {
    if (sorted_[i] != i) return false;
  }
  return true;
}

}  // namespace rapid::storage
