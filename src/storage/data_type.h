// Data types and schemas (Section 4.2).
//
// The DPU has no floating-point unit and strict alignment rules, so
// RAPID handles all common SQL types with fixed-width encodings:
// integers, DSB-encoded decimals (int64 mantissa + per-vector scale),
// dates as day numbers, and dictionary codes for strings. A DataType
// fixes the declared width; each vector then stores its values at the
// narrowest width that holds them (VisitPhysical below).

#ifndef RAPID_STORAGE_DATA_TYPE_H_
#define RAPID_STORAGE_DATA_TYPE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/status.h"

namespace rapid::storage {

enum class DataType : uint8_t {
  kInt8,
  kInt16,
  kInt32,
  kInt64,
  kDecimal,   // DSB: int64 mantissa; scale lives in the vector header
  kDate,      // days since 1970-01-01, int32
  kDictCode,  // dictionary code for a string column, uint32
};

inline size_t WidthOf(DataType type) {
  switch (type) {
    case DataType::kInt8:
      return 1;
    case DataType::kInt16:
      return 2;
    case DataType::kInt32:
    case DataType::kDate:
    case DataType::kDictCode:
      return 4;
    case DataType::kInt64:
    case DataType::kDecimal:
      return 8;
  }
  RAPID_CHECK(false);
}

// Physical widths (Section 4.2): a vector stores its values at 1, 2, 4
// or 8 bytes, never wider than WidthOf(type). Narrow widths hold signed
// elements; at 4 bytes a dictionary code keeps its declared uint32, and
// every other 4-byte vector is int32. Calls fn(T{}) with that element
// type T, so one generic lambda serves every width.
template <typename Fn>
decltype(auto) VisitPhysical(size_t width, DataType type, Fn&& fn) {
  switch (width) {
    case 1:
      return fn(int8_t{});
    case 2:
      return fn(int16_t{});
    case 4:
      if (type == DataType::kDictCode) return fn(uint32_t{});
      return fn(int32_t{});
    default:
      return fn(int64_t{});
  }
}

// True if `value` is representable at `width` bytes of `type`.
inline bool FitsWidth(int64_t value, size_t width, DataType type) {
  return VisitPhysical(width, type, [value](auto t) {
    using T = decltype(t);
    return static_cast<int64_t>(static_cast<T>(value)) == value;
  });
}

// Narrowest width of `type` that holds every value in [lo, hi]; the
// declared width when none narrower does.
inline size_t NarrowestWidth(int64_t lo, int64_t hi, DataType type) {
  const size_t declared = WidthOf(type);
  for (size_t w = 1; w < declared; w *= 2) {
    if (FitsWidth(lo, w, type) && FitsWidth(hi, w, type)) return w;
  }
  return declared;
}

inline const char* NameOf(DataType type) {
  switch (type) {
    case DataType::kInt8:
      return "int8";
    case DataType::kInt16:
      return "int16";
    case DataType::kInt32:
      return "int32";
    case DataType::kInt64:
      return "int64";
    case DataType::kDecimal:
      return "decimal";
    case DataType::kDate:
      return "date";
    case DataType::kDictCode:
      return "dict";
  }
  return "unknown";
}

struct Field {
  std::string name;
  DataType type = DataType::kInt64;
};

class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields) : fields_(std::move(fields)) {}

  size_t num_fields() const { return fields_.size(); }
  const Field& field(size_t i) const { return fields_[i]; }
  const std::vector<Field>& fields() const { return fields_; }

  // Index of the field named `name`, or NotFound.
  Result<size_t> IndexOf(const std::string& name) const {
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (fields_[i].name == name) return i;
    }
    return Status::NotFound("no column named '" + name + "'");
  }

  size_t RowWidth() const {
    size_t w = 0;
    for (const Field& f : fields_) w += WidthOf(f.type);
    return w;
  }

 private:
  std::vector<Field> fields_;
};

}  // namespace rapid::storage

#endif  // RAPID_STORAGE_DATA_TYPE_H_
