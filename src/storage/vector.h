// Vector: a flat, fixed-width array of one column's data inside a
// chunk (Section 4.1), stored at its own physical width: the loader
// picks the narrowest width that holds the vector's values. The DPU
// sweet spot is 16 KiB per vector, which enables double buffering of
// DMS transfers.

#ifndef RAPID_STORAGE_VECTOR_H_
#define RAPID_STORAGE_VECTOR_H_

#include <cstdint>
#include <cstring>
#include <utility>

#include "common/buffer.h"
#include "common/logging.h"
#include "storage/data_type.h"

namespace rapid::storage {

class Vector {
 public:
  Vector() : type_(DataType::kInt64), width_(8), size_(0), capacity_(0),
             dsb_scale_(0) {}

  // A vector at the declared width of `type`.
  Vector(DataType type, size_t capacity)
      : Vector(type, capacity, WidthOf(type)) {}

  // A vector whose values are stored at `width` bytes (1, 2, 4 or 8,
  // at most WidthOf(type)); see VisitPhysical for the element type.
  Vector(DataType type, size_t capacity, size_t width)
      : type_(type),
        width_(static_cast<uint8_t>(width)),
        size_(0),
        capacity_(capacity),
        dsb_scale_(0),
        buffer_(capacity * width) {
    RAPID_DCHECK(width <= WidthOf(type) && (width & (width - 1)) == 0);
  }

  Vector(Vector&&) = default;
  Vector& operator=(Vector&&) = default;
  Vector(const Vector&) = delete;
  Vector& operator=(const Vector&) = delete;

  // Deep copy, for update-unit versioning.
  Vector Clone() const {
    Vector out(type_, capacity_, width_);
    out.size_ = size_;
    out.dsb_scale_ = dsb_scale_;
    std::memcpy(out.buffer_.data(), buffer_.data(), size_ * width_);
    return out;
  }

  // Logical type; its WidthOf is the declared width.
  DataType type() const { return type_; }
  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  // Physical bytes per value.
  size_t width() const { return width_; }
  size_t byte_size() const { return size_ * width_; }

  // Common decimal scale of a DSB-encoded vector (power of 10).
  int dsb_scale() const { return dsb_scale_; }
  void set_dsb_scale(int scale) { dsb_scale_ = scale; }

  uint8_t* raw() { return buffer_.data(); }
  const uint8_t* raw() const { return buffer_.data(); }

  template <typename T>
  T* Data() {
    RAPID_DCHECK(sizeof(T) == width());
    return buffer_.as<T>();
  }
  template <typename T>
  const T* Data() const {
    RAPID_DCHECK(sizeof(T) == width());
    return buffer_.as<const T>();
  }

  // Generic accessors that widen to int64 regardless of the physical
  // width; used by row-oriented paths (host DB, tests).
  int64_t GetInt(size_t row) const {
    RAPID_DCHECK(row < size_);
    return VisitPhysical(width_, type_, [&](auto t) -> int64_t {
      return buffer_.as<const decltype(t)>()[row];
    });
  }

  // Never truncates: a value the physical width cannot hold first
  // widens the vector (Widen); one the declared type cannot hold is a
  // caller bug.
  void SetInt(size_t row, int64_t value) {
    RAPID_DCHECK(row < capacity_);
    if (!FitsWidth(value, width_, type_)) {
      RAPID_CHECK(FitsWidth(value, WidthOf(type_), type_));
      Widen(NarrowestWidth(value, value, type_));
    }
    VisitPhysical(width_, type_, [&](auto t) {
      buffer_.as<decltype(t)>()[row] = static_cast<decltype(t)>(value);
    });
    if (row >= size_) size_ = row + 1;
  }

  void Append(int64_t value) { SetInt(size_, value); }

  void set_size(size_t size) {
    RAPID_DCHECK(size <= capacity_);
    size_ = size;
  }

 private:
  // Rewrites every value at `width` bytes (> width(), at most the
  // declared width), keeping capacity, size and scale.
  void Widen(size_t width) {
    RAPID_CHECK(width > width_ && width <= WidthOf(type_));
    Vector wide(type_, capacity_, width);
    for (size_t r = 0; r < size_; ++r) wide.SetInt(r, GetInt(r));
    wide.dsb_scale_ = dsb_scale_;
    *this = std::move(wide);
  }

  DataType type_;
  uint8_t width_;
  size_t size_;
  size_t capacity_;
  int dsb_scale_;
  AlignedBuffer buffer_;
};

}  // namespace rapid::storage

#endif  // RAPID_STORAGE_VECTOR_H_
