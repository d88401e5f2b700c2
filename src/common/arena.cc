#include "common/arena.h"

#include <cstdlib>

#include "common/config.h"
#include "common/fault.h"
#include "common/logging.h"

namespace rapid {

namespace {

size_t RoundUp(size_t value, size_t align) {
  return (value + align - 1) & ~(align - 1);
}

}  // namespace

Arena::Arena(size_t chunk_bytes)
    : chunk_bytes_(RoundUp(chunk_bytes, kChunkAlignment)) {}

Arena::~Arena() {
  for (Chunk& chunk : chunks_) std::free(chunk.data);
}

Arena::Chunk& Arena::AddChunk(size_t min_bytes) {
  const size_t capacity =
      RoundUp(min_bytes > chunk_bytes_ ? min_bytes : chunk_bytes_,
              kChunkAlignment);
  Chunk chunk;
  chunk.data =
      static_cast<uint8_t*>(std::aligned_alloc(kChunkAlignment, capacity));
  RAPID_CHECK(chunk.data != nullptr);
  chunk.capacity = capacity;
  chunks_.push_back(chunk);
  active_ = chunks_.size() - 1;
  return chunks_.back();
}

void* Arena::Allocate(size_t bytes, size_t align) {
  RAPID_DCHECK(align > 0 && (align & (align - 1)) == 0);
  RAPID_DCHECK(align <= kChunkAlignment);
  ++alloc_calls_;
  if (bytes == 0) bytes = 1;

  // Advance through existing chunks (rewound by Reset) before mapping
  // a new one; a warm arena allocates nothing.
  for (; active_ < chunks_.size(); ++active_) {
    Chunk& chunk = chunks_[active_];
    const size_t offset = RoundUp(chunk.used, align);
    if (offset + bytes <= chunk.capacity) {
      chunk.used = offset + bytes;
      uint64_t used = 0;
      for (const Chunk& c : chunks_) used += c.used;
      if (used > high_water_) high_water_ = used;
      return chunk.data + offset;
    }
  }

  Chunk& chunk = AddChunk(bytes);
  chunk.used = bytes;  // chunk data is kChunkAlignment-aligned already
  uint64_t used = 0;
  for (const Chunk& c : chunks_) used += c.used;
  if (used > high_water_) high_water_ = used;
  return chunk.data;
}

void Arena::Reset() {
  for (Chunk& chunk : chunks_) chunk.used = 0;
  active_ = 0;
}

ArenaStats Arena::stats() const {
  ArenaStats s;
  for (const Chunk& chunk : chunks_) {
    s.bytes_reserved += chunk.capacity;
    s.bytes_used += chunk.used;
  }
  s.high_water = high_water_;
  s.chunk_count = chunks_.size();
  s.alloc_calls = alloc_calls_;
  return s;
}

// ---- TileBufferPool --------------------------------------------------------

int TileBufferPool::ClassOf(size_t bytes) {
  size_t cls_bytes = kMinClassBytes;
  int cls = 0;
  while (cls_bytes < bytes) {
    cls_bytes <<= 1;
    ++cls;
  }
  RAPID_CHECK(cls < kNumClasses);
  return cls;
}

TileBufferPool::Handle TileBufferPool::Acquire(size_t bytes) {
  if (bytes == 0) bytes = 1;
  const int cls = ClassOf(bytes);
  const size_t cls_bytes = kMinClassBytes << cls;
  ++stats_.acquires;
  stats_.bytes_acquired += cls_bytes;
  if (GetConfig().tile_pool_bypass) {
    // Pre-pool behavior: one heap allocation per acquire.
    ++stats_.misses;
    stats_.bytes_allocated += cls_bytes;
    auto* data = static_cast<uint8_t*>(
        std::aligned_alloc(Arena::kDefaultAlignment, cls_bytes));
    RAPID_CHECK(data != nullptr);
    return Handle(this, data, cls_bytes, -2);
  }
  std::vector<uint8_t*>& list = free_lists_[cls];
  if (!list.empty()) {
    uint8_t* data = list.back();
    list.pop_back();
    ++stats_.reuses;
    return Handle(this, data, cls_bytes, cls);
  }
  ++stats_.misses;
  stats_.bytes_allocated += cls_bytes;
  auto* data = static_cast<uint8_t*>(arena_->Allocate(cls_bytes));
  return Handle(this, data, cls_bytes, cls);
}

Status TileBufferPool::TryAcquire(size_t bytes, Handle* out) {
  // Only requests that leave the free lists can fail on the real
  // machine (chunk growth maps new memory; bypass mode hits the heap);
  // recycled buffers are already resident.
  const int cls = ClassOf(bytes == 0 ? 1 : bytes);
  if (GetConfig().tile_pool_bypass || free_lists_[cls].empty()) {
    RAPID_FAULT_POINT(faults::kPoolAcquire);
  }
  *out = Acquire(bytes);
  return Status::OK();
}

void TileBufferPool::Release(uint8_t* data, size_t bytes, int cls) {
  (void)bytes;
  ++stats_.releases;
  if (cls == -2) {
    std::free(data);
    return;
  }
  free_lists_[cls].push_back(data);
}

void TileBufferPool::Handle::reset() {
  if (data_ != nullptr) pool_->Release(data_, bytes_, cls_);
  pool_ = nullptr;
  data_ = nullptr;
  bytes_ = 0;
  cls_ = -1;
}

}  // namespace rapid
