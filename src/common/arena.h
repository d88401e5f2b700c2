// Tile-local memory subsystem: a chunked bump-pointer arena plus a
// size-classed buffer pool layered on top of it.
//
// RAPID's hot operator paths (partition scatter, join build, fused
// pipelines) run one tile at a time per dpCore; allocating their
// scratch buffers from the global heap per tile both serializes the
// morsel workers on the allocator lock and thrashes the allocator's
// caches (Durner et al., "On the Impact of Memory Allocation on
// High-Performance Query Processing"). Instead every DpCore owns an
// Arena (never contended: morsel workers are pinned to one core
// context at a time) and a TileBufferPool that recycles tile-sized
// buffers across tiles and across queries. After a warm-up query the
// steady state performs zero heap allocations on the tile path.
//
// Neither class is thread-safe; each instance belongs to exactly one
// DpCore and is only touched by the worker currently running that
// core's morsel.

#ifndef RAPID_COMMON_ARENA_H_
#define RAPID_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"

namespace rapid {

// Counters describing one arena (or, via Accumulate, a set of them).
struct ArenaStats {
  uint64_t bytes_reserved = 0;  // sum of chunk capacities
  uint64_t bytes_used = 0;      // bytes currently bump-allocated
  uint64_t high_water = 0;      // max bytes_used ever observed
  uint64_t chunk_count = 0;
  uint64_t alloc_calls = 0;     // Allocate() invocations (lifetime)

  void Accumulate(const ArenaStats& other) {
    bytes_reserved += other.bytes_reserved;
    bytes_used += other.bytes_used;
    high_water += other.high_water;
    chunk_count += other.chunk_count;
    alloc_calls += other.alloc_calls;
  }
};

// Chunked bump-pointer arena. Allocations are 64-byte aligned by
// default (one cache line — every kernel scratch buffer can be handed
// to SIMD code without further alignment fixups). Chunks are
// page-aligned.
//
// Reset() rewinds every chunk cursor but keeps the chunks mapped, so
// a warm arena never returns to the system allocator.
class Arena {
 public:
  static constexpr size_t kDefaultChunkBytes = size_t{1} << 20;  // 1 MiB
  static constexpr size_t kChunkAlignment = 4096;
  static constexpr size_t kDefaultAlignment = 64;

  explicit Arena(size_t chunk_bytes = kDefaultChunkBytes);
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Returns `bytes` of storage aligned to `align` (a power of two,
  // at most kChunkAlignment). The memory is uninitialized and stays
  // valid until Reset(). Zero-byte requests return a unique non-null
  // pointer.
  void* Allocate(size_t bytes, size_t align = kDefaultAlignment);

  template <typename T>
  T* AllocateArray(size_t count) {
    const size_t align =
        alignof(T) > kDefaultAlignment ? alignof(T) : kDefaultAlignment;
    return static_cast<T*>(Allocate(count * sizeof(T), align));
  }

  // Rewinds every chunk cursor; keeps the chunks for reuse.
  void Reset();

  ArenaStats stats() const;

 private:
  struct Chunk {
    uint8_t* data = nullptr;
    size_t capacity = 0;
    size_t used = 0;
  };

  // Appends a chunk of at least `min_bytes` and makes it active.
  Chunk& AddChunk(size_t min_bytes);

  size_t chunk_bytes_;
  std::vector<Chunk> chunks_;
  size_t active_ = 0;  // chunks_[active_] is the current bump target
  uint64_t alloc_calls_ = 0;
  uint64_t high_water_ = 0;
};

// Counters describing one pool (or an accumulated set).
struct TilePoolStats {
  uint64_t acquires = 0;         // buffer requests served
  uint64_t reuses = 0;           // served from a free list
  uint64_t misses = 0;           // needed a fresh arena allocation
  uint64_t releases = 0;         // buffers returned (handle resets)
  uint64_t bytes_acquired = 0;   // sum of class sizes handed out
  uint64_t bytes_allocated = 0;  // sum of class sizes freshly allocated

  void Accumulate(const TilePoolStats& other) {
    acquires += other.acquires;
    reuses += other.reuses;
    misses += other.misses;
    releases += other.releases;
    bytes_acquired += other.bytes_acquired;
    bytes_allocated += other.bytes_allocated;
  }

  // Buffers currently leased out. Error and cancellation paths must
  // drain back to zero — the pool-leak regression tests assert on it.
  uint64_t outstanding() const { return acquires - releases; }
};

// Recycles tile-sized scratch buffers (partition maps, hash columns,
// bit-vector payloads, write-combining scratch, fused-pipeline
// intermediates). Buffers live in power-of-two size classes; Acquire
// pops a free buffer of the smallest fitting class or bump-allocates
// a new one from the arena. Releasing (via Handle destruction) pushes
// the buffer back on its class's free list — nothing is ever returned
// to the heap, so steady-state tiles allocate nothing.
//
// With the config's `tile_pool_bypass` set, Acquire falls through to
// the heap and Release frees, emulating the pre-pool per-tile
// allocation pattern (bench_partition_scatter's before/after counts).
// Bypassed handles carry their own tag, so flipping the config between
// queries is safe.
//
// Buffer contents are NOT zeroed on acquire; callers that need zeroed
// memory must clear it themselves.
class TileBufferPool {
 public:
  static constexpr size_t kMinClassBytes = 64;
  static constexpr int kNumClasses = 26;  // 64 B .. 2 GiB

  explicit TileBufferPool(Arena* arena) : arena_(arena) {}

  TileBufferPool(const TileBufferPool&) = delete;
  TileBufferPool& operator=(const TileBufferPool&) = delete;

  // RAII lease on a pooled buffer; returns it to the pool on
  // destruction. Movable so operators can hold leases as members.
  class Handle {
   public:
    Handle() = default;
    Handle(Handle&& other) noexcept { *this = std::move(other); }
    Handle& operator=(Handle&& other) noexcept {
      if (this != &other) {
        reset();
        pool_ = other.pool_;
        data_ = other.data_;
        bytes_ = other.bytes_;
        cls_ = other.cls_;
        other.pool_ = nullptr;
        other.data_ = nullptr;
        other.bytes_ = 0;
        other.cls_ = -1;
      }
      return *this;
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;
    ~Handle() { reset(); }

    uint8_t* data() const { return data_; }
    // Usable size: the size class, >= the requested byte count.
    size_t size() const { return bytes_; }
    template <typename T>
    T* as() const {
      return reinterpret_cast<T*>(data_);
    }
    explicit operator bool() const { return data_ != nullptr; }

    // Returns the buffer to the pool early.
    void reset();

   private:
    friend class TileBufferPool;
    Handle(TileBufferPool* pool, uint8_t* data, size_t bytes, int cls)
        : pool_(pool), data_(data), bytes_(bytes), cls_(cls) {}

    TileBufferPool* pool_ = nullptr;
    uint8_t* data_ = nullptr;
    size_t bytes_ = 0;
    int cls_ = -1;  // -1: empty; -2: heap-backed (bypass mode)
  };

  // Leases a buffer of at least `bytes` (64-byte aligned).
  Handle Acquire(size_t bytes);

  // Fallible variant for recoverable call sites: polls the
  // "pool.acquire" fault site whenever the request would leave the
  // free lists (arena chunk growth / bypass heap allocation —
  // allocator pressure), so tests can exercise recovery the same way
  // as "dmem.alloc". On success `*out` holds the lease.
  Status TryAcquire(size_t bytes, Handle* out);

  template <typename T>
  Handle AcquireArray(size_t count) {
    return Acquire(count * sizeof(T));
  }

  template <typename T>
  Status TryAcquireArray(size_t count, Handle* out) {
    return TryAcquire(count * sizeof(T), out);
  }

  const TilePoolStats& stats() const { return stats_; }

 private:
  friend class Handle;
  static int ClassOf(size_t bytes);
  void Release(uint8_t* data, size_t bytes, int cls);

  Arena* arena_;
  std::vector<uint8_t*> free_lists_[kNumClasses];
  TilePoolStats stats_;
};

}  // namespace rapid

#endif  // RAPID_COMMON_ARENA_H_
