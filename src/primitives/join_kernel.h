// The RAPID hash-join kernel (Sections 6.3 and 6.4, Figures 6 and 7).
//
// A pointer-free bucket-chained hash table over DMEM-resident
// partitions:
//   * bucket count is a power of two, typically 2-4x smaller than the
//     row count (sized from NDV statistics),
//   * `hash-buckets` maps a bucket to the row offset of the *last*
//     inserted tuple with that hash,
//   * `link` chains tuples with equal hash backwards by row offset,
//   * the end-of-chain sentinel is the all-ones value of a
//     ceil(log2(N+1))-bit entry (the paper's "111" in the 8-tuple
//     example),
//   * bucket index = CRC32(key) & (buckets-1) — fast modulo by
//     bit-mask on the hardware-computed hash.
//
// DMEM is charged at the paper's compact width: DmemBytes() is what
// both arrays cost bit-packed at entry_bits() bits per entry. The host
// keeps them as flat 32-bit words, so a chain step is one load rather
// than a bit-field extract; the offsets and the sentinel are the
// values the packed arrays would hold.
//
// DMEM & statistics resilience (Figure 7): the kernel is built with a
// DMEM row capacity; if the partition turns out bigger than QComp's
// estimate ("small skew"), rows beyond the capacity gracefully
// overflow into a DRAM-resident extension of the same
// buckets/link structure. Probes then consult both regions; DRAM
// accesses are costed higher by the caller via ProbeStats.
//
// The kernel stores row offsets only; key comparison happens against
// the caller's key arrays (DMEM tiles), keeping the kernel primitive
// type-agnostic.

#ifndef RAPID_PRIMITIVES_JOIN_KERNEL_H_
#define RAPID_PRIMITIVES_JOIN_KERNEL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/crc32.h"
#include "common/logging.h"

namespace rapid::primitives {

// Minimum number of bits needed to represent values in [0, n]: with N
// rows, offsets plus the end-of-chain sentinel need ceil(log2(N + 1))
// bits.
inline int BitsFor(uint64_t n) {
  int bits = 1;
  while ((uint64_t{1} << bits) <= n) ++bits;
  return bits;
}

// Vectorized bucket-index primitive: indices[i] = hashes[i] & mask
// (num_buckets must be a power of two). Dispatches to the SIMD
// partition kernels.
void ComputeBucketIndices(const uint32_t* hashes, size_t n, size_t num_buckets,
                          uint32_t* indices);

struct ProbeStats {
  uint64_t probes = 0;        // keys probed
  uint64_t chain_steps = 0;   // link-array traversals (DMEM)
  uint64_t overflow_steps = 0;  // bucket/link accesses in the DRAM region
  uint64_t matches = 0;       // emitted result pairs

  void Merge(const ProbeStats& other) {
    probes += other.probes;
    chain_steps += other.chain_steps;
    overflow_steps += other.overflow_steps;
    matches += other.matches;
  }
};

class CompactJoinTable {
 public:
  // `num_rows`: build-side rows of this partition (may exceed the
  //   estimate; see dmem_capacity_rows).
  // `num_buckets`: power of two; QComp picks rows/2 .. rows/4 rounded
  //   to a power of two based on NDV.
  // `dmem_capacity_rows`: rows that fit in the DMEM budget. Rows with
  //   offset >= capacity live in the DRAM overflow region.
  CompactJoinTable(size_t num_rows, size_t num_buckets,
                   size_t dmem_capacity_rows);

  // Inserts the build tuple at `row_offset` with hash `hash`.
  // Offsets must be inserted 0,1,2,... (the build scan order).
  void Insert(uint32_t hash, size_t row_offset);

  // Probes one key; calls emit(build_row_offset) for every build row
  // whose key matches. `key_eq(offset)` performs the key comparison
  // against the caller's build-key storage.
  template <typename KeyEq, typename Emit>
  void Probe(uint32_t hash, KeyEq&& key_eq, Emit&& emit, ProbeStats* stats) {
    ++stats->probes;
    WalkChains(hash & bucket_mask_, key_eq, emit, stats);
  }

  // Batched probe over a tile of hashes — the tile-granularity entry
  // point used by the pipelined executor (one call per DMEM tile
  // instead of one per row). For probe row i, calls key_eq(i, brow)
  // to compare keys and emit(i, brow) for every match; match_counts[i]
  // receives the number of matches for row i. Rows are processed in
  // order, so emission order equals the per-row Probe loop.
  template <typename KeyEq, typename Emit>
  void ProbeBatch(const uint32_t* hashes, size_t n, KeyEq&& key_eq,
                  Emit&& emit, uint32_t* match_counts, ProbeStats* stats) {
    stats->probes += n;
    // Bucket indices are precomputed per chunk with the vectorized
    // kernel, hoisting the hash->bucket mapping out of the chain-walk
    // inner loop.
    constexpr size_t kChunkRows = 256;
    uint32_t buckets[kChunkRows];
    for (size_t base = 0; base < n; base += kChunkRows) {
      const size_t rows = std::min(kChunkRows, n - base);
      ComputeBucketIndices(hashes + base, rows, num_buckets_, buckets);
      for (size_t r = 0; r < rows; ++r) {
        const size_t i = base + r;
        auto row_eq = [&](size_t brow) { return key_eq(i, brow); };
        auto row_emit = [&](size_t brow) { emit(i, brow); };
        match_counts[i] = WalkChains(buckets[r], row_eq, row_emit, stats);
      }
    }
  }

  size_t num_rows() const { return num_rows_; }
  size_t num_buckets() const { return num_buckets_; }
  size_t dmem_rows() const { return dmem_rows_; }
  size_t overflow_rows() const { return overflow_rows_; }
  bool overflowed() const { return overflow_rows_ > 0; }

  // DMEM bytes the kernel is charged: both DMEM-region arrays
  // bit-packed at entry_bits() into 64-bit words — what op_dmem_size
  // charges for the kernel.
  size_t DmemBytes() const {
    return PackedBytes(dmem_buckets_.size()) + PackedBytes(dmem_link_.size());
  }

  // Bit width of the compact entries: ceil(log2(capacity+1)).
  int entry_bits() const { return entry_bits_; }

 private:
  static constexpr uint32_t kDramSentinel = ~uint32_t{0};

  size_t PackedBytes(size_t entries) const {
    return (entries * static_cast<size_t>(entry_bits_) + 63) / 64 *
           sizeof(uint64_t);
  }

  // Walks the bucket's DMEM chain, then its DRAM overflow chain
  // (Figure 7(b): second hash-buckets version + link continuation in
  // DRAM). Returns the matches found.
  template <typename KeyEq, typename Emit>
  uint32_t WalkChains(size_t bucket, KeyEq& key_eq, Emit& emit,
                      ProbeStats* stats) {
    uint32_t matches = 0;
    stats->chain_steps += WalkChain(dmem_buckets_[bucket], dmem_sentinel_,
                                    dmem_link_.data(), 0, key_eq, emit,
                                    &matches);
    if (overflow_rows_ > 0) {
      stats->overflow_steps +=
          WalkChain(dram_buckets_[bucket], kDramSentinel, dram_link_.data(),
                    dmem_capacity_, key_eq, emit, &matches);
    }
    stats->matches += matches;
    return matches;
  }

  // Follows one chain from `offset` to `sentinel`; row r's link is
  // link[r - base]. Returns the steps taken.
  template <typename KeyEq, typename Emit>
  static uint64_t WalkChain(uint32_t offset, uint32_t sentinel,
                            const uint32_t* link, size_t base, KeyEq& key_eq,
                            Emit& emit, uint32_t* matches) {
    uint64_t steps = 0;
    for (; offset != sentinel; offset = link[offset - base]) {
      ++steps;
      if (key_eq(offset)) {
        ++*matches;
        emit(offset);
      }
    }
    return steps;
  }

  size_t num_rows_ = 0;
  size_t num_buckets_ = 0;
  size_t bucket_mask_ = 0;
  size_t dmem_capacity_ = 0;

  // DMEM region: bucket heads and links, charged bit-packed.
  std::vector<uint32_t> dmem_buckets_;
  std::vector<uint32_t> dmem_link_;
  int entry_bits_ = 1;
  uint32_t dmem_sentinel_ = 0;
  size_t dmem_rows_ = 0;

  // DRAM overflow region (DRAM is not bit-budgeted).
  std::vector<uint32_t> dram_buckets_;
  std::vector<uint32_t> dram_link_;
  size_t overflow_rows_ = 0;
};

}  // namespace rapid::primitives

#endif  // RAPID_PRIMITIVES_JOIN_KERNEL_H_
