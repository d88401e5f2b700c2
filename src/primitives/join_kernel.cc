#include "primitives/join_kernel.h"

#include <algorithm>

#include "primitives/simd.h"

namespace rapid::primitives {

CompactJoinTable::CompactJoinTable(size_t num_rows, size_t num_buckets,
                                   size_t dmem_capacity_rows)
    : num_rows_(num_rows),
      num_buckets_(num_buckets),
      bucket_mask_(num_buckets - 1),
      dmem_capacity_(dmem_capacity_rows) {
  RAPID_CHECK(num_buckets > 0 && (num_buckets & (num_buckets - 1)) == 0);
  // Every row offset and both sentinels must fit a 32-bit word.
  RAPID_CHECK(num_rows < kDramSentinel);
  // Entries must address any DMEM row offset plus the sentinel.
  const size_t dmem_entries = std::min(dmem_capacity_rows, num_rows);
  entry_bits_ = BitsFor(dmem_entries);  // values 0..dmem_entries, sentinel
  dmem_sentinel_ = static_cast<uint32_t>((uint64_t{1} << entry_bits_) - 1);
  dmem_buckets_.assign(num_buckets, dmem_sentinel_);
  dmem_link_.assign(std::max<size_t>(dmem_entries, 1), dmem_sentinel_);

  if (num_rows > dmem_capacity_rows) {
    // Statistics were off: size the DRAM overflow region.
    dram_buckets_.assign(num_buckets, kDramSentinel);
    dram_link_.assign(num_rows - dmem_capacity_rows, kDramSentinel);
  }
}

void CompactJoinTable::Insert(uint32_t hash, size_t row_offset) {
  RAPID_CHECK(row_offset < num_rows_);
  const size_t bucket = hash & bucket_mask_;
  const uint32_t row = static_cast<uint32_t>(row_offset);
  if (row_offset < dmem_capacity_) {
    // Normal DMEM insert: chain backwards to the previous occupant.
    dmem_link_[row_offset] = dmem_buckets_[bucket];
    dmem_buckets_[bucket] = row;
    ++dmem_rows_;
  } else {
    // Small-skew overflow: the row lands in the DRAM extension. The
    // DRAM region has its own bucket heads so DMEM chains stay intact.
    dram_link_[row_offset - dmem_capacity_] = dram_buckets_[bucket];
    dram_buckets_[bucket] = row;
    ++overflow_rows_;
  }
}

void ComputeBucketIndices(const uint32_t* hashes, size_t n, size_t num_buckets,
                          uint32_t* indices) {
  const uint32_t mask = static_cast<uint32_t>(num_buckets) - 1;
  simd::partition_kernels().bucket_indices(hashes, n, mask, indices);
}

}  // namespace rapid::primitives
