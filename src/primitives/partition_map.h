// Vectorized software-partitioning primitives (Section 5.4,
// Listings 2 and 3).
//
// compute_partition_map turns a tile of hardware-computed CRC32 hash
// values into (a) a partition id per row and (b) per-partition RID
// lists, via branch-free tight loops. swpart_partcol then partitions
// each projection column by gathering rows of one partition at a time
// and emitting them sequentially — several times faster than the
// straightforward scatter because all writes are sequential.

#ifndef RAPID_PRIMITIVES_PARTITION_MAP_H_
#define RAPID_PRIMITIVES_PARTITION_MAP_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace rapid::primitives {

// Per-tile partitioning map: for each partition p, rows_of[p] lists
// the row offsets belonging to p, in tile order.
struct PartitionMap {
  // partition id per row (Listing 2's output vector).
  std::vector<uint16_t> partition_of;
  // histogram: number of rows per partition.
  std::vector<uint32_t> counts;
  // rows grouped by partition: rids[offsets[p] .. offsets[p]+counts[p]).
  std::vector<uint32_t> rids;
  std::vector<uint32_t> offsets;
};

// Listing 2: series of tight loops over the hash values. `fanout`
// must be a power of two; partition id = (hash >> shift) & mask so a
// later software round uses different radix bits than the hardware
// round (pass the bit position via `shift`).
void ComputePartitionMap(const uint32_t* hashes, size_t n, int fanout,
                         int shift, PartitionMap* map);

// Listing 3: gathers the rows of each partition from `input` and
// writes them contiguously into `output` (same total size); returns
// per-partition output offsets in map->offsets.
template <typename T>
void SwPartitionColumn(const T* input, const PartitionMap& map, T* output) {
  // For each partition p, gather its rows and emit sequentially.
  for (size_t i = 0; i < map.rids.size(); ++i) {
    output[i] = input[map.rids[i]];
  }
}

}  // namespace rapid::primitives

#endif  // RAPID_PRIMITIVES_PARTITION_MAP_H_
