#include "primitives/partition_map.h"

#include "common/logging.h"
#include "primitives/simd.h"

namespace rapid::primitives {

void ComputePartitionMap(const uint32_t* hashes, size_t n, int fanout,
                         int shift, PartitionMap* map) {
  RAPID_CHECK(fanout > 0 && (fanout & (fanout - 1)) == 0);
  const uint32_t mask = static_cast<uint32_t>(fanout) - 1;
  const simd::PartitionKernelTable& kernels = simd::partition_kernels();

  // Loop 1: partition id per row (branch-free, vectorized).
  map->partition_of.resize(n);
  kernels.partition_of(hashes, n, shift, mask, map->partition_of.data());

  // Loop 2: histogram.
  map->counts.assign(static_cast<size_t>(fanout), 0);
  kernels.histogram(map->partition_of.data(), n, map->counts.data(),
                    static_cast<size_t>(fanout));

  // Loop 3: prefix sum -> per-partition output offsets.
  map->offsets.assign(static_cast<size_t>(fanout) + 1, 0);
  for (int p = 0; p < fanout; ++p) {
    map->offsets[static_cast<size_t>(p) + 1] =
        map->offsets[static_cast<size_t>(p)] + map->counts[static_cast<size_t>(p)];
  }

  // Loop 4: scatter row ids into partition-grouped order. Stays
  // scalar: each store address depends on the running cursor of the
  // row's partition (the paper's Listing 2 scatter has the same
  // dependence; there is no conflict-free vector scatter for it).
  map->rids.resize(n);
  std::vector<uint32_t> cursor(map->offsets.begin(), map->offsets.end() - 1);
  for (size_t i = 0; i < n; ++i) {
    map->rids[cursor[map->partition_of[i]]++] = static_cast<uint32_t>(i);
  }
}

}  // namespace rapid::primitives
