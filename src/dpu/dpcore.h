// DpCore: one of the DPU's 32 data-processing cores (Section 2.1).
// In the simulator a dpCore is an execution context: an id, its
// macro, a real 32 KiB DMEM arena and a cycle counter that the cost
// model charges.

#ifndef RAPID_DPU_DPCORE_H_
#define RAPID_DPU_DPCORE_H_

#include "common/arena.h"
#include "dpu/config.h"
#include "dpu/cost_model.h"
#include "dpu/dmem.h"

namespace rapid::dpu {

// Per-core tallies of the bytes-moved optimizations, charged by the
// kernels as they run and reset per query by Dpu::ResetCores. They
// are a slice of the query's core::ExecutionStats (which derives from
// this struct), so summing cores into the query stats is one call.
struct CoreCounters {
  // Encoded scan path (RAPID_ENCODED_SCAN): bytes the DMS moved as
  // RLE runs, the plain bytes those same tiles would have cost, and
  // predicate evaluations decided per run without expanding a row.
  uint64_t encoded_bytes_moved = 0;
  uint64_t plain_bytes_moved = 0;
  uint64_t runs_filtered = 0;
  // Join-filter pushdown (RAPID_JOIN_FILTER): Bloom filters built over
  // build-side keys, probe rows they pruned before partition/probe
  // work, and the bytes those filters occupied.
  uint64_t join_filter_built = 0;
  uint64_t rows_pruned_by_join_filter = 0;
  uint64_t filter_bytes = 0;

  void Accumulate(const CoreCounters& other) {
    encoded_bytes_moved += other.encoded_bytes_moved;
    plain_bytes_moved += other.plain_bytes_moved;
    runs_filtered += other.runs_filtered;
    join_filter_built += other.join_filter_built;
    rows_pruned_by_join_filter += other.rows_pruned_by_join_filter;
    filter_bytes += other.filter_bytes;
  }
};

class DpCore {
 public:
  DpCore(int id, const DpuConfig& config)
      : id_(id),
        macro_id_(id / config.cores_per_macro),
        dmem_(config.dmem_bytes),
        pool_(&arena_) {}

  DpCore(const DpCore&) = delete;
  DpCore& operator=(const DpCore&) = delete;

  int id() const { return id_; }
  int macro_id() const { return macro_id_; }

  Dmem& dmem() { return dmem_; }
  CycleCounter& cycles() { return cycles_; }
  const CycleCounter& cycles() const { return cycles_; }
  CoreCounters& counters() { return counters_; }
  const CoreCounters& counters() const { return counters_; }

  // Tile-local scratch memory. Only the worker currently executing
  // this core's morsel may touch either. The arena is never Reset()
  // while the pool is live (pooled buffers point into it); both
  // persist across queries so warm tiles allocate nothing — which is
  // why Dpu::ResetCores leaves them alone.
  Arena& arena() { return arena_; }
  const Arena& arena() const { return arena_; }
  TileBufferPool& pool() { return pool_; }
  const TileBufferPool& pool() const { return pool_; }

 private:
  int id_;
  int macro_id_;
  Dmem dmem_;
  CycleCounter cycles_;
  CoreCounters counters_;
  Arena arena_;
  TileBufferPool pool_;
};

}  // namespace rapid::dpu

#endif  // RAPID_DPU_DPCORE_H_
