// Calibrated cycle cost model of the RAPID DPU.
//
// The simulator executes real algorithms on real data, but DPU-side
// throughput is *modeled*: each primitive invocation and DMS transfer
// charges cycles to the executing dpCore, and throughput is
// rows / (cycles / 800 MHz). The constants below are calibrated
// against every absolute number the paper reports:
//
//   - filter: 1.65 cycles/tuple => 482 M tuples/s/core     (Section 7.2)
//   - DMS transfer: >= 9 GiB/s at 128-row tiles, ~75% of
//     12.8 GB/s DDR3 peak                                  (Figure 9)
//   - HW partitioning: ~9.3 GiB/s for all strategies       (Figure 8)
//   - SW partitioning: ~948 M rows/s at 32-way fan-out     (Figure 10)
//   - join build: ~46 M rows/s/core at 256-row tiles,
//     +39% from tile 64 -> 1024                            (Figure 11)
//   - join probe: 880 M - 1.35 B rows/s/DPU, +30% from
//     tile 64 -> 1024                                      (Figure 12)
//
// This mirrors the paper's own methodology: RAPID's QComp cost model
// is "analytically modeled on top of data transfer (I/O) and compute
// cost functions considering the potential overlap" and "accurately
// calibrated with micro-benchmarks" (Section 5.2).

#ifndef RAPID_DPU_COST_MODEL_H_
#define RAPID_DPU_COST_MODEL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rapid::dpu {

struct CostParams {
  double clock_hz = 800e6;

  // ---- DMS / memory system ----
  // DDR3 peak is 16 bytes per 800 MHz cycle (12.8 GB/s).
  double dram_bytes_per_cycle = 16.0;
  // Streaming rate of the DMS partition engine (CMEM staging + CRC +
  // CID resolution + scatter to DMEM): 12.5 B/cy = 9.3 GiB/s.
  double partition_bytes_per_cycle = 12.5;
  // Fixed descriptor-chain configuration cost per tile transfer.
  double dms_tile_setup_cycles = 2.0;
  // Per-column descriptor cost: each column lives on different DRAM
  // pages, so switching columns costs a row-buffer miss.
  double dms_column_switch_cycles = 7.0;
  // Mild contention growth as more DRAM pages stay open concurrently.
  double dms_column_contention_cycles = 0.25;  // * columns^2 per tile
  // Read->write turnaround penalty per tile for rw access patterns.
  double dms_rw_turnaround_cycles = 24.0;
  // Gather/scatter (random row access) is slower than streaming.
  double dms_gather_bytes_per_cycle = 6.0;

  // Per-row cost of the partition-engine front end, by strategy.
  double hw_part_radix_cycles_per_row = 0.00;
  double hw_part_hash_cycles_per_key_row = 0.01;
  double hw_part_range_cycles_per_row = 0.04;

  // ---- dpCore primitives (per row unless noted) ----
  // Dual-issued bvld+filteq loop of Listing 1.
  double filter_cycles_per_row = 1.65;
  // Arithmetic expression evaluation; multiplies stall the low-power
  // multiplier for several cycles.
  double arith_cycles_per_row = 1.0;
  double mult_extra_cycles_per_row = 3.0;
  // CRC32 hash-value generation (single-cycle instruction + load/store).
  double hash_cycles_per_row = 2.0;
  // Aggregation update (sum/min/max/count) per aggregate column.
  double agg_cycles_per_row = 2.0;
  // RLE expansion of an encoded column into the DMEM tile: a per-row
  // broadcast-store charge plus a per-run loop-restart charge (runs
  // dominate on poorly compressed data, rows on well compressed).
  double rle_decode_cycles_per_row = 0.25;
  double rle_decode_cycles_per_run = 4.0;
  // Hash-table group-by update (bucket find + aggregate update).
  double groupby_cycles_per_row = 12.0;
  // Blocked Bloom filter (join-filter pushdown): mix + one 64-byte
  // block touch per row. Insert stores 8 lane bits, probe tests them.
  double bloom_insert_cycles_per_row = 3.0;
  double bloom_probe_cycles_per_row = 3.0;

  // ---- Software partitioning (Listing 2 + Listing 3) ----
  double partition_map_cycles_per_row = 8.0;   // compute_partition_map
  // Legacy gather + sequential-emit column partitioning (Listing 3,
  // kept for the reference path); superseded on the hot path by the
  // scatter below.
  double swpart_gather_cycles_per_row = 7.0;   // per projection column
  // Per-column scatter of each row to its partition; the default
  // matches the old gather charge so Default() stays numerically
  // identical to the pre-scatter model.
  double swpart_scatter_cycles_per_row = 7.0;  // per projection column
  double swpart_partition_loop_cycles = 40.0;  // per partition per tile

  // ---- Hash join kernel (Section 6.3) ----
  double join_build_cycles_per_row = 15.7;
  double join_build_tile_setup_cycles = 430.0;
  double join_probe_cycles_per_row = 16.0;
  double join_probe_chain_step_cycles = 4.0;   // per link traversal
  double join_probe_emit_cycles = 3.0;         // per produced match
  double join_probe_tile_setup_cycles = 390.0;
  // Probing the DRAM-resident overflow region costs a DRAM round trip.
  double join_overflow_access_cycles = 60.0;

  // ---- Other operators ----
  double sort_cycles_per_row_per_pass = 8.0;
  double topk_cycles_per_row = 6.0;
  double row_at_a_time_overhead_cycles = 14.0;  // non-vectorized penalty

  // ---- Failure recovery ----
  // Descriptor reprogram + settle time before retrying a failed DMS
  // operation; doubles per attempt (bounded exponential backoff).
  double dms_retry_backoff_cycles = 220.0;
  // Attempts per DMS descriptor (1 initial + retries) before the
  // engine gives up with kRetryExhausted.
  int dms_max_attempts = 4;
  // ATE redelivery attempts before a message is declared lost.
  int ate_max_attempts = 4;

  static const CostParams& Default();
};

// Per-core cycle accumulator. Compute and DMS cycles are tracked
// separately because double buffering overlaps them (Section 5.1):
// within a double-buffered task the effective time is the max of the
// two streams, not the sum.
class CycleCounter {
 public:
  // One charge, as recorded while a log is attached.
  struct Charge {
    double cycles = 0;
    bool dms = false;
  };

  void ChargeCompute(double cycles) {
    compute_cycles_ += cycles;
    if (log_ != nullptr) log_->push_back(Charge{cycles, false});
  }
  void ChargeDms(double cycles) {
    dms_cycles_ += cycles;
    if (log_ != nullptr) log_->push_back(Charge{cycles, true});
  }

  // Appends every later charge to `log` until set_log(nullptr).
  void set_log(std::vector<Charge>* log) { log_ = log; }
  // Re-applies recorded charges in their original order. Floating-point
  // sums depend on the order of their terms, so replaying the sequence
  // (not its total) leaves the counter bit-identical to running the
  // recorded work again.
  void Replay(const std::vector<Charge>& log) {
    for (const Charge& c : log) {
      (c.dms ? dms_cycles_ : compute_cycles_) += c.cycles;
    }
  }

  double compute_cycles() const { return compute_cycles_; }
  double dms_cycles() const { return dms_cycles_; }

  // Total modeled cycles. With double buffering the DMS stream hides
  // behind compute (or vice versa); otherwise the streams serialize.
  double EffectiveCycles(bool double_buffered = true) const {
    return double_buffered ? std::max(compute_cycles_, dms_cycles_)
                           : compute_cycles_ + dms_cycles_;
  }

  double EffectiveSeconds(const CostParams& params,
                          bool double_buffered = true) const {
    return EffectiveCycles(double_buffered) / params.clock_hz;
  }

  void Reset() {
    compute_cycles_ = 0;
    dms_cycles_ = 0;
  }

  void Merge(const CycleCounter& other) {
    compute_cycles_ += other.compute_cycles_;
    dms_cycles_ += other.dms_cycles_;
  }

 private:
  double compute_cycles_ = 0;
  double dms_cycles_ = 0;
  std::vector<Charge>* log_ = nullptr;
};

// TraceSpan clock callback for core tracks: a core's virtual time is
// its accumulated compute + DMS cycles, which only grows while the
// core works — giving each dpCore trace track a monotone clock. Pass
// with `&core.cycles()` as the clock argument.
inline double TraceClockNow(const void* counter) {
  const auto* c = static_cast<const CycleCounter*>(counter);
  return c->compute_cycles() + c->dms_cycles();
}

// ---- Cost helper functions -------------------------------------------------
// These compute cycle charges for common events; operators call them
// and feed the result into the core's CycleCounter.

// One DMS descriptor chain over `columns` columns moving `bytes` bytes
// in all per direction, in `read` or read+write mode.
inline double DmsChainCycles(const CostParams& p, int columns, size_t bytes,
                             bool read_write) {
  const double moved = static_cast<double>(bytes) * (read_write ? 2 : 1);
  double cycles = p.dms_tile_setup_cycles +
                  columns * p.dms_column_switch_cycles *
                      (read_write ? 2 : 1) +
                  p.dms_column_contention_cycles * columns * columns +
                  moved / p.dram_bytes_per_cycle;
  if (read_write) cycles += p.dms_rw_turnaround_cycles;
  return cycles;
}

// Streaming DMS transfer of a tile: `columns` columns of
// `rows * width` bytes each, in `read` or read+write mode.
inline double DmsTileTransferCycles(const CostParams& p, int columns,
                                    size_t rows, size_t width_bytes,
                                    bool read_write) {
  return DmsChainCycles(p, columns,
                        static_cast<size_t>(columns) * rows * width_bytes,
                        read_write);
}

// DMS gather/scatter of `rows` random rows of `width_bytes`.
inline double DmsGatherCycles(const CostParams& p, size_t rows,
                              size_t width_bytes) {
  return p.dms_tile_setup_cycles +
         static_cast<double>(rows) * width_bytes / p.dms_gather_bytes_per_cycle;
}

enum class HwPartitionStrategy { kRadix, kHash, kRange, kRoundRobin };

// Hardware partitioning of `bytes` of row data with the DMS engine.
inline double HwPartitionCycles(const CostParams& p,
                                HwPartitionStrategy strategy, int num_keys,
                                size_t rows, size_t bytes) {
  double per_row = 0;
  switch (strategy) {
    case HwPartitionStrategy::kRadix:
      per_row = p.hw_part_radix_cycles_per_row;
      break;
    case HwPartitionStrategy::kHash:
      per_row = p.hw_part_hash_cycles_per_key_row * num_keys;
      break;
    case HwPartitionStrategy::kRange:
      per_row = p.hw_part_range_cycles_per_row;
      break;
    case HwPartitionStrategy::kRoundRobin:
      per_row = 0;
      break;
  }
  return static_cast<double>(bytes) / p.partition_bytes_per_cycle +
         per_row * static_cast<double>(rows);
}

// Software partitioning of one tile (Listing 2 + the per-column
// scatter): the partition-map loop (bucket mapping + histogram), the
// scatter and the per-partition loop (QComp's fusion and
// partition-round gates see the scatter's cost through this term).
inline double SwPartitionTileCycles(const CostParams& p, size_t rows,
                                    int columns, int fanout) {
  return p.partition_map_cycles_per_row * rows +
         p.swpart_scatter_cycles_per_row * rows * columns +
         p.swpart_partition_loop_cycles * fanout;
}

// Join build kernel over one tile.
inline double JoinBuildTileCycles(const CostParams& p, size_t rows) {
  return p.join_build_tile_setup_cycles + p.join_build_cycles_per_row * rows;
}

// Join probe kernel over one tile. `chain_steps` is the total number
// of link-array traversals and `matches` the number of emitted rows.
inline double JoinProbeTileCycles(const CostParams& p, size_t rows,
                                  size_t chain_steps, size_t matches) {
  return p.join_probe_tile_setup_cycles + p.join_probe_cycles_per_row * rows +
         p.join_probe_chain_step_cycles * chain_steps +
         p.join_probe_emit_cycles * matches;
}

}  // namespace rapid::dpu

#endif  // RAPID_DPU_COST_MODEL_H_
