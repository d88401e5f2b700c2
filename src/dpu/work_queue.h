// Morsel scheduling for DPU phases.
//
// Every parallel phase of the engine is a set of independent morsels
// (chunks, row ranges, partition pairs, buckets, runs, ...) with a
// modeled weight each. The schedule deals them to dpCores statically,
// as the paper's QEF places actors: LPT (largest-processing-time-first)
// sorts the morsels by descending weight, stably, and gives each one to
// the least-loaded core so far. Each core then runs only its own
// segment, largest first. Nothing is stolen and nothing is locked, so
// the assignment — and with it every core's modeled cycle count — is a
// pure function of the weights, whether the cores run pooled, inline
// or oversubscribed on the host. Results stay bit-identical across
// core counts because callers index output slots by morsel id, never
// by the core that ran the morsel.

#ifndef RAPID_DPU_WORK_QUEUE_H_
#define RAPID_DPU_WORK_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace rapid::dpu {

// Graham's balanced-makespan bound for any list schedule of
// independent morsels on `num_cores` identical cores, LPT included:
// sum/cores plus the largest morsel's remainder. With largest == 0
// this degenerates to the perfect round-robin estimate (total / cores).
double BalancedMakespanCycles(double total_cycles,
                              double largest_morsel_cycles, int num_cores);

// Per-phase (and accumulated) load-balance statistics of morsel
// execution: the slowest core bounds the phase, so max/mean over core
// cycles is the modeled cost of imbalance.
struct ImbalanceStats {
  double max_core_cycles = 0;   // summed per-phase maxima
  double mean_core_cycles = 0;  // summed per-phase means
  // Always 0: the LPT schedule never steals. Kept only because the
  // perfbench harness still reads it.
  uint64_t steal_count = 0;
  uint64_t phases = 0;  // morsel phases accumulated

  // Slowest-core slowdown vs a perfectly balanced phase (1.0 = even).
  double Ratio() const {
    return mean_core_cycles > 0 ? max_core_cycles / mean_core_cycles : 1.0;
  }
  void Accumulate(const ImbalanceStats& other) {
    max_core_cycles += other.max_core_cycles;
    mean_core_cycles += other.mean_core_cycles;
    phases += other.phases;
  }
};

// One phase's morsel-to-core assignment: core c runs
// morsels[begin[c], begin[c + 1]) in order.
struct MorselSchedule {
  std::vector<size_t> morsels;  // morsel ids grouped by core
  std::vector<size_t> begin;    // num_cores + 1 segment bounds

  std::span<const size_t> core(size_t c) const {
    return {morsels.data() + begin[c], begin[c + 1] - begin[c]};
  }
};

// LPT over `weights` onto `num_cores` (clamped to >= 1) cores. Ties
// keep morsel-id order, so unit weights deal morsel m to core
// m % num_cores, and each core's segment is largest-first.
MorselSchedule LptSchedule(const std::vector<double>& weights,
                           int num_cores);

}  // namespace rapid::dpu

#endif  // RAPID_DPU_WORK_QUEUE_H_
