// Morsel-driven work scheduling for DPU phases.
//
// Every parallel phase of the engine is a set of independent morsels
// (chunks, row ranges, partition pairs, buckets, runs, ...). The
// WorkQueue hands morsels to dpCores either statically (the legacy
// round-robin assignment: core c runs morsels c, c+P, c+2P, ...) or
// dynamically: each core owns a deque seeded by skew-aware LPT
// (largest-processing-time-first over the caller-provided weights) and
// steals the smallest tail morsel from the heaviest remaining victim
// once its own deque drains.
//
// Stealing happens in *virtual* time, not host wall clock: the DPU is
// simulated, so a morsel's cost is its modeled weight, and host thread
// wake-up order says nothing about which core is "ahead". A thief
// takes a morsel only when its own virtual clock plus the morsel's
// weight beats the victim's virtual completion time — exactly the
// steals a real work-stealing runtime would perform, and each one can
// only lower the modeled makespan below the LPT bound. Results stay
// bit-identical because callers index output slots by morsel id,
// never by the core that happened to run the morsel.
//
// The scheduling mode is the config's `sched` field (RAPID_SCHED,
// common/config.h).

#ifndef RAPID_DPU_WORK_QUEUE_H_
#define RAPID_DPU_WORK_QUEUE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/arena.h"
#include "common/config.h"

namespace rapid::dpu {

// Graham's balanced-makespan bound for scheduling independent morsels
// on `num_cores` identical cores: sum/cores plus the largest morsel's
// remainder. With largest == 0 this degenerates to the perfect
// round-robin estimate (total / cores).
double BalancedMakespanCycles(double total_cycles,
                              double largest_morsel_cycles, int num_cores);

// Per-phase (and accumulated) load-balance statistics of morsel
// execution: the slowest core bounds the phase, so max/mean over core
// cycles is the modeled cost of imbalance.
struct ImbalanceStats {
  double max_core_cycles = 0;   // summed per-phase maxima
  double mean_core_cycles = 0;  // summed per-phase means
  uint64_t steal_count = 0;     // morsels run by a non-seeded core
  uint64_t phases = 0;          // morsel phases accumulated

  // Slowest-core slowdown vs a perfectly balanced phase (1.0 = even).
  double Ratio() const {
    return mean_core_cycles > 0 ? max_core_cycles / mean_core_cycles : 1.0;
  }
  void Accumulate(const ImbalanceStats& other) {
    max_core_cycles += other.max_core_cycles;
    mean_core_cycles += other.mean_core_cycles;
    steal_count += other.steal_count;
    phases += other.phases;
  }
};

class WorkQueue {
 public:
  // Unweighted morsels (all assumed equal work): equivalent to the
  // weighted constructor with unit weights, so the LPT seeding deals
  // morsel m to core m % num_cores and stealing evens out the tail.
  WorkQueue(size_t num_morsels, int num_cores,
            SchedMode mode = GetConfig().sched);

  // Weighted morsels: the LPT pre-assignment deals morsels
  // largest-first onto the least-loaded core's deque, so the queue
  // drains evenly even under heavy skew. Owners pop their largest
  // morsel first; thieves steal the smallest morsel from the heaviest
  // remaining victim.
  WorkQueue(std::vector<double> weights, int num_cores,
            SchedMode mode = GetConfig().sched);

  WorkQueue(const WorkQueue&) = delete;
  WorkQueue& operator=(const WorkQueue&) = delete;

  // Hands the next morsel to `core_id`. Returns false when drained.
  bool Next(int core_id, size_t* morsel);

  // Feedback from the executor: morsel `morsel` actually cost `cycles`
  // modeled compute cycles on core `core_id`. Corrects that core's
  // virtual clock (a pop optimistically charges the weight-based
  // estimate) and refines the observed cycles-per-weight rate, so
  // steal decisions chase real stragglers — the cores whose morsels
  // ran longer than their weights predicted — not just the LPT plan.
  void Charge(int core_id, size_t morsel, double cycles);

  size_t num_morsels() const { return num_morsels_; }
  SchedMode mode() const { return mode_; }
  uint64_t steal_count() const {
    return steals_.load(std::memory_order_relaxed);
  }

 private:
  void SeedLpt(const std::vector<double>& weights);

  const size_t num_morsels_;
  const int num_cores_;
  const SchedMode mode_;

  // All queue state lives in one 64-byte-aligned arena block sized
  // exactly for this phase in the constructor — one allocation per
  // phase instead of per-core deques and half a dozen vectors. Each
  // core owns a contiguous slot segment [seg_begin_[c],
  // seg_begin_[c+1]) holding its LPT-seeded morsels largest-first;
  // [head_[c], tail_[c]) is the live window: the owner pops the head
  // (its largest remaining morsel), a thief pops the victim's tail
  // (the smallest). One mutex guards the morsel-mode state — morsels
  // are coarse, so a global lock is cheaper than per-segment CAS.
  // Virtual clocks are in modeled cycles: pops charge weight * rate up
  // front and Charge() replaces the estimate with the measured cost.
  double CyclesPerWeight() const;  // observed rate (callers hold mu_)

  Arena arena_;
  std::mutex mu_;
  size_t* slots_ = nullptr;             // num_morsels_, per-core segments
  size_t* seg_begin_ = nullptr;         // num_cores_ + 1 segment bounds
  size_t* head_ = nullptr;              // num_cores_ live-window starts
  size_t* tail_ = nullptr;              // num_cores_ live-window ends
  double* weights_ = nullptr;           // num_morsels_
  double* estimated_charge_ = nullptr;  // optimistic pop charge, per morsel
  double* remaining_weight_ = nullptr;  // weight still queued per core
  double* executed_cycles_ = nullptr;   // virtual clock per core
  size_t* static_next_ = nullptr;       // static mode: stride cursors
  double charged_cycles_ = 0;  // measured cycles across charged morsels
  double charged_weight_ = 0;  // weight of charged morsels
  std::atomic<uint64_t> steals_{0};
};

}  // namespace rapid::dpu

#endif  // RAPID_DPU_WORK_QUEUE_H_
