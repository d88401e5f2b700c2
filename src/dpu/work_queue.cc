#include "dpu/work_queue.h"

#include <algorithm>
#include <numeric>

namespace rapid::dpu {

double BalancedMakespanCycles(double total_cycles,
                              double largest_morsel_cycles, int num_cores) {
  if (num_cores <= 1) return total_cycles;
  const double cores = static_cast<double>(num_cores);
  const double bound =
      total_cycles / cores + largest_morsel_cycles * (cores - 1.0) / cores;
  // A phase can never finish faster than its largest morsel.
  return std::max(bound, largest_morsel_cycles);
}

WorkQueue::WorkQueue(size_t num_morsels, int num_cores, SchedMode mode)
    : WorkQueue(std::vector<double>(num_morsels, 1.0), num_cores, mode) {}

WorkQueue::WorkQueue(std::vector<double> weights, int num_cores,
                     SchedMode mode)
    : num_morsels_(weights.size()),
      num_cores_(num_cores < 1 ? 1 : num_cores),
      mode_(mode),
      // Size the arena for exactly one chunk: the constructor knows
      // every array's extent up front, so the whole queue is one
      // 64-byte-aligned allocation (plus per-array alignment slack).
      arena_((mode == SchedMode::kStatic
                  ? static_cast<size_t>(num_cores < 1 ? 1 : num_cores) *
                        sizeof(size_t)
                  : weights.size() * (2 * sizeof(size_t) + 2 * sizeof(double)) +
                        static_cast<size_t>(num_cores < 1 ? 1 : num_cores) *
                            (4 * sizeof(size_t) + 3 * sizeof(double)) +
                        sizeof(size_t)) +
             8 * Arena::kDefaultAlignment) {
  const auto cores = static_cast<size_t>(num_cores_);
  if (mode_ == SchedMode::kStatic) {
    static_next_ = arena_.AllocateArray<size_t>(cores);
    for (size_t c = 0; c < cores; ++c) static_next_[c] = c;
    return;
  }
  slots_ = arena_.AllocateArray<size_t>(num_morsels_);
  seg_begin_ = arena_.AllocateArray<size_t>(cores + 1);
  head_ = arena_.AllocateArray<size_t>(cores);
  tail_ = arena_.AllocateArray<size_t>(cores);
  weights_ = arena_.AllocateArray<double>(num_morsels_);
  estimated_charge_ = arena_.AllocateArray<double>(num_morsels_);
  remaining_weight_ = arena_.AllocateArray<double>(cores);
  executed_cycles_ = arena_.AllocateArray<double>(cores);
  std::copy(weights.begin(), weights.end(), weights_);
  SeedLpt(weights);
}

void WorkQueue::SeedLpt(const std::vector<double>& weights) {
  const auto cores = static_cast<size_t>(num_cores_);
  for (size_t c = 0; c < cores; ++c) {
    remaining_weight_[c] = 0.0;
    executed_cycles_[c] = 0.0;
  }
  for (size_t m = 0; m < num_morsels_; ++m) estimated_charge_[m] = 0.0;

  // LPT: morsels sorted by weight descending (ties in morsel-id order
  // so the seeding is deterministic), each dealt to the least-loaded
  // core so far. Each core's slot segment ends up sorted
  // largest-first, so owners popping the head run their biggest
  // morsels first and the small tail is what gets stolen.
  std::vector<size_t> order(weights.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return weights[a] > weights[b];
  });
  // Pass 1: deal to the least-loaded core, counting segment sizes.
  std::vector<size_t> target(weights.size());
  std::vector<size_t> count(cores, 0);
  std::vector<double> load(cores, 0.0);
  for (size_t m : order) {
    size_t t = 0;
    for (size_t c = 1; c < cores; ++c) {
      if (load[c] < load[t]) t = c;
    }
    target[m] = t;
    ++count[t];
    load[t] += weights[m];
  }
  // Pass 2: lay the segments out contiguously and fill them in deal
  // order (largest-first within each core).
  seg_begin_[0] = 0;
  for (size_t c = 0; c < cores; ++c) {
    seg_begin_[c + 1] = seg_begin_[c] + count[c];
    head_[c] = seg_begin_[c];
    remaining_weight_[c] = load[c];
  }
  std::vector<size_t> cursor(seg_begin_, seg_begin_ + cores);
  for (size_t m : order) {
    slots_[cursor[target[m]]++] = m;
  }
  for (size_t c = 0; c < cores; ++c) tail_[c] = cursor[c];
}

bool WorkQueue::Next(int core_id, size_t* morsel) {
  const size_t cid =
      static_cast<size_t>(core_id) % static_cast<size_t>(num_cores_);
  if (mode_ == SchedMode::kStatic) {
    // Legacy deterministic striding: core c runs c, c+P, c+2P, ...
    size_t& next = static_next_[cid];
    if (next >= num_morsels_) return false;
    *morsel = next;
    next += static_cast<size_t>(num_cores_);
    return true;
  }
  std::lock_guard<std::mutex> lock(mu_);
  const double rate = CyclesPerWeight();
  if (head_[cid] < tail_[cid]) {
    *morsel = slots_[head_[cid]++];
    remaining_weight_[cid] -= weights_[*morsel];
    estimated_charge_[*morsel] = weights_[*morsel] * rate;
    executed_cycles_[cid] += estimated_charge_[*morsel];
    return true;
  }
  // Virtual-time steal: the DPU is simulated, so "who is ahead" is a
  // question of modeled cycles, not host thread wake-up order. Target
  // the victim whose virtual completion time (executed cycles + still
  // queued weight at the observed rate) is largest, and take its
  // smallest tail morsel — but only when this thief would finish that
  // morsel, in virtual time, before the victim's completion. Such a
  // steal strictly lowers the pair's makespan; rejecting everything
  // else keeps the modeled balance independent of host scheduling
  // jitter.
  size_t victim = cid;
  double victim_completion = -1.0;
  for (size_t c = 0; c < static_cast<size_t>(num_cores_); ++c) {
    if (c == cid || head_[c] >= tail_[c]) continue;
    const double completion = executed_cycles_[c] + remaining_weight_[c] * rate;
    if (completion > victim_completion) {
      victim = c;
      victim_completion = completion;
    }
  }
  if (victim == cid) return false;
  const size_t candidate = slots_[tail_[victim] - 1];
  if (executed_cycles_[cid] + weights_[candidate] * rate >= victim_completion) {
    return false;
  }
  *morsel = candidate;
  --tail_[victim];
  remaining_weight_[victim] -= weights_[*morsel];
  estimated_charge_[*morsel] = weights_[*morsel] * rate;
  executed_cycles_[cid] += estimated_charge_[*morsel];
  steals_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

double WorkQueue::CyclesPerWeight() const {
  return charged_weight_ > 0 ? charged_cycles_ / charged_weight_ : 1.0;
}

void WorkQueue::Charge(int core_id, size_t morsel, double cycles) {
  if (mode_ == SchedMode::kStatic) return;
  const size_t cid =
      static_cast<size_t>(core_id) % static_cast<size_t>(num_cores_);
  std::lock_guard<std::mutex> lock(mu_);
  executed_cycles_[cid] += cycles - estimated_charge_[morsel];
  charged_cycles_ += cycles;
  charged_weight_ += weights_[morsel];
}

}  // namespace rapid::dpu
