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

MorselSchedule LptSchedule(const std::vector<double>& weights,
                           int num_cores) {
  const size_t cores = num_cores < 1 ? 1 : static_cast<size_t>(num_cores);
  std::vector<size_t> order(weights.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return weights[a] > weights[b];
  });

  // Deal largest-first to the least-loaded core (lowest id on ties),
  // counting each core's segment size in begin[c + 1].
  MorselSchedule schedule;
  schedule.begin.assign(cores + 1, 0);
  std::vector<size_t> target(order.size());
  std::vector<double> load(cores, 0.0);
  for (size_t i = 0; i < order.size(); ++i) {
    size_t t = 0;
    for (size_t c = 1; c < cores; ++c) {
      if (load[c] < load[t]) t = c;
    }
    target[i] = t;
    load[t] += weights[order[i]];
    ++schedule.begin[t + 1];
  }
  std::partial_sum(schedule.begin.begin(), schedule.begin.end(),
                   schedule.begin.begin());

  // Lay the segments out contiguously in deal order, so each core's
  // segment is largest-first.
  schedule.morsels.resize(order.size());
  std::vector<size_t> cursor(schedule.begin.begin(),
                             schedule.begin.end() - 1);
  for (size_t i = 0; i < order.size(); ++i) {
    schedule.morsels[cursor[target[i]]++] = order[i];
  }
  return schedule;
}

}  // namespace rapid::dpu
