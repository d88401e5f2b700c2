#include "core/qcomp/partition_scheme.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "dpu/work_queue.h"

namespace rapid::core {

namespace {

int NextPow2Int(size_t n) {
  int p = 1;
  while (static_cast<size_t>(p) < n) p <<= 1;
  return p;
}

// Enumerates all factorizations of `remaining` (a power of two) into
// up to `max_rounds` power-of-two factors bounded by `max_fanout`,
// in non-increasing factor order to avoid duplicate permutations
// (cost is order-insensitive in this model; symmetric preference
// breaks ties).
void EnumerateFactorizations(int remaining, int max_fanout, int max_rounds,
                             std::vector<int>* current,
                             std::vector<std::vector<int>>* out) {
  if (remaining == 1) {
    if (!current->empty()) out->push_back(*current);
    return;
  }
  if (max_rounds == 0) return;
  const int cap = current->empty()
                      ? std::min(max_fanout, remaining)
                      : std::min({max_fanout, remaining, current->back()});
  for (int f = cap; f >= 2; f /= 2) {
    if (remaining % f != 0) continue;
    current->push_back(f);
    EnumerateFactorizations(remaining / f, max_fanout, max_rounds - 1, current,
                            out);
    current->pop_back();
  }
}

// Symmetry score: lower is more symmetric (heuristic d).
double SymmetrySpread(const std::vector<int>& factors) {
  int lo = factors.front();
  int hi = factors.front();
  for (int f : factors) {
    lo = std::min(lo, f);
    hi = std::max(hi, f);
  }
  return std::log2(static_cast<double>(hi)) -
         std::log2(static_cast<double>(lo));
}

}  // namespace

int RequiredPartitions(const PartitionPlanInput& in) {
  const size_t total_bytes = in.total_rows * in.row_bytes;
  const size_t by_size =
      (total_bytes + in.dmem_budget_bytes - 1) / in.dmem_budget_bytes;
  const size_t target =
      std::max<size_t>(by_size, static_cast<size_t>(in.min_partitions));
  return NextPow2Int(std::max<size_t>(1, target));
}

double SchemeCycles(const PartitionScheme& scheme,
                    const PartitionPlanInput& in,
                    const dpu::CostParams& params) {
  // Every round scans all rows once. Compute and DMS streams overlap
  // within a round (double buffering), so a round costs
  // max(compute, transfer); rounds serialize.
  double total = 0;
  const double rows = static_cast<double>(in.total_rows);
  const double tiles = std::max(1.0, rows / static_cast<double>(in.tile_rows));
  for (const PartitionRound& round : scheme.rounds) {
    const int sw_fanout = round.fanout / round.hw_fanout;
    double compute = 0;
    if (sw_fanout > 1) {
      compute = tiles * dpu::SwPartitionTileCycles(
                            params, in.tile_rows,
                            static_cast<int>(in.num_columns), sw_fanout);
    } else {
      compute = rows;  // buffer-drain pass for a pure hardware round
    }
    double transfer = dpu::HwPartitionCycles(
        params, dpu::HwPartitionStrategy::kHash, 1, in.total_rows,
        in.total_rows * in.row_bytes);
    // Writing partitions back to DRAM.
    transfer += static_cast<double>(in.total_rows * in.row_bytes) /
                params.partition_bytes_per_cycle;
    // Balanced-makespan spread over the cores: sum/cores plus the
    // remainder the largest morsel adds under any list schedule (LPT
    // included).
    const double round_cycles = std::max(compute, transfer);
    total += dpu::BalancedMakespanCycles(
        round_cycles, round_cycles * in.largest_morsel_fraction, in.num_cores);
  }
  return total;
}

Result<SchemeChoice> OptimizePartitionScheme(const PartitionPlanInput& in,
                                             const dpu::CostParams& params) {
  const int target = RequiredPartitions(in);
  if (target <= 1) {
    return Status::InvalidArgument("partitioning target must exceed 1");
  }

  std::vector<std::vector<int>> factorizations;
  std::vector<int> current;
  EnumerateFactorizations(target, in.max_round_fanout, /*max_rounds=*/4,
                          &current, &factorizations);
  if (factorizations.empty()) {
    return Status::CapacityExceeded(
        "no factorization of the partition target within round limits");
  }

  // Build feasible schemes (per-round software fan-out limits may
  // disqualify a factorization).
  struct Candidate {
    PartitionScheme scheme;
    double spread;
  };
  std::vector<Candidate> candidates;
  for (const std::vector<int>& factors : factorizations) {
    PartitionScheme scheme;
    bool feasible = true;
    for (size_t r = 0; r < factors.size(); ++r) {
      PartitionRound round;
      round.fanout = factors[r];
      // The first round can use the 32-way hardware engine; software
      // fan-out on top is bounded by max_sw_fanout.
      if (r == 0) {
        round.hw_fanout = std::min(32, factors[r]);
        if (factors[r] / round.hw_fanout > in.max_sw_fanout) {
          feasible = false;
          break;
        }
      } else {
        round.hw_fanout = 1;
        if (factors[r] > in.max_sw_fanout) {
          feasible = false;
          break;
        }
      }
      scheme.rounds.push_back(round);
    }
    if (!feasible) continue;
    candidates.push_back(Candidate{scheme, SymmetrySpread(factors)});
  }

  // Heuristic (c): rounds dominate — every round rescans the data, so
  // candidates with more than the minimal feasible round count are
  // pruned before costing.
  size_t min_rounds = SIZE_MAX;
  for (const Candidate& c : candidates) {
    min_rounds = std::min(min_rounds, c.scheme.NumRounds());
  }

  SchemeChoice best;
  bool first = true;
  double best_spread = 0;
  for (const Candidate& candidate : candidates) {
    if (candidate.scheme.NumRounds() != min_rounds) continue;
    const double cycles = SchemeCycles(candidate.scheme, in, params);
    const double spread = candidate.spread;
    // Cheapest wins; near-ties (<1%) go to the more symmetric scheme.
    const bool better =
        first || cycles < best.cycles * 0.99 ||
        (cycles < best.cycles * 1.01 && spread < best_spread);
    if (better) {
      best.scheme = candidate.scheme;
      best.cycles = cycles;
      best.target_fanout = target;
      best_spread = spread;
      first = false;
    }
  }
  if (first) {
    return Status::CapacityExceeded("no feasible partition scheme");
  }
  return best;
}

}  // namespace rapid::core
