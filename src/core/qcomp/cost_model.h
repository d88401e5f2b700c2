// QComp cost estimation (Section 5.2).
//
// "Running on bare-metal without an operating system, RAPID has all
// the resources under complete control. Hence, the cost model is
// quite deterministic and accurate." Costs are analytically modeled
// on top of the calibrated data-transfer and compute cost functions
// in dpu/cost_model.h, considering the overlap between the two.
// The host's offload planner (hostdb/) uses these estimates to take
// cost-based offload decisions.

#ifndef RAPID_CORE_QCOMP_COST_MODEL_H_
#define RAPID_CORE_QCOMP_COST_MODEL_H_

#include <cstddef>

#include "dpu/config.h"
#include "dpu/cost_model.h"
#include "dpu/work_queue.h"

namespace rapid::core {

class CostEstimator {
 public:
  CostEstimator(const dpu::DpuConfig& config, const dpu::CostParams& params)
      : config_(config), params_(params) {}

  // Skew knob for the balanced-makespan estimate: the largest single
  // morsel's share of a phase's total cycles. 0 (default) models
  // perfectly balanced morsels (cycles / num_cores, the old
  // round-robin assumption); larger fractions grow every estimate by
  // the remainder a straggler morsel adds under any list schedule,
  // LPT included.
  void set_largest_morsel_fraction(double fraction) {
    largest_morsel_fraction_ = fraction < 0 ? 0 : fraction;
  }
  double largest_morsel_fraction() const { return largest_morsel_fraction_; }

  // Scan + filter over `rows` rows of `row_bytes` each with
  // `num_predicates` conjuncts at `selectivity` combined selectivity:
  // transfer and compute overlap (double buffering), work spread over
  // all cores. `compression_ratio` (plain bytes / encoded bytes, >= 1)
  // models the encoded scan path: the DMS moves row_bytes /
  // compression_ratio and the cores pay the RLE expansion rate on top
  // of the filter.
  double ScanSeconds(size_t rows, size_t row_bytes, size_t num_predicates,
                     double selectivity, double compression_ratio = 1.0) const;

  // Partitioned hash join: `rounds` partition passes over both inputs
  // plus build and probe kernels.
  double JoinSeconds(size_t build_rows, size_t probe_rows, size_t row_bytes,
                     size_t rounds) const;

  // Net modeled seconds SAVED by pushing a build-side Bloom filter
  // into the probe-side scan (sideways information passing). Balances
  // the filter's cost (per-core build over `build_rows` inserts plus
  // one probe per probe row) against the partition/build/probe work
  // the pruned rows no longer pay: probe rows shrink by
  // (1 - pass_rate) where pass_rate = selectivity + fpr. Positive
  // means the pushdown pays for itself; the planner attaches the ref
  // iff this is > 0, independent of the RAPID_JOIN_FILTER gate.
  double JoinFilterSeconds(size_t build_rows, size_t probe_rows,
                           size_t row_bytes, size_t rounds,
                           double selectivity, double fpr) const;

  // Group-by over `rows` with `groups` distinct groups; the low-NDV
  // strategy adds a merge of per-core tables.
  double GroupBySeconds(size_t rows, size_t groups, size_t num_aggs,
                        bool low_ndv) const;

  double SortSeconds(size_t rows, size_t key_bytes) const;

  const dpu::DpuConfig& config() const { return config_; }

 private:
  // Balanced-makespan division (Graham bound) instead of assuming the
  // static round-robin split is perfect: total/cores plus the
  // remainder contributed by the largest morsel.
  double PerCore(double cycles) const {
    return dpu::BalancedMakespanCycles(cycles,
                                       cycles * largest_morsel_fraction_,
                                       config_.num_cores) /
           params_.clock_hz;
  }

  dpu::DpuConfig config_;
  dpu::CostParams params_;
  double largest_morsel_fraction_ = 0.0;
};

}  // namespace rapid::core

#endif  // RAPID_CORE_QCOMP_COST_MODEL_H_
