#include "core/qcomp/cost_model.h"

#include <algorithm>
#include <cmath>

namespace rapid::core {

double CostEstimator::ScanSeconds(size_t rows, size_t row_bytes,
                                  size_t num_predicates, double selectivity,
                                  double compression_ratio) const {
  const double r = static_cast<double>(rows);
  // First predicate scans everything; later ones scan survivors.
  const double filter_rate = params_.filter_cycles_per_row;
  double compute = filter_rate * r;
  double surviving = r * selectivity;
  for (size_t p = 1; p < num_predicates; ++p) {
    compute += filter_rate * surviving;
  }
  const double ratio = std::max(1.0, compression_ratio);
  if (ratio > 1.0) {
    // Encoded tiles expand in DMEM before the filters run.
    compute += params_.rle_decode_cycles_per_row * r;
  }
  const double transfer = r * static_cast<double>(row_bytes) / ratio /
                          params_.dram_bytes_per_cycle;
  return PerCore(std::max(compute, transfer));
}

double CostEstimator::JoinSeconds(size_t build_rows, size_t probe_rows,
                                  size_t row_bytes, size_t rounds) const {
  const double b = static_cast<double>(build_rows);
  const double p = static_cast<double>(probe_rows);
  const double partition_bytes =
      (b + p) * static_cast<double>(row_bytes) * static_cast<double>(rounds);
  const double partition = partition_bytes / params_.partition_bytes_per_cycle;
  const double build = params_.join_build_cycles_per_row * b;
  const double probe = params_.join_probe_cycles_per_row * p;
  return PerCore(partition + build + probe);
}

double CostEstimator::JoinFilterSeconds(size_t build_rows, size_t probe_rows,
                                        size_t row_bytes, size_t rounds,
                                        double selectivity, double fpr) const {
  const double b = static_cast<double>(build_rows);
  const double p = static_cast<double>(probe_rows);
  const double pass = std::min(1.0, std::max(0.0, selectivity) + fpr);
  const double pruned = p * (1.0 - pass);
  // Cost: every core builds its private filter from the DRAM-resident
  // key column (broadcast-join model), then one blocked-Bloom probe
  // per probe row inside the scan's fused tile loop.
  const double bloom_rate = params_.bloom_probe_cycles_per_row;
  const double cost_cycles =
      params_.bloom_insert_cycles_per_row * b *
          static_cast<double>(config_.num_cores) +
      bloom_rate * p;
  // Saving: pruned rows skip the probe-side partition rounds (DMS
  // round trips in the unfused plan) and the probe kernel itself.
  const double partition_saved =
      pruned * static_cast<double>(row_bytes) * static_cast<double>(rounds) /
      params_.partition_bytes_per_cycle;
  const double probe_saved = params_.join_probe_cycles_per_row * pruned;
  return PerCore(partition_saved + probe_saved - cost_cycles);
}

double CostEstimator::GroupBySeconds(size_t rows, size_t groups,
                                     size_t num_aggs, bool low_ndv) const {
  const double r = static_cast<double>(rows);
  double cycles = (params_.groupby_cycles_per_row +
                   params_.agg_cycles_per_row *
                       static_cast<double>(num_aggs)) *
                  r;
  if (low_ndv) {
    // Merge of 32 per-core tables of `groups` rows each, on one core.
    cycles += params_.groupby_cycles_per_row * static_cast<double>(groups) *
              static_cast<double>(config_.num_cores);
  }
  return PerCore(cycles);
}

double CostEstimator::SortSeconds(size_t rows, size_t key_bytes) const {
  const double passes = static_cast<double>(key_bytes);  // one pass per byte
  return PerCore(params_.sort_cycles_per_row_per_pass *
                 static_cast<double>(rows) * passes);
}

}  // namespace rapid::core
