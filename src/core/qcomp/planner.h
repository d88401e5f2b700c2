// QComp physical planner (Section 5.2).
//
// Lowers a logical tree into a physical plan, making RAPID's physical
// decisions:
//   * predicate ordering (most selective first) and qualifying-row
//     representation (RID list below 1/32 selectivity),
//   * task formation / tile-size selection under the DMEM budget,
//   * partition-scheme optimization for joins and high-NDV group-bys,
//     across operators: a join reads a partition already planned over
//     its input on its keys when that is cheaper than a pass of its own,
//   * common scans: identical table-source scans lower to one step,
//   * group-by strategy (low-NDV on-the-fly + merge vs partitioned),
//   * build/probe side selection by estimated cardinality,
//   * skew-resilience parameters (DMEM capacities, estimates).

#ifndef RAPID_CORE_QCOMP_PLANNER_H_
#define RAPID_CORE_QCOMP_PLANNER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "core/qcomp/logical_plan.h"
#include "core/qcomp/steps.h"
#include "dpu/config.h"
#include "dpu/cost_model.h"
#include "storage/table.h"

namespace rapid::core {

using Catalog = std::unordered_map<std::string, storage::Table>;

struct PlannerOptions {
  // Group count below which the on-the-fly + merge strategy is used.
  size_t low_ndv_threshold = 8192;
  // Override the DMEM build capacity per join kernel (0 = derive from
  // the DMEM budget); lowering it forces the small-skew overflow path.
  size_t join_dmem_capacity_rows = 0;
  // Enable heavy-hitter (flow-join) detection at this per-key count
  // (0 = disabled).
  size_t heavy_hitter_threshold = 0;
  // Large-skew repartition factor.
  double large_skew_factor = 4.0;
  // Force the join partition fan-out (0 = optimizer decides).
  int force_join_fanout = 0;
  // High-NDV group-by: partitions above this row count re-partition at
  // runtime (0 = derive from the DMEM budget).
  size_t groupby_max_partition_rows = 0;
  // Tile-pipeline fusion: fuse maximal scan/filter/project/probe runs
  // into single-round PipelineSteps (skipped automatically when skew
  // knobs above force the partitioned join paths).
  bool enable_fusion = true;
  // Broadcast-probe gate: joins whose estimated build side exceeds
  // this stay partitioned. Default keeps the per-core table within the
  // 32 KiB DMEM scratchpad.
  size_t fusion_max_build_rows = 8192;
};

// Estimated selectivity of a predicate from column statistics.
double EstimateSelectivity(const storage::ColumnStats& stats,
                           const Predicate& pred);

class Planner {
 public:
  Planner(const dpu::DpuConfig& config, const dpu::CostParams& params,
          PlannerOptions options = PlannerOptions{})
      : config_(config), params_(params), options_(options) {}

  Result<PhysicalPlan> Plan(const LogicalPtr& root, const Catalog& catalog);

 private:
  struct Lowered {
    int step = -1;
    double est_rows = 0;
    // Base table the subtree scans (empty if not a plain scan chain);
    // lets group-by/join planning reach NDV statistics.
    std::string base_table;
    // Output column names of the step, in position order.
    std::vector<std::string> columns;
  };

  // Lowers `node` (whose position in the logical tree is `path`: ""
  // at the root, then '0' per input/left edge and '1' per right edge)
  // and records the step that materializes the subtree's rows in
  // plan->subtree_steps, so a failed execution can hand completed
  // subtree results back to the host fallback.
  Result<Lowered> Lower(const LogicalNode& node, const Catalog& catalog,
                        PhysicalPlan* plan, const std::string& path);

  Result<Lowered> LowerImpl(const LogicalNode& node, const Catalog& catalog,
                            PhysicalPlan* plan, const std::string& path);

  Result<Lowered> LowerScan(const LogicalNode& node, const Catalog& catalog,
                            PhysicalPlan* plan,
                            std::vector<std::pair<std::string, ExprPtr>>
                                projections);

  // Returns the step partitioning `input` on `keys` with `scheme`,
  // adding (and recording) one when the plan has none yet.
  int AddPartition(PhysicalPlan* plan, int input,
                   const std::vector<std::string>& keys,
                   const PartitionScheme& scheme, int fanout);

  // A table-source scan lowered in this plan: a later scan with an
  // identical lowered spec reuses its step (the scan memo).
  struct MemoScan {
    Lowered lowered;
    bool shared = false;  // a second consumer reuses the step
  };
  // A hash partition planned over a step: its input, key columns,
  // scheme and target fan-out.
  struct PlannedPartition {
    int step = -1;
    int input = -1;
    std::vector<std::string> keys;
    PartitionScheme scheme;
    int fanout = 0;
  };

  dpu::DpuConfig config_;
  dpu::CostParams params_;
  PlannerOptions options_;
  // Per Plan() call.
  std::vector<MemoScan> scans_;
  std::vector<PlannedPartition> partitions_;
};

}  // namespace rapid::core

#endif  // RAPID_CORE_QCOMP_PLANNER_H_
