// Pipeline fusion (QComp post-pass).
//
// Rewrites a lowered PhysicalPlan. The planner emits every scan, every
// filter/project over an intermediate and every low-NDV group-by as a
// one-stage PipelineStep; this pass extends those into maximal runs of
// pipeline-safe stages — filter, project and small-build hash-join
// probes — that execute as a single ParallelFor round with the whole
// operator chain DMEM-resident. A low-NDV group-by can end such a run
// as its aggregate sink, a partition pass as its partition sink.
// Pipeline breakers (join build, a partition pass over a breaker's
// output, high-NDV group-by, sort, set ops, windows) remain barriers. A
// chain nothing fused into is emitted as the one-stage pipeline it was.
//
// Fusion rules:
//   * A filter/project extends the chain below it when every
//     intermediate step has exactly one consumer (its output is never
//     re-read).
//   * A partitioned join collapses into a broadcast probe stage when
//     the estimated build side is small (<= max_build_rows and no
//     larger than the probe side): both PartitionSteps and the
//     JoinStep disappear, the build producer stays materialized, and
//     each dpCore builds a private DMEM hash table over it.
//   * A low-NDV group-by's aggregate stage extends a single-consumer
//     chain as a filter/project does, as the chain's terminal stage:
//     no rows are materialized between scan and aggregation. The chain
//     then ends; its output is the group-by's. A group-by that extends
//     nothing is emitted in place, as a breaker is.
//   * A partition pass that no broadcast probe absorbs, over a
//     single-consumer chain, becomes the chain's terminal partition
//     stage: the chain's tiles scatter into the first round's buckets
//     instead of being stored and read back, and later rounds run as
//     the step's tail. The step's output is the partition step's, and
//     so is its "X#p" checkpoint address; the chain's own "X" address
//     disappears. A table-source chain over a table another chain of
//     the plan also reads keeps its partition apart, so it can still
//     share its scan.
//   * A candidate chain is only fused if task formation's MaxTileRows
//     confirms the whole chain's working set fits the DMEM budget at
//     some tile size. An aggregate stage budgets its estimated group
//     table (keys, states, buckets and links) as resident state, a
//     partition stage its round's software fan-out staging.
//   * Shared scans: the finished table-source chains that read the
//     same table merge into one PipelineStep with one branch per chain,
//     so the DMS moves each tile once for all of them (identical scans
//     never get here: the planner lowers them to one step). A chain
//     joins a group only if the merge leaves the step DAG acyclic, one
//     tile transfer of the union of the columns costs fewer DMS cycles
//     than one per member, and the group fits DMEM with the branches'
//     tile scratch overlaid.
//     Aggregate- and partition-terminated chains are never shared.
//     Branch k >= 1's rows move to a BranchStep of their own.

#ifndef RAPID_CORE_QCOMP_PIPELINE_FUSION_H_
#define RAPID_CORE_QCOMP_PIPELINE_FUSION_H_

#include <string>
#include <unordered_map>

#include "core/qcomp/steps.h"
#include "dpu/config.h"
#include "dpu/cost_model.h"
#include "storage/table.h"

namespace rapid::core {

// Returns the fused plan (steps renumbered 0..n-1 in execution order).
// `max_build_rows` gates broadcast-probe fusion; 0 disables probe
// fusion but still fuses scan/filter/project chains. `params` supplies
// the DMS cost the shared-scan gate compares. `catalog` (optional)
// lets the gates budget DMEM for the encoded scan path's run-staging
// buffers on compressed base columns and price transfers at the
// columns' widths; without it they assume plain 8-byte tiles.
Result<PhysicalPlan> FusePipelines(
    PhysicalPlan plan, const dpu::DpuConfig& config, size_t max_build_rows,
    const dpu::CostParams& params,
    const std::unordered_map<std::string, storage::Table>* catalog = nullptr);

}  // namespace rapid::core

#endif  // RAPID_CORE_QCOMP_PIPELINE_FUSION_H_
