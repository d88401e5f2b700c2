// Task formation and DMEM sharing (Section 5.2, Figure 4).
//
// A task is a group of physical operators executed together without
// preemption: operators inside a task pipeline tiles through DMEM and
// only task boundaries materialize to DRAM. More operators per task
// means less materialization but smaller vectors (DMEM is shared);
// fewer operators per task allow larger vectors. The optimizer
// enumerates contiguous groupings of the operator chain, computes the
// largest feasible vector size for each task under the 32 KiB DMEM
// budget, costs every candidate and picks the cheapest.

#ifndef RAPID_CORE_QCOMP_TASK_FORMATION_H_
#define RAPID_CORE_QCOMP_TASK_FORMATION_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"
#include "dpu/cost_model.h"

namespace rapid::core {

// DMEM profile of one operator, declared at implementation time
// ("each RAPID operator declares its internal state and data structure
// sizes").
struct OpProfile {
  std::string name;
  size_t state_bytes = 0;      // fixed internal state
  size_t bytes_per_row = 8;    // DMEM per tile row (input+output vectors)
  double output_ratio = 1.0;   // rows out per row in (selectivity etc.)
  size_t output_row_bytes = 8; // width of a materialized output row
  // dpCore compute per input row. 0 models a transfer-bound operator;
  // with all profiles at 0 FormationCycles degenerates to the
  // pure-transfer model, so existing callers are unchanged.
  double cycles_per_row = 0.0;
};

struct TaskGroup {
  size_t first_op = 0;  // inclusive
  size_t last_op = 0;   // inclusive
  size_t tile_rows = 64;
};

struct TaskFormation {
  std::vector<TaskGroup> tasks;
  double cycles = 0;  // modeled materialization + per-tile overhead cost
};

// Enumerates groupings of the operator chain and returns the cheapest
// formation. `input_rows`/`input_row_bytes` describe the task chain's
// base input; `dmem_bytes` is the per-core scratchpad budget.
// `num_cores`/`largest_morsel_fraction` select the balanced-makespan
// division of each task's work (sum/cores + largest-morsel remainder);
// the defaults reproduce the single-core (undivided) cost, so existing
// callers are unchanged.
Result<TaskFormation> FormTasks(const std::vector<OpProfile>& ops,
                                size_t dmem_bytes, size_t input_rows,
                                size_t input_row_bytes,
                                const dpu::CostParams& params,
                                int num_cores = 1,
                                double largest_morsel_fraction = 0.0);

// Cost of one specific grouping (exposed for the Figure 4 benchmark).
Result<double> FormationCycles(const std::vector<OpProfile>& ops,
                               const std::vector<TaskGroup>& tasks,
                               size_t input_rows, size_t input_row_bytes,
                               const dpu::CostParams& params,
                               int num_cores = 1,
                               double largest_morsel_fraction = 0.0);

// Largest tile size (power of two, >= 64) such that the ops in
// [first, last] fit the DMEM budget together, or an error if even the
// minimum tile does not fit.
Result<size_t> MaxTileRows(const std::vector<OpProfile>& ops, size_t first,
                           size_t last, size_t dmem_bytes);

}  // namespace rapid::core

#endif  // RAPID_CORE_QCOMP_TASK_FORMATION_H_
