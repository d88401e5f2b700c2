#include "core/qcomp/task_formation.h"

#include <algorithm>

#include "dpu/work_queue.h"

namespace rapid::core {

namespace {

constexpr size_t kMinTileRows = 64;
constexpr size_t kMaxTileRows = 4096;

size_t GroupDmemBytes(const std::vector<OpProfile>& ops, size_t first,
                      size_t last, size_t tile_rows) {
  size_t bytes = 0;
  for (size_t i = first; i <= last; ++i) {
    bytes += ops[i].state_bytes + ops[i].bytes_per_row * tile_rows;
  }
  return bytes;
}

}  // namespace

Result<size_t> MaxTileRows(const std::vector<OpProfile>& ops, size_t first,
                           size_t last, size_t dmem_bytes) {
  if (GroupDmemBytes(ops, first, last, kMinTileRows) > dmem_bytes) {
    return Status::OutOfMemory("operators do not fit DMEM at minimum tile");
  }
  size_t tile = kMinTileRows;
  while (tile < kMaxTileRows &&
         GroupDmemBytes(ops, first, last, tile * 2) <= dmem_bytes) {
    tile *= 2;
  }
  return tile;
}

Result<double> FormationCycles(const std::vector<OpProfile>& ops,
                               const std::vector<TaskGroup>& tasks,
                               size_t input_rows, size_t input_row_bytes,
                               const dpu::CostParams& params, int num_cores,
                               double largest_morsel_fraction) {
  // Rows and row width flowing into each task follow from cumulative
  // output ratios of preceding operators.
  double cycles = 0;
  double rows = static_cast<double>(input_rows);
  double row_bytes = static_cast<double>(input_row_bytes);
  for (const TaskGroup& task : tasks) {
    // Read the task input from DRAM, write the task output back; the
    // dpCore compute stream runs concurrently (double buffering), so
    // the task costs the max of the two streams plus per-tile setup.
    double out_rows = rows;
    double compute = 0;
    for (size_t i = task.first_op; i <= task.last_op; ++i) {
      compute += ops[i].cycles_per_row * out_rows;
      out_rows *= ops[i].output_ratio;
    }
    const double out_bytes =
        out_rows * static_cast<double>(ops[task.last_op].output_row_bytes);
    const double in_bytes = rows * row_bytes;
    const double transfer =
        (in_bytes + out_bytes) / params.dram_bytes_per_cycle;
    const double tiles =
        std::max(1.0, rows / static_cast<double>(task.tile_rows));
    const double task_total =
        std::max(transfer, compute) +
        tiles * (params.dms_tile_setup_cycles +
                 params.dms_column_switch_cycles);
    // Balanced makespan instead of a perfect round-robin split: the
    // largest morsel's remainder survives any list schedule, LPT
    // included.
    cycles += dpu::BalancedMakespanCycles(
        task_total, task_total * largest_morsel_fraction, num_cores);
    rows = out_rows;
    row_bytes = static_cast<double>(ops[task.last_op].output_row_bytes);
  }
  return cycles;
}

Result<TaskFormation> FormTasks(const std::vector<OpProfile>& ops,
                                size_t dmem_bytes, size_t input_rows,
                                size_t input_row_bytes,
                                const dpu::CostParams& params, int num_cores,
                                double largest_morsel_fraction) {
  if (ops.empty()) {
    return Status::InvalidArgument("task formation needs >= 1 operator");
  }
  const size_t n = ops.size();
  if (n > 16) {
    return Status::NotSupported("task chains beyond 16 operators");
  }

  // Enumerate contiguous segmentations via bitmask over cut points.
  TaskFormation best;
  bool found = false;
  const uint32_t num_cuts = static_cast<uint32_t>(1) << (n - 1);
  for (uint32_t cuts = 0; cuts < num_cuts; ++cuts) {
    std::vector<TaskGroup> tasks;
    size_t first = 0;
    bool feasible = true;
    for (size_t i = 0; i < n; ++i) {
      const bool cut_after = (i + 1 == n) || ((cuts >> i) & 1);
      if (!cut_after) continue;
      auto tile = MaxTileRows(ops, first, i, dmem_bytes);
      if (!tile.ok()) {
        feasible = false;
        break;
      }
      tasks.push_back(TaskGroup{first, i, tile.value()});
      first = i + 1;
    }
    if (!feasible) continue;
    auto cycles = FormationCycles(ops, tasks, input_rows, input_row_bytes,
                                  params, num_cores, largest_morsel_fraction);
    if (!cycles.ok()) continue;
    if (!found || cycles.value() < best.cycles) {
      best.tasks = std::move(tasks);
      best.cycles = cycles.value();
      found = true;
    }
  }
  if (!found) {
    return Status::OutOfMemory(
        "no task formation fits the DMEM budget; split the pipeline");
  }
  return best;
}

}  // namespace rapid::core
