#include "core/qcomp/pipeline_fusion.h"

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/config.h"
#include "common/trace.h"
#include "core/qcomp/task_formation.h"
#include "primitives/bloom.h"

namespace rapid::core {

namespace {

// Column names an expression list reads (deduplicated, in order).
std::vector<std::string> ExprColumns(
    const std::vector<std::pair<std::string, ExprPtr>>& projections) {
  std::vector<std::string> cols;
  for (const auto& [name, expr] : projections) {
    std::vector<std::string> refs;
    expr->CollectColumns(&refs);
    for (const auto& r : refs) {
      if (std::find(cols.begin(), cols.end(), r) == cols.end()) {
        cols.push_back(r);
      }
    }
  }
  return cols;
}

// A pipeline-safe chain accumulated but not yet emitted. Keyed by the
// old id of the last absorbed step; flushed (as the original step when
// nothing fused, as a PipelineStep otherwise) the first time a
// non-fusable consumer needs it.
struct Desc {
  std::string table;                     // base-table source, or
  int input = -1;                        // old id of intermediate source
  std::vector<std::string> base_columns;
  std::vector<PipelineStageSpec> stages;
  size_t tile_rows = 1024;
  bool use_rid_list = false;
  size_t fused_steps = 1;  // original steps absorbed into this chain
  int original = -1;       // old id of the sole step when fused_steps == 1
};

class Fuser {
 public:
  Fuser(PhysicalPlan plan, const dpu::DpuConfig& config, size_t max_build_rows,
        const dpu::CostParams& params,
        const std::unordered_map<std::string, storage::Table>* catalog)
      : plan_(std::move(plan)),
        config_(config),
        max_build_rows_(max_build_rows),
        params_(params),
        catalog_(catalog),
        old_to_new_(plan_.steps.size(), -1),
        consumers_(plan_.steps.size(), 0) {}

  Result<PhysicalPlan> Run();

 private:
  Result<int> Materialize(int old_id);
  Status HandleJoin(int id, JoinStep* join);
  bool ChainFitsDmem(const Desc& desc, const PipelineStageSpec* extra) const;

  PhysicalPlan plan_;
  const dpu::DpuConfig& config_;
  const size_t max_build_rows_;
  const dpu::CostParams& params_;
  const std::unordered_map<std::string, storage::Table>* catalog_;

  PhysicalPlan out_;
  std::vector<int> old_to_new_;
  std::vector<int> consumers_;
  std::unordered_map<int, Desc> pending_;
  std::unordered_set<int> deferred_partitions_;
};

// Checks via task formation that the chain (plus an optional extra
// stage) fits the per-core DMEM budget at some tile size.
bool Fuser::ChainFitsDmem(const Desc& desc,
                          const PipelineStageSpec* extra) const {
  std::vector<OpProfile> profiles;
  const size_t src_cols =
      desc.table.empty() ? 4 : std::max<size_t>(1, desc.base_columns.size());
  // Encoded scans stage each compressed base column's runs (values +
  // lengths, double-buffered) alongside the plain tile; the gate must
  // budget that extra DMEM or fusion could admit a chain the accessor
  // then degrades to plain transfers.
  size_t staging_bytes = 0;
  double decode_rate = 0.0;
  if (catalog_ != nullptr && !desc.table.empty() &&
      GetConfig().encoded_scan == EncodedScanMode::kAuto) {
    auto it = catalog_->find(desc.table);
    if (it != catalog_->end()) {
      const storage::Table& t = it->second;
      for (const std::string& c : desc.base_columns) {
        auto idx = t.schema().IndexOf(c);
        if (!idx.ok()) continue;
        const double ratio = t.stats(idx.value()).compression_ratio;
        if (ratio <= 1.05) continue;
        const size_t w =
            storage::WidthOf(t.schema().field(idx.value()).type);
        staging_bytes += static_cast<size_t>(
            2.0 * static_cast<double>(w) / ratio + 1.0);
        decode_rate +=
            params_.rle_decode_cycles_per_row / params_.simd.rle;
      }
    }
  }
  profiles.push_back({"accessor", 64, 2 * 8 * src_cols + staging_bytes, 1.0,
                      8 * src_cols, decode_rate});

  // Per-row compute rates reflect the dispatched SIMD kernels so the
  // gate's formation profiles match what execution will charge.
  const double filter_rate =
      params_.filter_cycles_per_row / params_.simd.filter;
  const double arith_rate = params_.arith_cycles_per_row / params_.simd.arith;
  const double probe_rate = params_.join_probe_cycles_per_row +
                            params_.hash_cycles_per_row / params_.simd.hash;
  auto add_stage = [&](const PipelineStageSpec& stage) {
    if (stage.kind == PipelineStageSpec::Kind::kFilterProject) {
      const size_t pass = ExprColumns(stage.projections).size();
      // A pushed join filter keeps its blocked Bloom filter resident
      // beside the tiles and adds one probe per row. Budgeted here
      // whether or not the runtime gate is on, so fusion decisions
      // are identical off/on.
      size_t jf_bytes = 0;
      double rate = filter_rate;
      if (stage.join_filter.enabled()) {
        const auto ndv = static_cast<size_t>(
            std::max(1.0, stage.join_filter.est_build_ndv));
        jf_bytes = primitives::kBloomBlockBytes *
                   primitives::BlockedBloomFilter::BlocksForNdv(
                       ndv, config_.dmem_bytes / 4);
        rate += params_.bloom_probe_cycles_per_row / params_.simd.bloom;
      }
      profiles.push_back(
          {"filter", 64 + jf_bytes, 8 * (pass + 1), 1.0, 8, rate});
      profiles.push_back(
          {"project", 64, 8 * std::max<size_t>(1, stage.projections.size()),
           1.0, 8 * std::max<size_t>(1, stage.projections.size()),
           arith_rate});
    } else {
      // Broadcast table: ~6 bytes/build row covers bucket heads plus
      // chain links at the capacities the gate admits.
      const size_t table_bytes = 6 * std::max<size_t>(64, stage.join_spec.est_build_rows);
      const size_t out_width = 8 * std::max<size_t>(1, stage.output_columns.size());
      profiles.push_back(
          {"probe", table_bytes, out_width + 8, 1.0, out_width, probe_rate});
    }
  };
  for (const auto& stage : desc.stages) add_stage(stage);
  if (extra != nullptr) add_stage(*extra);

  return MaxTileRows(profiles, 0, profiles.size() - 1, config_.dmem_bytes).ok();
}

Result<int> Fuser::Materialize(int old_id) {
  if (old_to_new_[static_cast<size_t>(old_id)] >= 0) {
    return old_to_new_[static_cast<size_t>(old_id)];
  }

  auto pit = pending_.find(old_id);
  if (pit != pending_.end()) {
    Desc desc = std::move(pit->second);
    pending_.erase(pit);
    int new_input = -1;
    if (desc.table.empty()) {
      RAPID_ASSIGN_OR_RETURN(new_input, Materialize(desc.input));
    }
    // A pushed join-filter ref must resolve before this chain is
    // numbered: the build terminal has to be emitted — and therefore
    // execute — ahead of the scan that reads its output. The ScanStep
    // re-emission path below resolves through RemapInputs instead;
    // materializing here makes the old->new mapping valid for both.
    if (!desc.stages.empty() && desc.stages.front().join_filter.enabled()) {
      RAPID_ASSIGN_OR_RETURN(
          desc.stages.front().join_filter.build_step,
          Materialize(desc.stages.front().join_filter.build_step));
    }
    const int nid = static_cast<int>(out_.steps.size());
    const bool has_probe = std::any_of(
        desc.stages.begin(), desc.stages.end(), [](const PipelineStageSpec& s) {
          return s.kind == PipelineStageSpec::Kind::kProbe;
        });
    if (desc.fused_steps == 1 && !has_probe) {
      // Nothing fused: keep the original step (renumbered).
      auto step = std::move(plan_.steps[static_cast<size_t>(desc.original)]);
      step->RemapInputs(old_to_new_);
      step->set_id(nid);
      out_.steps.push_back(std::move(step));
    } else {
      out_.steps.push_back(std::make_unique<PipelineStep>(
          nid, desc.table, std::move(desc.base_columns), new_input,
          std::move(desc.stages), desc.tile_rows, desc.use_rid_list));
    }
    old_to_new_[static_cast<size_t>(old_id)] = nid;
    return nid;
  }

  if (deferred_partitions_.count(old_id) > 0) {
    deferred_partitions_.erase(old_id);
    auto* part =
        static_cast<PartitionStep*>(plan_.steps[static_cast<size_t>(old_id)].get());
    RAPID_RETURN_NOT_OK(Materialize(part->input()).status());
    auto step = std::move(plan_.steps[static_cast<size_t>(old_id)]);
    const int nid = static_cast<int>(out_.steps.size());
    step->RemapInputs(old_to_new_);
    step->set_id(nid);
    out_.steps.push_back(std::move(step));
    old_to_new_[static_cast<size_t>(old_id)] = nid;
    return nid;
  }

  return Status::Internal("pipeline fusion: step #" + std::to_string(old_id) +
                          " has no pending chain and was never emitted");
}

Status Fuser::HandleJoin(int id, JoinStep* join) {
  const int build_part = join->build_input();
  const int probe_part = join->probe_input();

  // Broadcast-probe eligibility: both inputs are single-consumer
  // PartitionSteps, the probe partition's producer is a pending
  // single-consumer chain, the planner estimates a small build side,
  // and the extended chain still fits DMEM.
  bool fuse = max_build_rows_ > 0 &&
              deferred_partitions_.count(build_part) > 0 &&
              deferred_partitions_.count(probe_part) > 0 &&
              consumers_[static_cast<size_t>(build_part)] == 1 &&
              consumers_[static_cast<size_t>(probe_part)] == 1;
  int build_src = -1;
  int probe_src = -1;
  if (fuse) {
    build_src = static_cast<PartitionStep*>(
                    plan_.steps[static_cast<size_t>(build_part)].get())
                    ->input();
    probe_src = static_cast<PartitionStep*>(
                    plan_.steps[static_cast<size_t>(probe_part)].get())
                    ->input();
    const JoinSpec& spec = join->spec_template();
    // Broadcast-cost gate: each participating core re-reads the build
    // side, which must stay below the movement fusion eliminates —
    // both partition passes (~2 x build + 2 x probe) plus the
    // probe-side scan materialization (~1 x probe... folded as
    // 2 x probe + 3 x build). The morsel scheduler builds the chain
    // lazily per core, so a small probe side (few morsels at the
    // ~64-row minimum granularity) engages — and pays the broadcast
    // on — fewer than num_cores cores.
    const size_t participating = std::min<size_t>(
        static_cast<size_t>(config_.num_cores),
        std::max<size_t>(1, spec.est_probe_rows / 64));
    const size_t broadcast_rows = participating * spec.est_build_rows;
    const size_t saved_rows = 3 * spec.est_build_rows + 2 * spec.est_probe_rows;
    fuse = pending_.count(probe_src) > 0 &&
           consumers_[static_cast<size_t>(probe_src)] == 1 &&
           spec.est_build_rows > 0 &&
           spec.est_build_rows <= max_build_rows_ &&
           spec.est_build_rows <= std::max<size_t>(1, spec.est_probe_rows) &&
           broadcast_rows <= saved_rows;
    // The broadcast-gate numbers behind the decision, on the planner
    // track (the DMEM fit check below may still veto the fusion).
    TraceSpan span(TraceMode::kSummary, TraceCollector::kTrackPlanner,
                   "fusion.broadcast_gate");
    span.Annotate("build_rows", static_cast<int64_t>(spec.est_build_rows));
    span.Annotate("probe_rows", static_cast<int64_t>(spec.est_probe_rows));
    span.Annotate("participating", static_cast<int64_t>(participating));
    span.Annotate("broadcast_rows", static_cast<int64_t>(broadcast_rows));
    span.Annotate("saved_rows", static_cast<int64_t>(saved_rows));
    span.Annotate("fuse", fuse ? int64_t{1} : int64_t{0});
  }
  if (fuse) {
    PipelineStageSpec stage;
    stage.kind = PipelineStageSpec::Kind::kProbe;
    stage.build_keys = join->build_keys();
    stage.probe_keys = join->probe_keys();
    stage.output_columns = join->output_columns();
    stage.join_type = join->type();
    stage.join_spec = join->spec_template();
    // The broadcast table holds the whole (unpartitioned) build side.
    stage.join_spec.dmem_capacity_rows =
        std::max<size_t>(1024, 2 * stage.join_spec.est_build_rows);
    fuse = ChainFitsDmem(pending_.at(probe_src), &stage);
    if (fuse) {
      RAPID_ASSIGN_OR_RETURN(stage.build_input, Materialize(build_src));
      Desc desc = std::move(pending_.at(probe_src));
      pending_.erase(probe_src);
      desc.stages.push_back(std::move(stage));
      desc.fused_steps += 3;  // both partitions + the join itself
      deferred_partitions_.erase(build_part);
      deferred_partitions_.erase(probe_part);
      plan_.steps[static_cast<size_t>(build_part)].reset();
      plan_.steps[static_cast<size_t>(probe_part)].reset();
      pending_.emplace(id, std::move(desc));
      return Status::OK();
    }
  }

  // Not fusable: keep the partitioned join as-is.
  RAPID_RETURN_NOT_OK(Materialize(build_part).status());
  RAPID_RETURN_NOT_OK(Materialize(probe_part).status());
  auto step = std::move(plan_.steps[static_cast<size_t>(id)]);
  const int nid = static_cast<int>(out_.steps.size());
  step->RemapInputs(old_to_new_);
  step->set_id(nid);
  out_.steps.push_back(std::move(step));
  old_to_new_[static_cast<size_t>(id)] = nid;
  return Status::OK();
}

Result<PhysicalPlan> Fuser::Run() {
  const size_t n = plan_.steps.size();
  if (plan_.root < 0 || static_cast<size_t>(plan_.root) >= n) {
    return std::move(plan_);
  }
  for (const auto& step : plan_.steps) {
    for (int in : step->Inputs()) ++consumers_[static_cast<size_t>(in)];
  }
  ++consumers_[static_cast<size_t>(plan_.root)];  // the query result itself

  for (size_t id = 0; id < n; ++id) {
    PlanStep* step = plan_.steps[id].get();
    if (step == nullptr) continue;  // partition absorbed by a fused probe

    if (auto* scan = dynamic_cast<ScanStep*>(step)) {
      Desc desc;
      desc.table = scan->table();
      desc.base_columns = scan->base_columns();
      desc.tile_rows = scan->tile_rows();
      desc.use_rid_list = scan->use_rid_list();
      desc.original = static_cast<int>(id);
      PipelineStageSpec stage;
      stage.predicates = scan->predicates();
      stage.projections = scan->projections();
      stage.join_filter = scan->join_filter();
      desc.stages.push_back(std::move(stage));
      pending_.emplace(static_cast<int>(id), std::move(desc));
      continue;
    }

    if (auto* pipe = dynamic_cast<PipeStep*>(step)) {
      PipelineStageSpec stage;
      stage.predicates = pipe->predicates();
      stage.projections = pipe->projections();
      const int in = pipe->input();
      auto pit = pending_.find(in);
      if (pit != pending_.end() && consumers_[static_cast<size_t>(in)] == 1 &&
          ChainFitsDmem(pit->second, &stage)) {
        Desc desc = std::move(pit->second);
        pending_.erase(pit);
        desc.stages.push_back(std::move(stage));
        desc.tile_rows = std::min(desc.tile_rows, pipe->tile_rows());
        ++desc.fused_steps;
        pending_.emplace(static_cast<int>(id), std::move(desc));
      } else {
        Desc desc;
        desc.input = in;
        desc.tile_rows = pipe->tile_rows();
        desc.original = static_cast<int>(id);
        desc.stages.push_back(std::move(stage));
        pending_.emplace(static_cast<int>(id), std::move(desc));
      }
      continue;
    }

    if (dynamic_cast<PartitionStep*>(step) != nullptr) {
      // Emission deferred: a fusable join consumes it without ever
      // materializing the partitioned sets.
      deferred_partitions_.insert(static_cast<int>(id));
      continue;
    }

    if (auto* join = dynamic_cast<JoinStep*>(step)) {
      RAPID_RETURN_NOT_OK(HandleJoin(static_cast<int>(id), join));
      continue;
    }

    // Pipeline breaker (group-by, sort, top-k, set op, window, ...):
    // materialize its inputs and re-emit it unchanged.
    for (int in : step->Inputs()) {
      RAPID_RETURN_NOT_OK(Materialize(in).status());
    }
    auto owned = std::move(plan_.steps[id]);
    const int nid = static_cast<int>(out_.steps.size());
    owned->RemapInputs(old_to_new_);
    owned->set_id(nid);
    out_.steps.push_back(std::move(owned));
    old_to_new_[id] = nid;
  }

  RAPID_ASSIGN_OR_RETURN(out_.root, Materialize(plan_.root));

  // Flush anything unreachable from the root (defensive: lowered plans
  // should not produce dead steps, but never silently drop them).
  for (size_t id = 0; id < n; ++id) {
    if (old_to_new_[id] < 0 &&
        (pending_.count(static_cast<int>(id)) > 0 ||
         deferred_partitions_.count(static_cast<int>(id)) > 0)) {
      RAPID_RETURN_NOT_OK(Materialize(static_cast<int>(id)).status());
    }
  }
  // Carry the planner's subtree map across the renumbering. An old
  // step has old_to_new_ >= 0 exactly when its output survives as a
  // step of the fused plan (a chain's terminal maps to its pipeline);
  // steps absorbed mid-pipeline never materialize their rows, so
  // their subtree entries are dropped. "#p" partition addresses ride
  // the same remap: a partition step absorbed by a broadcast-probe
  // rewrite maps to -1 and its checkpoint address disappears with it.
  for (const auto& [path, old_id] : plan_.subtree_steps) {
    const int nid = old_to_new_[static_cast<size_t>(old_id)];
    if (nid >= 0) out_.subtree_steps.emplace_back(path, nid);
  }
  return std::move(out_);
}

}  // namespace

Result<PhysicalPlan> FusePipelines(
    PhysicalPlan plan, const dpu::DpuConfig& config, size_t max_build_rows,
    const dpu::CostParams& params,
    const std::unordered_map<std::string, storage::Table>* catalog) {
  Fuser fuser(std::move(plan), config, max_build_rows, params, catalog);
  return fuser.Run();
}

}  // namespace rapid::core
