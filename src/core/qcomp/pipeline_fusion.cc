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

// A pipeline-safe chain accumulated but not yet emitted is kept as the
// spec of the PipelineStep it will become, keyed by the old id of its
// last absorbed step, and flushed the first time a non-fusable
// consumer needs it. A chain ending in an aggregate stage emits groups,
// not tiles: nothing further can be appended to it.
bool Extendable(const PipelineSpec& chain) {
  return chain.stages.back().kind != PipelineStageSpec::Kind::kAggregate;
}

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
  bool FuseAggregate(int id, const GroupByStep& group_by);
  bool ChainFitsDmem(const PipelineSpec& desc,
                     const PipelineStageSpec* extra) const;

  PhysicalPlan plan_;
  const dpu::DpuConfig& config_;
  const size_t max_build_rows_;
  const dpu::CostParams& params_;
  const std::unordered_map<std::string, storage::Table>* catalog_;

  PhysicalPlan out_;
  std::vector<int> old_to_new_;
  std::vector<int> consumers_;
  std::unordered_map<int, PipelineSpec> pending_;
  std::unordered_set<int> deferred_partitions_;
};

// Checks via task formation that the chain (plus an optional extra
// stage) fits the per-core DMEM budget at some tile size.
bool Fuser::ChainFitsDmem(const PipelineSpec& desc,
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
      const size_t pass = ProjectionInputs(stage.projections).size();
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
    } else if (stage.kind == PipelineStageSpec::Kind::kProbe) {
      // Broadcast table: ~6 bytes/build row covers bucket heads plus
      // chain links at the capacities the gate admits.
      const size_t table_bytes = 6 * std::max<size_t>(64, stage.join_spec.est_build_rows);
      const size_t out_width = 8 * std::max<size_t>(1, stage.output_columns.size());
      profiles.push_back(
          {"probe", table_bytes, out_width + 8, 1.0, out_width, probe_rate});
    } else {
      // The estimated group table stays resident beside the chain;
      // per row, the evaluated key and aggregate inputs.
      const size_t width =
          8 * (stage.group_keys.size() + stage.aggregates.size());
      profiles.push_back(
          {"aggregate",
           GroupHashTable::DmemBytes(stage.group_keys.size(),
                                     stage.aggregates.size(),
                                     stage.est_groups),
           width, 0.0, width, params_.groupby_cycles_per_row});
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
    PipelineSpec desc = std::move(pit->second);
    pending_.erase(pit);
    if (desc.table.empty()) {
      RAPID_ASSIGN_OR_RETURN(desc.input, Materialize(desc.input));
    }
    // A pushed join-filter ref must resolve before this chain is
    // numbered: the build terminal has to be emitted — and therefore
    // execute — ahead of the scan that reads its output.
    JoinFilterRef& join_filter = desc.stages.front().join_filter;
    if (join_filter.enabled()) {
      RAPID_ASSIGN_OR_RETURN(join_filter.build_step,
                             Materialize(join_filter.build_step));
    }
    const int nid = static_cast<int>(out_.steps.size());
    out_.steps.push_back(std::make_unique<PipelineStep>(nid, std::move(desc)));
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

// A low-NDV group-by over a pending single-consumer chain becomes the
// chain's terminal aggregate stage when its group table fits DMEM
// beside the chain; otherwise it stays a breaker.
bool Fuser::FuseAggregate(int id, const GroupByStep& group_by) {
  if (!group_by.low_ndv()) return false;
  const int in = group_by.input();
  auto pit = pending_.find(in);
  if (pit == pending_.end() || consumers_[static_cast<size_t>(in)] != 1 ||
      !Extendable(pit->second)) {
    return false;
  }
  PipelineStageSpec stage;
  stage.kind = PipelineStageSpec::Kind::kAggregate;
  stage.group_keys = group_by.keys();
  stage.aggregates = group_by.aggs();
  stage.est_groups = group_by.est_groups();
  if (!ChainFitsDmem(pit->second, &stage)) return false;
  PipelineSpec desc = std::move(pit->second);
  pending_.erase(pit);
  desc.stages.push_back(std::move(stage));
  pending_.emplace(id, std::move(desc));
  return true;
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
           Extendable(pending_.at(probe_src)) &&
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
      PipelineSpec desc = std::move(pending_.at(probe_src));
      pending_.erase(probe_src);
      desc.stages.push_back(std::move(stage));
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

    if (auto* lone = dynamic_cast<PipelineStep*>(step)) {
      // The planner emits one-stage pipelines: a scan starts a chain; a
      // filter/project over a pending single-consumer chain extends it
      // when the longer chain still fits DMEM, and starts its own
      // chain otherwise.
      PipelineSpec spec = lone->spec();
      auto pit = pending_.find(spec.input);
      if (spec.table.empty() && pit != pending_.end() &&
          consumers_[static_cast<size_t>(spec.input)] == 1 &&
          Extendable(pit->second) &&
          ChainFitsDmem(pit->second, &spec.stages.front())) {
        PipelineSpec desc = std::move(pit->second);
        pending_.erase(pit);
        desc.stages.push_back(std::move(spec.stages.front()));
        desc.tile_rows = std::min(desc.tile_rows, spec.tile_rows);
        spec = std::move(desc);
      }
      pending_.emplace(static_cast<int>(id), std::move(spec));
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

    if (auto* group_by = dynamic_cast<GroupByStep*>(step)) {
      if (FuseAggregate(static_cast<int>(id), *group_by)) continue;
    }

    // Pipeline breaker (high-NDV or oversized group-by, sort, top-k,
    // set op, window, ...): materialize its inputs and re-emit it
    // unchanged.
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
