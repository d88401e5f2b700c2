#include "core/qcomp/pipeline_fusion.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/config.h"
#include "common/trace.h"
#include "core/ops/partition_sink.h"
#include "core/qcomp/task_formation.h"
#include "primitives/bloom.h"

namespace rapid::core {

namespace {

// A pipeline-safe chain accumulated but not yet emitted is kept as the
// spec of the PipelineStep it will become, keyed by the old id of its
// last absorbed step, and flushed the first time a non-fusable
// consumer needs it. A pending chain is a lone branch.
std::vector<PipelineStageSpec>& Stages(PipelineSpec& chain) {
  return chain.branches.front().stages;
}
const std::vector<PipelineStageSpec>& Stages(const PipelineSpec& chain) {
  return chain.branches.front().stages;
}

// A chain ending in an aggregate stage emits groups, and one ending in
// a partition stage emits buckets, not tiles: nothing further can be
// appended to either, and neither shares a scan.
bool Extendable(const PipelineSpec& chain) {
  const PipelineStageSpec::Kind last = Stages(chain).back().kind;
  return last != PipelineStageSpec::Kind::kAggregate &&
         last != PipelineStageSpec::Kind::kPartition;
}

// DMEM a part of a pipeline holds: fixed state plus bytes per tile row.
struct Footprint {
  size_t state = 0;
  size_t per_row = 0;

  void Add(size_t state_bytes, size_t row_bytes) {
    state += state_bytes;
    per_row += row_bytes;
  }
  size_t BytesAt(size_t tile_rows) const { return state + per_row * tile_rows; }
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
  bool FusePartition(int id, const PartitionStep& part);
  void ShareScans();

  Footprint SourceFootprint(const PipelineSpec& desc) const;
  Footprint BranchFootprint(const std::vector<PipelineStageSpec>& stages,
                            const PipelineStageSpec* extra) const;
  bool FitsDmem(const Footprint& source,
                const std::vector<Footprint>& branches) const;
  bool ChainFitsDmem(const PipelineSpec& desc,
                     const PipelineStageSpec* extra) const {
    return FitsDmem(SourceFootprint(desc),
                    {BranchFootprint(Stages(desc), extra)});
  }
  double TransferCycles(const std::string& table,
                        const std::vector<std::string>& columns,
                        size_t tile_rows) const;

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
  // Table-source chains of the input plan per table.
  std::unordered_map<std::string, int> table_chains_;
};

// The accessor's double-buffered tiles. Encoded scans stage each
// compressed base column's runs (values + lengths, double-buffered)
// alongside the plain tile; the gate must budget that extra DMEM or
// fusion could admit a chain the accessor then degrades to plain
// transfers.
Footprint Fuser::SourceFootprint(const PipelineSpec& desc) const {
  const size_t src_cols =
      desc.table.empty() ? 4 : std::max<size_t>(1, desc.base_columns.size());
  size_t staging_bytes = 0;
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
      }
    }
  }
  Footprint source;
  source.Add(64, 2 * 8 * src_cols + staging_bytes);
  return source;
}

// One branch's operators (plus an optional extra stage): resident
// state (broadcast tables, join filters, group tables) and per-row
// tile scratch, as each operator declares them.
Footprint Fuser::BranchFootprint(const std::vector<PipelineStageSpec>& stages,
                                 const PipelineStageSpec* extra) const {
  Footprint branch;
  auto add_stage = [&](const PipelineStageSpec& stage) {
    if (stage.kind == PipelineStageSpec::Kind::kFilterProject) {
      const size_t pass = ProjectionInputs(stage.projections).size();
      // A pushed join filter keeps its blocked Bloom filter resident
      // beside the tiles. Budgeted here whether or not the runtime gate
      // is on, so fusion decisions are identical off/on.
      size_t jf_bytes = 0;
      if (stage.join_filter.enabled()) {
        const auto ndv = static_cast<size_t>(
            std::max(1.0, stage.join_filter.est_build_ndv));
        jf_bytes = primitives::kBloomBlockBytes *
                   primitives::BlockedBloomFilter::BlocksForNdv(
                       ndv, config_.dmem_bytes / 4);
      }
      branch.Add(64 + jf_bytes, 8 * (pass + 1));
      branch.Add(64, 8 * std::max<size_t>(1, stage.projections.size()));
    } else if (stage.kind == PipelineStageSpec::Kind::kProbe) {
      // Broadcast table: ~6 bytes/build row covers bucket heads plus
      // chain links at the capacities the gate admits.
      const size_t table_bytes =
          6 * std::max<size_t>(64, stage.join_spec.est_build_rows);
      const size_t out_width =
          8 * std::max<size_t>(1, stage.output_columns.size());
      branch.Add(table_bytes, out_width + 8);
    } else if (stage.kind == PipelineStageSpec::Kind::kPartition) {
      // The round's software fan-out staging stays resident; per row,
      // the key hash and partition index.
      branch.Add(
          PartitionSink::StagingBytes(stage.partition_scheme.rounds.front()),
          PartitionSink::kBytesPerRow);
    } else {
      // The estimated group table stays resident beside the chain;
      // per row, the evaluated key and aggregate inputs.
      branch.Add(GroupHashTable::DmemBytes(stage.group_keys.size(),
                                           stage.aggregates.size(),
                                           stage.est_groups),
                 8 * (stage.group_keys.size() + stage.aggregates.size()));
    }
  };
  for (const auto& stage : stages) add_stage(stage);
  if (extra != nullptr) add_stage(*extra);
  return branch;
}

// Checks via task formation that a pipeline fits the per-core DMEM
// budget at some tile size. Branches run one after another on a tile,
// so their resident state adds up while their tile scratch overlays:
// only the largest branch's per-row bytes count. For a lone branch
// this is the whole chain's footprint.
bool Fuser::FitsDmem(const Footprint& source,
                     const std::vector<Footprint>& branches) const {
  OpProfile accessor;
  accessor.name = "accessor";
  accessor.state_bytes = source.state;
  accessor.bytes_per_row = source.per_row;
  OpProfile chains;
  chains.name = "branches";
  chains.state_bytes = 0;
  chains.bytes_per_row = 0;
  for (const Footprint& b : branches) {
    chains.state_bytes += b.state;
    chains.bytes_per_row = std::max(chains.bytes_per_row, b.per_row);
  }
  return MaxTileRows({accessor, chains}, 0, 1, config_.dmem_bytes).ok();
}

// Modeled DMS cycles of one plain `tile_rows`-row transfer of `columns`
// of `table`, as Dms::TransferTile charges its descriptor chain.
double Fuser::TransferCycles(const std::string& table,
                             const std::vector<std::string>& columns,
                             size_t tile_rows) const {
  const storage::Table* t = nullptr;
  if (catalog_ != nullptr) {
    auto it = catalog_->find(table);
    if (it != catalog_->end()) t = &it->second;
  }
  size_t bytes = 0;
  for (const std::string& c : columns) {
    size_t width = 8;
    if (t != nullptr) {
      auto idx = t->schema().IndexOf(c);
      if (idx.ok()) width = storage::WidthOf(t->schema().field(idx.value()).type);
    }
    bytes += width * tile_rows;
  }
  const size_t cols = std::max<size_t>(1, columns.size());
  return dpu::DmsTileTransferCycles(params_, static_cast<int>(cols),
                                    bytes / cols, 1, /*read_write=*/false);
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
    JoinFilterRef& join_filter = Stages(desc).front().join_filter;
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
    if (FusePartition(old_id, *part)) return Materialize(old_id);
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

// A partition pass that no broadcast probe absorbed, over a pending
// single-consumer chain, becomes the chain's terminal partition stage
// when the round's fan-out staging fits DMEM beside the chain; the
// chain's tiles then scatter into round 1's buckets instead of being
// stored and read back. A table-source chain over a table another chain
// of the plan also reads stays unfused: it may share its scan.
bool Fuser::FusePartition(int id, const PartitionStep& part) {
  const int in = part.input();
  const PartitionScheme& scheme = part.scheme();
  auto pit = pending_.find(in);
  if (pit == pending_.end() || consumers_[static_cast<size_t>(in)] != 1 ||
      !Extendable(pit->second) || scheme.rounds.empty()) {
    return false;
  }
  const std::string& table = pit->second.table;
  if (!table.empty() && table_chains_[table] > 1) return false;
  PipelineStageSpec stage;
  stage.kind = PipelineStageSpec::Kind::kPartition;
  stage.partition_keys = part.key_columns();
  stage.partition_scheme = scheme;
  stage.partition_tile_rows = part.tile_rows();
  const bool fits = ChainFitsDmem(pit->second, &stage);
  // The gate's inputs and decision, on the planner track.
  TraceSpan span(TraceMode::kSummary, TraceCollector::kTrackPlanner,
                 "fusion.partition_sink");
  span.Annotate("fanout", static_cast<int64_t>(scheme.rounds.front().fanout));
  span.Annotate("rounds", static_cast<int64_t>(scheme.NumRounds()));
  span.Annotate("fuse", fits ? int64_t{1} : int64_t{0});
  if (!fits) return false;
  PipelineSpec desc = std::move(pit->second);
  pending_.erase(pit);
  Stages(desc).push_back(std::move(stage));
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
      Stages(desc).push_back(std::move(stage));
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
  for (const auto& step : plan_.steps) {
    const auto* chain = dynamic_cast<const PipelineStep*>(step.get());
    if (chain != nullptr && !chain->spec().table.empty()) {
      ++table_chains_[chain->spec().table];
    }
  }

  for (size_t id = 0; id < n; ++id) {
    PlanStep* step = plan_.steps[id].get();
    if (step == nullptr) continue;  // partition absorbed by a fused probe

    if (auto* lone = dynamic_cast<PipelineStep*>(step)) {
      // The planner emits one-stage pipelines: a scan starts a chain; a
      // filter/project or a low-NDV aggregate over a pending
      // single-consumer chain extends it when the longer chain still
      // fits DMEM. A filter/project that cannot starts its own chain;
      // an aggregate that cannot is a breaker.
      PipelineSpec spec = lone->spec();
      auto pit = pending_.find(spec.input);
      const bool extend = spec.table.empty() && pit != pending_.end() &&
                          consumers_[static_cast<size_t>(spec.input)] == 1 &&
                          Extendable(pit->second) &&
                          ChainFitsDmem(pit->second, &Stages(spec).front());
      if (extend) {
        PipelineSpec desc = std::move(pit->second);
        pending_.erase(pit);
        Stages(desc).push_back(std::move(Stages(spec).front()));
        desc.tile_rows = std::min(desc.tile_rows, spec.tile_rows);
        spec = std::move(desc);
      }
      if (extend || Extendable(spec)) {
        pending_.emplace(static_cast<int>(id), std::move(spec));
        continue;
      }
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
  // rewrite maps to -1 and its checkpoint address disappears with it,
  // and one that ends a chain as its sink maps to the chain's pipeline,
  // whose own address is dropped.
  for (const auto& [path, old_id] : plan_.subtree_steps) {
    const int nid = old_to_new_[static_cast<size_t>(old_id)];
    if (nid >= 0) out_.subtree_steps.emplace_back(path, nid);
  }
  ShareScans();
  return std::move(out_);
}

// A stable topological order of the DAG in which node v reads the
// nodes inputs[v]: among the ready nodes, the lowest priority goes
// first. Empty when the graph has a cycle.
std::vector<size_t> StableTopoOrder(
    const std::vector<std::vector<size_t>>& inputs,
    const std::vector<size_t>& priority) {
  const size_t n = inputs.size();
  std::vector<std::vector<size_t>> readers(n);
  std::vector<size_t> pending(n, 0);
  for (size_t v = 0; v < n; ++v) {
    for (size_t in : inputs[v]) {
      if (in == v) return {};
      readers[in].push_back(v);
      ++pending[v];
    }
  }
  using Ready = std::pair<size_t, size_t>;  // (priority, node)
  std::priority_queue<Ready, std::vector<Ready>, std::greater<Ready>> ready;
  for (size_t v = 0; v < n; ++v) {
    if (pending[v] == 0) ready.emplace(priority[v], v);
  }
  std::vector<size_t> order;
  while (!ready.empty()) {
    const size_t v = ready.top().second;
    ready.pop();
    order.push_back(v);
    for (size_t r : readers[v]) {
      if (--pending[r] == 0) ready.emplace(priority[r], r);
    }
  }
  if (order.size() != n) order.clear();
  return order;
}

// Shared scans (cooperative scans): table-source chains that read the
// same table merge into one multi-branch PipelineStep, so the DMS moves
// each tile once for all of them. Chains are taken greedily in plan
// order; a chain joins the first group over its table that
//  - it does not feed and is not fed by (merging must not close a
//    cycle in the step DAG — e.g. a self-join whose build side scans
//    the same table),
//  - it makes cheaper to move: one tile transfer of the union of the
//    columns must cost fewer DMS cycles than a transfer per member,
//    so chains over disjoint columns stay apart, and
//  - it leaves fitting DMEM, with the branches' tile scratch
//    overlaid (FitsDmem).
// Every member is a branch of its own: the planner lowers identical
// scans once, so no two members are the same chain.
// Aggregate- and partition-terminated chains and chains without a
// subtree address stay alone. A stable topological re-sort of the plan
// with each group contracted to one node, placed at its first member,
// renumbers the steps; a group expands to its shared step followed by
// one BranchStep per extra branch. Plans without a group keep their
// exact numbering.
void Fuser::ShareScans() {
  const size_t n = out_.steps.size();
  std::vector<bool> addressed(n, false);
  for (const auto& [path, id] : out_.subtree_steps) {
    addressed[static_cast<size_t>(id)] = true;
  }

  struct Group {
    PipelineSpec spec;            // union columns, member k's branch at k
    std::vector<size_t> members;  // step ids, in plan order
    std::vector<std::vector<std::string>> member_columns;
  };
  std::vector<Group> groups;
  std::vector<int> group_of(n, -1);

  // The plan's order with every group contracted to node n + g, at its
  // first member's place (a grouped step's own node stands alone);
  // empty when the contraction closes a cycle.
  auto contracted_order = [&] {
    const size_t nodes = n + groups.size();
    std::vector<std::vector<size_t>> inputs(nodes);
    std::vector<size_t> priority(nodes);
    for (size_t i = 0; i < n; ++i) priority[i] = i;
    for (size_t g = 0; g < groups.size(); ++g) {
      priority[n + g] = groups[g].members.front();
    }
    auto node = [&](size_t i) {
      return group_of[i] >= 0 ? n + static_cast<size_t>(group_of[i]) : i;
    };
    for (size_t i = 0; i < n; ++i) {
      for (int in : out_.steps[i]->Inputs()) {
        inputs[node(i)].push_back(node(static_cast<size_t>(in)));
      }
    }
    return StableTopoOrder(inputs, priority);
  };

  // Evaluates the gate for step `id` joining group `g`, and joins it
  // when the gate passes.
  auto try_join = [&](size_t g, size_t id, const PipelineSpec& chain) {
    Group& group = groups[g];
    PipelineSpec merged = group.spec;
    for (const std::string& c : chain.base_columns) {
      if (std::find(merged.base_columns.begin(), merged.base_columns.end(),
                    c) == merged.base_columns.end()) {
        merged.base_columns.push_back(c);
      }
    }
    merged.tile_rows = std::min(merged.tile_rows, chain.tile_rows);
    merged.branches.push_back(chain.branches.front());

    const double union_cycles = TransferCycles(
        merged.table, merged.base_columns, merged.tile_rows);
    double summed_cycles =
        TransferCycles(chain.table, chain.base_columns, merged.tile_rows);
    for (const auto& columns : group.member_columns) {
      summed_cycles += TransferCycles(merged.table, columns, merged.tile_rows);
    }
    const Footprint source = SourceFootprint(merged);
    std::vector<Footprint> branches;
    size_t max_per_row = 0;
    size_t resident = 0;
    size_t summed_bytes = source.BytesAt(64);
    for (const PipelineBranch& b : merged.branches) {
      branches.push_back(BranchFootprint(b.stages, nullptr));
      summed_bytes += branches.back().BytesAt(64);
      max_per_row = std::max(max_per_row, branches.back().per_row);
      resident += branches.back().state;
    }
    const size_t overlaid_bytes =
        source.BytesAt(64) + resident + 64 * max_per_row;

    group_of[id] = static_cast<int>(g);
    const bool share = union_cycles < summed_cycles &&
                       FitsDmem(source, branches) &&
                       !contracted_order().empty();
    // The numbers behind the decision, on the planner track.
    TraceSpan span(TraceMode::kSummary, TraceCollector::kTrackPlanner,
                   "fusion.shared_scan");
    span.Annotate("members", static_cast<int64_t>(group.members.size() + 1));
    span.Annotate("union_cycles", union_cycles);
    span.Annotate("summed_cycles", summed_cycles);
    span.Annotate("overlaid_bytes", static_cast<int64_t>(overlaid_bytes));
    span.Annotate("summed_bytes", static_cast<int64_t>(summed_bytes));
    span.Annotate("share", share ? int64_t{1} : int64_t{0});
    if (!share) {
      group_of[id] = -1;
      return false;
    }
    group.spec = std::move(merged);
    group.members.push_back(id);
    group.member_columns.push_back(chain.base_columns);
    return true;
  };

  bool shared = false;
  for (size_t i = 0; i < n; ++i) {
    const auto* chain = dynamic_cast<const PipelineStep*>(out_.steps[i].get());
    if (chain == nullptr || chain->spec().table.empty() ||
        chain->spec().branches.size() != 1 || !Extendable(chain->spec()) ||
        !addressed[i]) {
      continue;
    }
    const PipelineSpec& spec = chain->spec();
    bool joined = false;
    for (size_t g = 0; g < groups.size() && !joined; ++g) {
      if (groups[g].spec.table == spec.table) joined = try_join(g, i, spec);
    }
    shared = shared || joined;
    if (!joined) {
      group_of[i] = static_cast<int>(groups.size());
      groups.push_back(Group{spec, {i}, {spec.base_columns}});
    }
  }
  if (!shared) return;

  // Emit in contracted order. A group of one is its step; a shared
  // group is its PipelineStep, then BRANCH 1..K-1. Steps are built
  // with old ids (a BranchStep reads its group's first member, which
  // maps to the shared step) and renumbered together.
  std::vector<std::unique_ptr<PlanStep>> steps;
  std::vector<int> old_to_new(n, -1);
  for (const size_t v : contracted_order()) {
    if (v < n) {
      if (group_of[v] >= 0) continue;  // emitted with its group
      old_to_new[v] = static_cast<int>(steps.size());
      steps.push_back(std::move(out_.steps[v]));
      continue;
    }
    Group& group = groups[v - n];
    if (group.members.size() == 1) {
      old_to_new[group.members.front()] = static_cast<int>(steps.size());
      steps.push_back(std::move(out_.steps[group.members.front()]));
      continue;
    }
    for (size_t k = 0; k < group.members.size(); ++k) {
      old_to_new[group.members[k]] = static_cast<int>(steps.size());
      if (k == 0) {
        steps.push_back(
            std::make_unique<PipelineStep>(-1, std::move(group.spec)));
      } else {
        steps.push_back(std::make_unique<BranchStep>(
            -1, static_cast<int>(group.members.front()), k));
      }
    }
  }
  for (size_t i = 0; i < steps.size(); ++i) {
    steps[i]->RemapInputs(old_to_new);
    steps[i]->set_id(static_cast<int>(i));
  }
  out_.steps = std::move(steps);
  out_.root = old_to_new[static_cast<size_t>(out_.root)];
  for (auto& [path, id] : out_.subtree_steps) {
    id = old_to_new[static_cast<size_t>(id)];
  }
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
