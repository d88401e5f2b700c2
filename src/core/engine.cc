#include "core/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "storage/encoding_stack.h"
#include "storage/loader.h"

namespace rapid::core {

namespace {

// True for "X#p" checkpoint addresses (partition rounds over subtree
// X) — these never reach the host-side path walker, which only
// understands plain '0'/'1' subtree paths.
bool IsPartitionAddress(const std::string& path) {
  return path.size() >= 2 && path.compare(path.size() - 2, 2, "#p") == 0;
}

// One emission path for the cross-query metrics: every counter that
// used to be hand-threaded out of ExecutionStats by callers is
// published here when a query completes on the DPU.
void EmitQueryMetrics(const ExecutionStats& s) {
  auto& reg = MetricsRegistry::Instance();
  static MetricCounter* queries = reg.Counter("rapid.queries");
  static MetricHistogram* latency_ms = reg.Histogram(
      "rapid.query.modeled_ms", {0.1, 0.3, 1, 3, 10, 30, 100, 300, 1000});
  static MetricCounter* pruned =
      reg.Counter("rapid.rows.pruned_by_join_filter");
  static MetricCounter* pool_misses = reg.Counter("rapid.pool.misses");
  static MetricCounter* encoded_bytes =
      reg.Counter("rapid.dms.encoded_bytes");
  static MetricCounter* plain_bytes = reg.Counter("rapid.dms.plain_bytes");
  static MetricCounter* retries = reg.Counter("rapid.query.retries");
  static MetricCounter* demotions = reg.Counter("rapid.query.demotions");
  queries->Increment();
  latency_ms->Observe(s.modeled_seconds * 1e3);
  pruned->Add(s.rows_pruned_by_join_filter);
  pool_misses->Add(s.tile_pool.misses);
  encoded_bytes->Add(s.encoded_bytes_moved);
  plain_bytes->Add(s.plain_bytes_moved);
  retries->Add(s.dpu_retries);
  if (s.demoted_to_unfused) demotions->Increment();
}

}  // namespace

void ExecutionStats::Accumulate(const ExecutionStats& other) {
  dpu::CoreCounters::Accumulate(other);
  RecoveryCounters::Accumulate(other);
  modeled_seconds += other.modeled_seconds;
  wall_seconds += other.wall_seconds;
  total_compute_cycles += other.total_compute_cycles;
  total_dms_cycles += other.total_dms_cycles;
  steps.insert(steps.end(), other.steps.begin(), other.steps.end());
  imbalance.Accumulate(other.imbalance);
  workload.Accumulate(other.workload);
  demoted_to_unfused = demoted_to_unfused || other.demoted_to_unfused;
  arena = other.arena;
  tile_pool.Accumulate(other.tile_pool);
}

RapidEngine::RapidEngine(const dpu::DpuConfig& config,
                         const dpu::CostParams& params)
    : dpu_(std::make_unique<dpu::Dpu>(config, params)),
      config_(config),
      params_(params) {}

Status RapidEngine::Load(storage::Table table) {
  const std::string name = table.name();
  catalog_.erase(name);
  catalog_.emplace(name, std::move(table));
  return Status::OK();
}

const storage::Table* RapidEngine::GetTable(const std::string& name) const {
  auto it = catalog_.find(name);
  return it == catalog_.end() ? nullptr : &it->second;
}

Status RapidEngine::ApplyUpdate(const std::string& table, uint64_t scn,
                                std::vector<storage::RowChange> changes) {
  auto it = catalog_.find(table);
  if (it == catalog_.end()) {
    return Status::NotFound("table '" + table + "' not loaded");
  }
  auto& tracker = trackers_[table];
  if (tracker == nullptr) {
    tracker = std::make_unique<storage::Tracker>(
        it->second.schema().num_fields());
  }
  // The tracker records versions for SCN resolution; the base vectors
  // are refreshed to the latest propagated state, and each touched
  // chunk's encodings rebuilt once, so scans see current data (queries
  // older than the propagated SCN resolve through the tracker).
  RAPID_ASSIGN_OR_RETURN(std::vector<storage::Chunk*> touched,
                         storage::ApplyRowChanges(&it->second, changes));
  for (storage::Chunk* chunk : touched) storage::BuildChunkEncodings(chunk);
  RAPID_RETURN_NOT_OK(tracker->ApplyUpdate(scn, std::move(changes)));
  it->second.set_scn(scn);
  return Status::OK();
}

const storage::Tracker* RapidEngine::tracker(const std::string& table) const {
  auto it = trackers_.find(table);
  return it == trackers_.end() ? nullptr : it->second.get();
}

size_t RapidEngine::VacuumTrackers(uint64_t min_active_scn) {
  size_t reclaimed = 0;
  for (auto& [name, tracker] : trackers_) {
    reclaimed += tracker->Vacuum(min_active_scn);
  }
  return reclaimed;
}

Result<QueryResult> RapidEngine::Execute(const LogicalPtr& plan,
                                         const ExecOptions& options,
                                         FallbackInfo* fallback) {
  TraceQueryScope trace_scope(dpu_->num_cores(), params_.clock_hz);
  Planner planner(config_, params_, options.planner);
  Result<PhysicalPlan> planned = [&] {
    TraceSpan span(TraceMode::kSummary, TraceCollector::kTrackPlanner,
                   "qcomp.plan");
    auto r = planner.Plan(plan, catalog_);
    if (r.ok()) {
      span.Annotate("steps", static_cast<int64_t>(r.value().steps.size()));
      span.Annotate("fusion",
                    options.planner.enable_fusion ? int64_t{1} : int64_t{0});
    }
    return r;
  }();
  RAPID_RETURN_NOT_OK(planned.status());
  PhysicalPlan physical = std::move(planned.value());

  FragmentCheckpoint ckpt;
  FragmentCheckpoint* cp = options.enable_checkpoints ? &ckpt : nullptr;
  int budget = std::clamp(options.retry_budget, 0, 16);

  // Recovery ladder, driven by the failure class of each attempt:
  //  1. DMEM OOM while fusion is on -> demote: replan unfused (DRAM
  //     staging needs only one operator's state at a time). Checkpoints
  //     carry over — subtree addressing survives the renumbering.
  //  2. Transient failures — DMS retry exhaustion, post-demotion DMEM
  //     OOM, allocator pressure — get up to `budget` in-place retries
  //     of the same plan, each resuming from the checkpoint.
  //  3. Cancellation aborts immediately; anything else exhausts the
  //     ladder and surfaces to the caller (host fallback).
  ExecOptions attempt = options;
  PhysicalPlan unfused;  // owns the demoted plan when built
  const PhysicalPlan* current = &physical;
  bool demoted = false;
  Result<QueryResult> result = ExecutePhysical(*current, attempt, cp);
  while (!result.ok()) {
    const Status& failure = result.status();
    if (failure.IsCancellation()) break;
    if (failure.IsOutOfMemory() && attempt.planner.enable_fusion) {
      attempt.planner.enable_fusion = false;
      Planner unfused_planner(config_, params_, attempt.planner);
      auto replanned = unfused_planner.Plan(plan, catalog_);
      if (!replanned.ok()) {
        result = replanned.status();
        break;
      }
      unfused = std::move(replanned.value());
      current = &unfused;
      demoted = true;
      if (TraceCollector::Recording(TraceMode::kSummary)) {
        auto& tc = TraceCollector::Instance();
        tc.AddStepInstant("engine.demote_unfused",
                          {TraceCollector::Arg::S(
                              "cause", tc.Intern(failure.ToString()))});
      }
      result = ExecutePhysical(*current, attempt, cp);
      continue;
    }
    // Transient set: descriptor retry exhaustion and allocator
    // pressure heal on their own; OOM is only retryable once fusion —
    // the main DMEM consumer — is already off. Capacity and planning
    // failures would just fail again identically.
    const bool transient =
        failure.IsRetryExhausted() ||
        (failure.IsOutOfMemory() && !attempt.planner.enable_fusion);
    if (cp != nullptr && transient && budget > 0) {
      --budget;
      ++cp->recovery.dpu_retries;
      if (TraceCollector::Recording(TraceMode::kSummary)) {
        auto& tc = TraceCollector::Instance();
        tc.AddStepInstant(
            "engine.retry",
            {TraceCollector::Arg::I("budget_left", budget),
             TraceCollector::Arg::S("cause", tc.Intern(failure.ToString()))});
      }
      result = ExecutePhysical(*current, attempt, cp);
      continue;
    }
    break;
  }

  if (result.ok()) {
    if (demoted) result.value().stats.demoted_to_unfused = true;
    EmitQueryMetrics(result.value().stats);
    return result;
  }
  MetricsRegistry::Instance().Counter("rapid.query.failures")->Increment();
  if (fallback != nullptr && !result.status().IsCancellation()) {
    fallback->stats.Accumulate(ckpt.recovery);
    // Unpartitioned completed subtrees graft directly into the host
    // rerun. Completed partition rounds have no Volcano counterpart;
    // when the partitions' *input* subtree did not itself survive,
    // flatten them back into that subtree's rows so the host at least
    // skips recomputing the input (partition order is deterministic,
    // and the host rerun re-sorts/aggregates above it anyway — but to
    // stay bit-exact we only graft when the plain subtree is absent).
    for (auto& frag : ckpt.completed) {
      if (frag.out.partitioned || IsPartitionAddress(frag.path)) continue;
      fallback->partials.push_back(
          PartialResult{frag.path, std::move(frag.out.set)});
    }
    for (auto& frag : ckpt.completed) {
      if (!frag.out.partitioned || !IsPartitionAddress(frag.path)) continue;
      const std::string input_path =
          frag.path.substr(0, frag.path.size() - 2);
      bool have_input = false;
      for (const PartialResult& pr : fallback->partials) {
        if (pr.path == input_path) {
          have_input = true;
          break;
        }
      }
      if (have_input || frag.out.parts.partitions.empty()) continue;
      std::vector<ColumnMeta> metas =
          frag.out.parts.partitions.front().metas();
      for (const ColumnSet& part : frag.out.parts.partitions) {
        if (part.num_rows() > 0) metas = part.metas();
      }
      ColumnSet flat(std::move(metas));
      for (const ColumnSet& part : frag.out.parts.partitions) {
        flat.Append(part);
      }
      fallback->partials.push_back(
          PartialResult{input_path, std::move(flat)});
    }
  }
  return result;
}

Result<QueryResult> RapidEngine::ExecutePhysical(const PhysicalPlan& plan,
                                                 const ExecOptions& options,
                                                 FragmentCheckpoint* ckpt) {
  if (plan.root < 0 || plan.steps.empty()) {
    return Status::InvalidArgument("physical plan is empty");
  }
  // Nested no-op under Execute's scope; gives direct callers
  // (benchmarks, ExplainAnalyze) a complete trace of their own.
  TraceQueryScope trace_scope(dpu_->num_cores(), params_.clock_hz);

  // Compose the caller's token with a local deadline token when a
  // timeout is set; steps poll whichever pointer ends up in the env.
  CancelToken deadline_token;
  const CancelToken* cancel = options.cancel;
  if (options.timeout_seconds > 0) {
    deadline_token.SetTimeout(options.timeout_seconds);
    deadline_token.set_parent(options.cancel);
    cancel = &deadline_token;
  }

  ExecEnv env;
  env.dpu = dpu_.get();
  env.catalog = &catalog_;
  env.vectorized = options.vectorized;
  env.cancel = cancel;
  env.outputs.resize(plan.steps.size());

  // Restore the checkpoint into this plan. Fragments are addressed by
  // logical-subtree path, so entries harvested from a *different*
  // physical plan (the fused plan before demotion) land on the right
  // steps here; addresses that no longer resolve are dropped. Restored
  // outputs mark their step done — the loop below skips it — and
  // restored partition rounds count as reused work.
  std::vector<uint8_t> done(plan.steps.size(), 0);
  std::vector<StepProgress> progress_slots;
  if (ckpt != nullptr) {
    std::unordered_map<std::string, size_t> by_path;
    for (const auto& [path, sid] : plan.subtree_steps) {
      if (sid >= 0 && static_cast<size_t>(sid) < plan.steps.size()) {
        by_path.emplace(path, static_cast<size_t>(sid));
      }
    }
    std::vector<FragmentCheckpoint::Fragment> completed =
        std::move(ckpt->completed);
    ckpt->completed.clear();
    for (auto& frag : completed) {
      auto it = by_path.find(frag.path);
      if (it == by_path.end() || done[it->second] != 0) continue;
      // Partition rounds restore only under "#p" addresses and plain
      // outputs only under plain paths (defensive shape check).
      if (frag.out.partitioned != IsPartitionAddress(frag.path)) continue;
      if (frag.out.partitioned) {
        env.recovery.reused_rounds += static_cast<uint64_t>(
            std::max(0, frag.out.parts.rounds));
      }
      if (TraceCollector::Recording(TraceMode::kSummary)) {
        auto& tc = TraceCollector::Instance();
        tc.AddStepInstant(
            "checkpoint.restore",
            {TraceCollector::Arg::S("path", tc.Intern(frag.path)),
             TraceCollector::Arg::I("step",
                                    static_cast<int64_t>(it->second)),
             TraceCollector::Arg::I(
                 "rounds",
                 frag.out.partitioned ? frag.out.parts.rounds : 0)});
      }
      env.outputs[it->second] = std::move(frag.out);
      done[it->second] = 1;
    }
    std::vector<FragmentCheckpoint::Partial> in_progress =
        std::move(ckpt->in_progress);
    ckpt->in_progress.clear();
    progress_slots.resize(plan.steps.size());
    for (auto& partial : in_progress) {
      auto it = by_path.find(partial.path);
      if (it == by_path.end() || done[it->second] != 0) continue;
      progress_slots[it->second] = std::move(partial.progress);
    }
    env.progress = &progress_slots;
  }

  dpu_->ResetCores();

  QueryResult result;
  result.plan_text = plan.Describe();

  const auto wall_start = std::chrono::steady_clock::now();
  const auto ncores = static_cast<size_t>(dpu_->num_cores());
  // Per-query tile-pool delta: the pools persist across queries, so
  // subtract their lifetime counters from after the run.
  TilePoolStats pool_before;
  for (size_t c = 0; c < ncores; ++c) {
    pool_before.Accumulate(dpu_->core(static_cast<int>(c)).pool().stats());
  }
  std::vector<double> before_compute(ncores, 0);
  std::vector<double> before_dms(ncores, 0);
  Status step_status = Status::OK();
  for (const auto& step : plan.steps) {
    // Checkpoint-restored steps already hold their output; their cost
    // was paid (and timed) by the attempt that completed them.
    if (done[static_cast<size_t>(step->id())] != 0) continue;
    // Barrier boundary between steps: the cheapest place to notice a
    // cancelled or expired query before launching another DPU round.
    step_status = CancelToken::Check(cancel);
    if (!step_status.ok()) break;
    for (size_t c = 0; c < ncores; ++c) {
      before_compute[c] = dpu_->core(static_cast<int>(c)).cycles()
                              .compute_cycles();
      before_dms[c] = dpu_->core(static_cast<int>(c)).cycles().dms_cycles();
    }
    const dpu::ImbalanceStats imb_before = dpu_->imbalance();
    const auto step_start = std::chrono::steady_clock::now();
    step_status = step->Execute(env);
    const double step_wall = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - step_start)
                                 .count();
    if (!step_status.ok()) break;
    done[static_cast<size_t>(step->id())] = 1;
    // Modeled step time: cores compute concurrently (slowest bounds
    // the phase) while all DMS transfers share the single DRAM
    // interface (they serialize); double buffering overlaps the two
    // streams, so the phase costs the max of both.
    double max_compute = 0;
    double sum_dms = 0;
    for (size_t c = 0; c < ncores; ++c) {
      const auto& cyc = dpu_->core(static_cast<int>(c)).cycles();
      max_compute =
          std::max(max_compute, cyc.compute_cycles() - before_compute[c]);
      sum_dms += cyc.dms_cycles() - before_dms[c];
    }
    const double step_seconds =
        std::max(max_compute, sum_dms) / params_.clock_hz;
    // Per-step morsel-phase load balance: delta of the accumulated
    // imbalance counters across this step's phases.
    const dpu::ImbalanceStats& imb_after = dpu_->imbalance();
    dpu::ImbalanceStats step_imb;
    step_imb.max_core_cycles =
        imb_after.max_core_cycles - imb_before.max_core_cycles;
    step_imb.mean_core_cycles =
        imb_after.mean_core_cycles - imb_before.mean_core_cycles;
    step_imb.phases = imb_after.phases - imb_before.phases;
    const StepOutput& out = env.outputs[static_cast<size_t>(step->id())];
    uint64_t rows_out = out.set.num_rows();
    if (out.partitioned) {
      rows_out = 0;
      for (const ColumnSet& part : out.parts.partitions) {
        rows_out += part.num_rows();
      }
    }
    result.stats.steps.push_back(StepTiming{
        step->Describe(), step_seconds, max_compute, sum_dms,
        step_imb.Ratio(), step->id(), rows_out, step_wall,
        out.ran_tile_rows});
    result.stats.modeled_seconds += step_seconds;
    result.stats.total_dms_cycles += sum_dms;
    // Steps-track span: duration = this step's modeled cycles, so the
    // summed span durations reconcile with modeled_seconds exactly.
    if (TraceCollector::Recording(TraceMode::kSummary)) {
      auto& tc = TraceCollector::Instance();
      tc.AddStepSpan(tc.Intern(step->Describe()),
                     std::max(max_compute, sum_dms),
                     {TraceCollector::Arg::I("step", step->id()),
                      TraceCollector::Arg::U("rows_out", rows_out),
                      TraceCollector::Arg::D("compute_cycles", max_compute),
                      TraceCollector::Arg::D("dms_cycles", sum_dms),
                      TraceCollector::Arg::D("imbalance", step_imb.Ratio())});
    }
  }
  if (!step_status.ok()) {
    // Harvest everything this attempt completed — materialized step
    // outputs AND partitioned intermediates — into the checkpoint,
    // keyed by subtree address, plus any mid-step progress the failing
    // step saved (completed partition rounds, done morsel slots).
    // Cancellation harvests nothing: the caller is abandoning the
    // query, not retrying it.
    if (ckpt != nullptr && !step_status.IsCancellation()) {
      std::vector<uint8_t> harvested(plan.steps.size(), 0);
      for (const auto& [path, sid] : plan.subtree_steps) {
        const auto uid = static_cast<size_t>(sid);
        if (uid >= plan.steps.size() || done[uid] == 0 ||
            harvested[uid] != 0) {
          continue;
        }
        if (env.outputs[uid].partitioned != IsPartitionAddress(path)) {
          continue;
        }
        harvested[uid] = 1;
        ckpt->completed.push_back(
            FragmentCheckpoint::Fragment{path,
                                         std::move(env.outputs[uid])});
      }
      for (const auto& [path, sid] : plan.subtree_steps) {
        const auto uid = static_cast<size_t>(sid);
        if (uid >= progress_slots.size() || done[uid] != 0 ||
            progress_slots[uid].empty()) {
          continue;
        }
        ckpt->in_progress.push_back(FragmentCheckpoint::Partial{
            path, std::move(progress_slots[uid])});
        progress_slots[uid].clear();
      }
      ckpt->recovery.Accumulate(env.recovery);
    }
    return step_status;
  }
  const auto wall_end = std::chrono::steady_clock::now();

  result.stats.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  result.stats.workload = env.counters;
  result.stats.imbalance = dpu_->imbalance();
  result.stats.total_compute_cycles = dpu_->TotalComputeCycles();
  for (size_t c = 0; c < ncores; ++c) {
    result.stats.arena.Accumulate(
        dpu_->core(static_cast<int>(c)).arena().stats());
    result.stats.tile_pool.Accumulate(
        dpu_->core(static_cast<int>(c)).pool().stats());
    result.stats.Accumulate(dpu_->core(static_cast<int>(c)).counters());
  }
  // Lifetime-counter deltas -> per-query figures (sizes stay absolute).
  result.stats.tile_pool.acquires -= pool_before.acquires;
  result.stats.tile_pool.reuses -= pool_before.reuses;
  result.stats.tile_pool.misses -= pool_before.misses;
  result.stats.tile_pool.releases -= pool_before.releases;
  result.stats.tile_pool.bytes_acquired -= pool_before.bytes_acquired;
  result.stats.tile_pool.bytes_allocated -= pool_before.bytes_allocated;
  // Reuse accounting: fold this attempt into the query-lifetime
  // checkpoint totals so the final stats cover every attempt.
  if (ckpt != nullptr) {
    ckpt->recovery.Accumulate(env.recovery);
    result.stats.Accumulate(ckpt->recovery);
  } else {
    result.stats.Accumulate(env.recovery);
  }
  result.rows = std::move(env.outputs[static_cast<size_t>(plan.root)].set);
  return result;
}

const std::string& RapidEngine::LastTrace() {
  return TraceCollector::Instance().last_trace_json();
}

namespace {

// Physical tree render with per-node actuals, following PlanStep
// input edges down from the root. A step read by several consumers (a
// shared scan under its BRANCH steps) renders its subtree once; later
// visits print its first line only. A shared scan's branches follow
// its line, one per line.
void RenderStepTree(const PhysicalPlan& plan, int id,
                    const std::unordered_map<int, const StepTiming*>& timings,
                    int indent, std::vector<uint8_t>* shown,
                    std::string* out) {
  if (id < 0 || static_cast<size_t>(id) >= plan.steps.size()) return;
  const auto& step = plan.steps[static_cast<size_t>(id)];
  const std::string pad(static_cast<size_t>(indent) * 2, ' ');
  const std::string desc = step->Describe();
  size_t eol = desc.find('\n');
  *out += pad + "#" + std::to_string(id) + " " + desc.substr(0, eol);
  if ((*shown)[static_cast<size_t>(id)] != 0) {
    *out += "  (shown above)\n";
    return;
  }
  (*shown)[static_cast<size_t>(id)] = 1;
  auto it = timings.find(id);
  if (it != timings.end()) {
    const StepTiming& t = *it->second;
    // Wall time over modeled time: how much slower the host runs the
    // step than the modeled DPU would (0 when the step models no time).
    const double wall_ratio =
        t.modeled_seconds > 0 ? t.wall_seconds / t.modeled_seconds : 0;
    char buf[240];
    std::snprintf(buf, sizeof(buf),
                  "  (rows=%llu modeled_ms=%.4f compute_cycles=%.0f"
                  " dms_cycles=%.0f imbalance=%.2f wall_ms=%.4f"
                  " wall/modeled=%.1f",
                  static_cast<unsigned long long>(t.rows_out),
                  t.modeled_seconds * 1e3, t.compute_cycles, t.dms_cycles,
                  t.imbalance_ratio, t.wall_seconds * 1e3, wall_ratio);
    *out += buf;
    // A pipeline's DMEM budget (halved beside a probe's hash table)
    // can fit fewer rows than the tile its plan text prints.
    const auto* pipe = dynamic_cast<const PipelineStep*>(step.get());
    if (pipe != nullptr && t.ran_tile_rows != 0 &&
        t.ran_tile_rows != pipe->spec().tile_rows) {
      *out += " ran_tile=" + std::to_string(t.ran_tile_rows);
    }
    *out += ")";
  } else {
    // Only possible when a checkpoint restored the step's output: the
    // cost was paid (and reported) by the attempt that completed it.
    *out += "  (restored from checkpoint)";
  }
  *out += "\n";
  while (eol != std::string::npos) {
    const size_t next = desc.find('\n', eol + 1);
    *out += pad + "  " + desc.substr(eol + 1, next - eol - 1) + "\n";
    eol = next;
  }
  // A step can reference the same input through several edges (e.g. a
  // probe's build input doubling as its join-filter source); render
  // the shared subtree once.
  std::vector<int> children;
  for (int child : step->Inputs()) {
    if (std::find(children.begin(), children.end(), child) ==
        children.end()) {
      children.push_back(child);
    }
  }
  for (int child : children) {
    RenderStepTree(plan, child, timings, indent + 1, shown, out);
  }
}

}  // namespace

Result<std::string> RapidEngine::ExplainAnalyze(const LogicalPtr& plan,
                                                const ExecOptions& options) {
  Planner planner(config_, params_, options.planner);
  RAPID_ASSIGN_OR_RETURN(PhysicalPlan physical, planner.Plan(plan, catalog_));
  FragmentCheckpoint ckpt;
  RAPID_ASSIGN_OR_RETURN(
      QueryResult result,
      ExecutePhysical(physical, options,
                      options.enable_checkpoints ? &ckpt : nullptr));

  const ExecutionStats& s = result.stats;
  std::unordered_map<int, const StepTiming*> timings;
  for (const StepTiming& t : s.steps) timings.emplace(t.step_id, &t);

  std::string out;
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "EXPLAIN ANALYZE  rows=%llu modeled_ms=%.4f wall_ms=%.4f"
                " compute_cycles=%.0f dms_cycles=%.0f",
                static_cast<unsigned long long>(result.rows.num_rows()),
                s.modeled_seconds * 1e3, s.wall_seconds * 1e3,
                s.total_compute_cycles, s.total_dms_cycles);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                " pool_misses=%llu pruned=%llu reused_rounds=%llu"
                " retries=%llu\n",
                static_cast<unsigned long long>(s.tile_pool.misses),
                static_cast<unsigned long long>(
                    s.rows_pruned_by_join_filter),
                static_cast<unsigned long long>(s.reused_rounds),
                static_cast<unsigned long long>(s.dpu_retries));
  out += buf;
  std::vector<uint8_t> shown(physical.steps.size(), 0);
  RenderStepTree(physical, physical.root, timings, 0, &shown, &out);
  return out;
}

}  // namespace rapid::core
