// RapidEngine: the public entry point of the RAPID query processing
// engine. Owns the DPU (simulated), the loaded tables and the QComp
// planner; executes logical plans and reports both results and the
// modeled DPU execution statistics used by the performance/power
// evaluation.

#ifndef RAPID_CORE_ENGINE_H_
#define RAPID_CORE_ENGINE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "common/cancel.h"
#include "core/qcomp/planner.h"
#include "core/qcomp/steps.h"
#include "dpu/dpu.h"
#include "storage/table.h"
#include "storage/update.h"

namespace rapid::core {

struct ExecOptions {
  bool vectorized = true;  // Figure 13 ablation switch
  PlannerOptions planner;

  // Caller-owned cancellation token (may be null). Polled at tile-loop
  // and barrier boundaries; a tripped token surfaces as kCancelled.
  const CancelToken* cancel = nullptr;
  // Wall-clock budget for the query; 0 = none. Expiry surfaces as
  // kDeadlineExceeded. Composes with `cancel` (whichever trips first).
  double timeout_seconds = 0;
  // Fragment checkpointing: completed step outputs, partition rounds
  // and fused-pipeline morsels survive a failed attempt and seed
  // in-place retries, the demotion replan and the host fallback.
  bool enable_checkpoints = true;
  // Fragment-level DPU retries for transient failures before the
  // engine gives up (host fallback is the caller's last resort).
  // Clamped to [0, 16].
  int retry_budget = 2;
};

struct StepTiming {
  std::string description;
  double modeled_seconds = 0;  // max-core cycle delta / 800 MHz
  double compute_cycles = 0;   // slowest core's compute cycles this step
  double dms_cycles = 0;       // summed DMS cycles this step (shared DRAM)
  // Load balance of this step's morsel phases: slowest core's compute
  // delta over the per-core mean (1.0 = perfectly balanced).
  double imbalance_ratio = 1.0;
  // Physical-plan step id and output cardinality — what ExplainAnalyze
  // joins the timings back to the plan tree with.
  int step_id = -1;
  uint64_t rows_out = 0;
  // Host wall-clock time of the step's Execute (steady_clock read at
  // the step boundaries): the x86 clock beside the modeled one.
  double wall_seconds = 0;
  // Rows per tile a pipeline step moved (StepOutput::ran_tile_rows).
  size_t ran_tile_rows = 0;
};

// The one per-query counter set. Everything the engine, the offload
// operator, metrics emission and EXPLAIN ANALYZE report about a query
// lives here; the per-core DMS/join-filter tallies (dpu::CoreCounters)
// and the checkpoint accounting (RecoveryCounters) are base slices of
// it, so they fold in with one Accumulate call each.
struct ExecutionStats : dpu::CoreCounters, RecoveryCounters {
  double modeled_seconds = 0;  // total modeled DPU time
  double wall_seconds = 0;     // host wall clock (x86 software mode)
  double total_compute_cycles = 0;
  // Summed DMS transfer cycles across all steps and cores — the
  // data-movement volume pipeline fusion eliminates (fused chains pay
  // one load per input tile and one store per output tile).
  double total_dms_cycles = 0;
  std::vector<StepTiming> steps;
  // Morsel-phase load balance accumulated over the whole query:
  // per-phase max/mean core cycles (dpu::LptSchedule).
  dpu::ImbalanceStats imbalance;
  WorkloadCounters workload;
  // True when a DMEM out-of-memory failure demoted the plan from fused
  // pipelines back to step-at-a-time execution (the fused chain's
  // per-core state no longer fit the scratchpad).
  bool demoted_to_unfused = false;
  // Tile-local memory subsystem, summed over the dpCores at query end.
  // Arena figures are absolute (arenas persist across queries; a warm
  // steady state shows a flat high-water mark); tile_pool counters are
  // the per-query delta, so `misses` is the number of tile buffers
  // this query had to allocate rather than recycle.
  ArenaStats arena;
  TilePoolStats tile_pool;

  using dpu::CoreCounters::Accumulate;
  using RecoveryCounters::Accumulate;
  // Sums `other` into this set (several fragments of one query, or
  // several queries of a pass). Step timings append; `arena` is an
  // absolute snapshot, so the later one replaces it.
  void Accumulate(const ExecutionStats& other);
};

// A completed step's materialized rows, identified by the logical
// subtree it computes ("" = plan root; then one digit per level: '0'
// descends to the input/left child, '1' to the right). When a later
// step fails, the engine hands these back so the host fallback can
// resume from them instead of recomputing the whole fragment.
struct PartialResult {
  std::string path;
  ColumnSet rows;
};

// Query-lifetime checkpoint of a fragment's expensive intermediates,
// accumulated across execution attempts. Entries are keyed by the
// subtree address from PhysicalPlan::subtree_steps (plain paths for
// materialized step outputs, "X#p" for the partition rounds over
// subtree X) — addressing survives the demotion replan, which
// renumbers steps but preserves logical paths. ExecutePhysical
// consumes compatible entries at the start of an attempt and
// re-harvests everything completed when the attempt fails.
struct FragmentCheckpoint {
  struct Fragment {
    std::string path;   // subtree address ("" = root; may end in "#p")
    StepOutput out;     // the completed step's output
  };
  std::vector<Fragment> completed;
  struct Partial {
    std::string path;   // address of the step the progress belongs to
    StepProgress progress;
  };
  std::vector<Partial> in_progress;
  // Accounting accumulated across every attempt of this query.
  RecoveryCounters recovery;
};

// What the engine hands back when execution fails for good: the
// checkpoint's completed unpartitioned subtree results (for host
// fallback grafting) plus the query's stats, so callers can report how
// much DPU work survived even though the fragment did not. Only the
// RecoveryCounters slice is set: a failed fragment reports no DMS or
// join-filter traffic.
struct FallbackInfo {
  std::vector<PartialResult> partials;
  ExecutionStats stats;
};

struct QueryResult {
  ColumnSet rows;
  ExecutionStats stats;
  std::string plan_text;
};

class RapidEngine {
 public:
  explicit RapidEngine(
      const dpu::DpuConfig& config = dpu::DpuConfig::Default(),
      const dpu::CostParams& params = dpu::CostParams::Default());

  RapidEngine(const RapidEngine&) = delete;
  RapidEngine& operator=(const RapidEngine&) = delete;

  // Loads (or replaces) a table; RAPID keeps it fully in memory.
  Status Load(storage::Table table);

  const storage::Table* GetTable(const std::string& name) const;
  const Catalog& catalog() const { return catalog_; }

  // Compiles and executes a logical plan. Drives the recovery ladder:
  // transient failures (DMS retry exhaustion, post-demotion DMEM OOM,
  // allocator pressure) get up to `options.retry_budget` in-place DPU
  // retries that resume from the fragment checkpoint; a DMEM OOM under
  // fusion demotes to an unfused replan (checkpoints carry over by
  // subtree address). When everything fails and `fallback` is non-null
  // (and the failure is not a cancellation), it receives the completed
  // subtree results and the reuse accounting for the caller's host
  // fallback.
  Result<QueryResult> Execute(const LogicalPtr& plan,
                              const ExecOptions& options = ExecOptions{},
                              FallbackInfo* fallback = nullptr);

  // Executes an already-planned physical plan (used by benchmarks that
  // need access to step internals such as join statistics). `ckpt`
  // (optional) is consumed on entry — compatible completed outputs are
  // restored, mid-step progress resumes — and refilled with everything
  // completed when the attempt fails with a non-cancellation status.
  Result<QueryResult> ExecutePhysical(const PhysicalPlan& plan,
                                      const ExecOptions& options,
                                      FragmentCheckpoint* ckpt = nullptr);

  // Chrome trace-event JSON of the most recent query executed with the
  // config's trace mode at summary or full; "" when the last query ran
  // with tracing off. Process-wide, like the collector.
  static const std::string& LastTrace();

  // Executes `plan` and renders the physical plan tree annotated with
  // per-node actuals (rows, modeled ms, compute/DMS cycles, imbalance)
  // plus the query-wide counters — EXPLAIN ANALYZE.
  Result<std::string> ExplainAnalyze(
      const LogicalPtr& plan, const ExecOptions& options = ExecOptions{});

  // Applies an update batch to a loaded table through its tracker and
  // bumps the table SCN (Section 4.3).
  Status ApplyUpdate(const std::string& table, uint64_t scn,
                     std::vector<storage::RowChange> changes);

  // Update tracker of a table (null if the table has no updates yet).
  const storage::Tracker* tracker(const std::string& table) const;

  // Garbage-collects row versions no longer visible to any query at or
  // after `min_active_scn` (Section 4.3: accumulated updates occupy
  // memory via outdated vectors). Returns reclaimed version count.
  size_t VacuumTrackers(uint64_t min_active_scn);

  dpu::Dpu& dpu() { return *dpu_; }

 private:
  std::unique_ptr<dpu::Dpu> dpu_;
  dpu::DpuConfig config_;
  dpu::CostParams params_;
  Catalog catalog_;
  std::unordered_map<std::string, std::unique_ptr<storage::Tracker>>
      trackers_;
};

}  // namespace rapid::core

#endif  // RAPID_CORE_ENGINE_H_
