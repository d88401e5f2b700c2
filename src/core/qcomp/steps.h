// Physical plan steps: the executable form of a RAPID QEP.
//
// QComp lowers the logical tree into a DAG of steps. A step is a
// *task* in the paper's sense (Section 5.2): a group of pipelined
// operators executed without preemption, materializing only at its
// boundary. Steps reference their inputs by step id; the engine
// executes them in order and keeps each step's output (a DRAM
// ColumnSet, or a set of partitions for partitioning steps).

#ifndef RAPID_CORE_QCOMP_STEPS_H_
#define RAPID_CORE_QCOMP_STEPS_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "core/expr.h"
#include "core/ops/groupby_op.h"
#include "core/ops/join_exec.h"
#include "core/ops/partition_exec.h"
#include "core/ops/setop_exec.h"
#include "core/ops/sort_exec.h"
#include "core/ops/window_exec.h"
#include "core/qcomp/logical_plan.h"
#include "core/qef/column_set.h"
#include "dpu/dpu.h"
#include "storage/table.h"

namespace rapid::core {

struct StepOutput {
  ColumnSet set;
  PartitionedData parts;
  bool partitioned = false;
  // A shared scan (a PipelineStep with several branches) leaves branch
  // k's rows at branch_rows[k - 1] until its BranchStep moves them out;
  // `set` holds branch 0's.
  std::vector<ColumnSet> branch_rows;
  // Rows per tile a PipelineStep moved: its plan's tile, or fewer when
  // its DMEM budget fits fewer (FitTileRows). 0 for other steps.
  size_t ran_tile_rows = 0;
};

// Workload volume counters accumulated across steps; the benchmark
// harness feeds these into the System-X-on-Xeon analytical model for
// the performance/watt comparison (Figure 14).
struct WorkloadCounters {
  uint64_t scanned_rows = 0;
  uint64_t groupby_repartitions = 0;  // runtime re-partitions (§5.4)
  uint64_t groupby_chain_steps = 0;   // group-table collision steps
  uint64_t scanned_bytes = 0;
  uint64_t partitioned_rows = 0;
  uint64_t join_build_rows = 0;
  uint64_t join_probe_rows = 0;
  uint64_t agg_rows = 0;
  uint64_t sorted_rows = 0;

  void Accumulate(const WorkloadCounters& other) {
    scanned_rows += other.scanned_rows;
    groupby_repartitions += other.groupby_repartitions;
    groupby_chain_steps += other.groupby_chain_steps;
    scanned_bytes += other.scanned_bytes;
    partitioned_rows += other.partitioned_rows;
    join_build_rows += other.join_build_rows;
    join_probe_rows += other.join_probe_rows;
    agg_rows += other.agg_rows;
    sorted_rows += other.sorted_rows;
  }
};

// Fragment-checkpoint accounting: partition rounds restored instead
// of re-executed, pipeline morsels skipped by mid-step resume,
// and fragment-level DPU retries spent (bounded by
// ExecOptions::retry_budget). Steps tally one attempt in
// ExecEnv::recovery; FragmentCheckpoint sums the attempts of a query;
// ExecutionStats derives from this struct to report the total.
struct RecoveryCounters {
  uint64_t reused_rounds = 0;
  uint64_t resumed_morsels = 0;
  uint64_t dpu_retries = 0;

  void Accumulate(const RecoveryCounters& other) {
    reused_rounds += other.reused_rounds;
    resumed_morsels += other.resumed_morsels;
    dpu_retries += other.dpu_retries;
  }
};

// One morsel's output slot in a PipelineStep: its rows, one ColumnSet
// per branch, in input order (a partition sink's too: PartitionExec
// partitions them after the morsel loop). A completed slot also keeps
// the modeled charges and core counters its morsel produced: a resumed
// attempt replays them in place of the work, so the step's modeled time
// does not depend on which morsels happened to finish before a failure.
struct MorselSlot {
  std::vector<ColumnSet> rows;
  std::vector<dpu::CycleCounter::Charge> charges;
  dpu::CoreCounters counters;
  bool done = false;
};

// Mid-step state salvaged from a failed attempt, indexed by step id
// (ExecEnv::progress). An in-place retry of the same plan resumes
// from it instead of recomputing:
//  - PartitionStep keeps completed partition rounds (buckets +
//    carried hash columns) and restarts at the failed round;
//  - PipelineStep — a lone scan or pipe as much as a fused chain or a
//    shared scan — keeps its morsel-id-indexed slots, the completed
//    ones marked done (the high-water mark), and skips completed
//    morsels on the next attempt. A shared scan's morsel is done only
//    once every branch's rows for it are in the slot, and a resume
//    replays the whole morsel. The slots carry the Describe() of the
//    pipeline that filled them: a demotion replan can put a different
//    chain at the same subtree address, and its morsels are other rows.
//    A pipeline ending in an aggregate stage saves nothing: a core's
//    table mixes its finished morsels with the one that failed, so the
//    retry restarts the step. A pipeline ending in a partition stage
//    keeps its morsel slots, rows only, like any other; once
//    PartitionExec has laid out its first round from them, a later
//    round's failure saves the completed rounds as PartitionStep does,
//    and the retry resumes from them without running the chain again.
// Both resumes are bit-identical to from-scratch runs because morsel
// decomposition and each round's histogram-then-exact-offset bucket
// layout are deterministic.
struct StepProgress {
  PartitionProgress partition;
  std::vector<MorselSlot> morsels;
  std::string morsel_owner;  // Describe() of the pipeline that filled them

  bool empty() const { return partition.empty() && morsels.empty(); }
  void clear() {
    partition.clear();
    morsels.clear();
    morsel_owner.clear();
  }
};

struct ExecEnv {
  dpu::Dpu* dpu = nullptr;
  const std::unordered_map<std::string, storage::Table>* catalog = nullptr;
  bool vectorized = true;
  // Query-level cancellation token (may be null); steps thread it into
  // every per-core ExecCtx and check it at barrier boundaries.
  const CancelToken* cancel = nullptr;
  std::vector<StepOutput> outputs;  // indexed by step id
  WorkloadCounters counters;
  // Checkpoint slots, indexed by step id (null = checkpointing off).
  // Steps consume their slot on entry and refill it on failure; the
  // engine moves surviving slots into the query's FragmentCheckpoint.
  std::vector<StepProgress>* progress = nullptr;
  // Reuse accounting for the current attempt. Written single-threaded
  // at step boundaries.
  RecoveryCounters recovery;
};

class PlanStep {
 public:
  explicit PlanStep(int id) : id_(id) {}
  virtual ~PlanStep() = default;

  virtual Status Execute(ExecEnv& env) const = 0;
  virtual std::string Describe() const = 0;

  // Step ids of this step's inputs (empty for base-table sources).
  // The pipeline-fusion pass uses this to count consumers and rewrite
  // the plan.
  virtual std::vector<int> Inputs() const { return {}; }
  // Rewrites input step ids through old_to_new (indexed by old id)
  // after the fusion pass renumbers the plan.
  virtual void RemapInputs(const std::vector<int>& old_to_new) {
    (void)old_to_new;
  }

  int id() const { return id_; }
  void set_id(int id) { id_ = id; }

 protected:
  int id_;
};

struct PhysicalPlan {
  std::vector<std::unique_ptr<PlanStep>> steps;
  int root = -1;

  // Logical-subtree path -> id of the step whose output materializes
  // exactly that subtree's rows. Paths are "" for the root, then one
  // character per level: '0' descends to the input/left child, '1' to
  // the right. A path suffixed with "#p" addresses the *partition
  // rounds* of that subtree's output (join build/probe and high-NDV
  // group-by partition steps) — partitioned intermediates checkpoint
  // under these addresses so retries and replans can find them; the
  // suffix never reaches the host-side path walker. Recorded by the
  // planner, remapped by pipeline fusion (entries whose step was
  // absorbed into the middle of a pipeline are dropped). The engine
  // uses this to key checkpointed fragments for in-place DPU retries,
  // demotion replans and the host fallback.
  std::vector<std::pair<std::string, int>> subtree_steps;

  std::string Describe() const;
};

// ---- Step implementations --------------------------------------------------

// Sideways information passing (join-filter pushdown): the planner
// attaches one of these to stage 0 of the probe-side scan pipeline of
// a hash join when the build side is small enough that a blocked
// Bloom filter over its keys pays for itself. The pipeline builds the
// filter from the build step's materialized output and evaluates it as
// an extra predicate inside its tile loop, dropping pruned rows before
// partitioning and payload materialization.
//
// The ref is attached whenever the rewrite is structurally eligible
// and the cost gate passes — independent of the RAPID_JOIN_FILTER
// runtime gate — so the plan SHAPE (step inputs, fusion decisions,
// DMEM layout) is identical with the gate off or on; only the runtime
// build/evaluate is gated (Config::join_filter, common/config.h).
struct JoinFilterRef {
  int build_step = -1;       // step producing the build-side output
  std::string build_key;     // key column in the build output schema
  std::string probe_column;  // probed column in the scan's base schema
  double est_build_ndv = 0;  // planner NDV estimate (sizes the filter)
  double selectivity = 0.5;  // estimated pass rate incl. false positives

  bool enabled() const { return build_step >= 0; }
};

class PartitionStep : public PlanStep {
 public:
  PartitionStep(int id, int input, std::vector<std::string> key_columns,
                PartitionScheme scheme, size_t tile_rows)
      : PlanStep(id),
        input_(input),
        key_columns_(std::move(key_columns)),
        scheme_(std::move(scheme)),
        tile_rows_(tile_rows) {}

  Status Execute(ExecEnv& env) const override;
  std::string Describe() const override;
  std::vector<int> Inputs() const override { return {input_}; }
  void RemapInputs(const std::vector<int>& old_to_new) override {
    input_ = old_to_new[static_cast<size_t>(input_)];
  }

  int input() const { return input_; }
  const std::vector<std::string>& key_columns() const { return key_columns_; }
  const PartitionScheme& scheme() const { return scheme_; }
  size_t tile_rows() const { return tile_rows_; }

 private:
  int input_;
  std::vector<std::string> key_columns_;
  PartitionScheme scheme_;
  size_t tile_rows_;
};

class JoinStep : public PlanStep {
 public:
  JoinStep(int id, int build_input, int probe_input,
           std::vector<std::string> build_keys,
           std::vector<std::string> probe_keys,
           std::vector<std::string> output_columns, JoinType type,
           JoinSpec spec_template)
      : PlanStep(id),
        build_input_(build_input),
        probe_input_(probe_input),
        build_keys_(std::move(build_keys)),
        probe_keys_(std::move(probe_keys)),
        output_columns_(std::move(output_columns)),
        type_(type),
        spec_template_(std::move(spec_template)) {}

  Status Execute(ExecEnv& env) const override;
  std::string Describe() const override;
  std::vector<int> Inputs() const override {
    return {build_input_, probe_input_};
  }
  void RemapInputs(const std::vector<int>& old_to_new) override {
    build_input_ = old_to_new[static_cast<size_t>(build_input_)];
    probe_input_ = old_to_new[static_cast<size_t>(probe_input_)];
  }

  int build_input() const { return build_input_; }
  int probe_input() const { return probe_input_; }
  const std::vector<std::string>& build_keys() const { return build_keys_; }
  const std::vector<std::string>& probe_keys() const { return probe_keys_; }
  const std::vector<std::string>& output_columns() const {
    return output_columns_;
  }
  JoinType type() const { return type_; }
  const JoinSpec& spec_template() const { return spec_template_; }

 private:
  int build_input_;
  int probe_input_;
  std::vector<std::string> build_keys_;
  std::vector<std::string> probe_keys_;
  std::vector<std::string> output_columns_;
  JoinType type_;
  JoinSpec spec_template_;
};

// The high-NDV group-by (Section 5.4) over a partitioned input: one
// hash table per partition, runtime re-partitioning of oversized
// partitions, and a plain concatenation of the disjoint partitions'
// groups. A low-NDV group-by is an aggregate stage of a PipelineStep.
class GroupByStep : public PlanStep {
 public:
  GroupByStep(int id, int input,
              std::vector<std::pair<std::string, ExprPtr>> keys,
              std::vector<AggSpec> aggs, size_t tile_rows,
              size_t max_partition_rows = 0)
      : PlanStep(id),
        input_(input),
        keys_(std::move(keys)),
        aggs_(std::move(aggs)),
        tile_rows_(tile_rows),
        max_partition_rows_(max_partition_rows) {}

  Status Execute(ExecEnv& env) const override;
  std::string Describe() const override;
  std::vector<int> Inputs() const override { return {input_}; }
  void RemapInputs(const std::vector<int>& old_to_new) override {
    input_ = old_to_new[static_cast<size_t>(input_)];
  }

 private:
  int input_;
  std::vector<std::pair<std::string, ExprPtr>> keys_;
  std::vector<AggSpec> aggs_;
  size_t tile_rows_;
  // Runtime re-partition threshold (Section 5.4: partitions larger
  // than the estimate are re-partitioned as needed so hash tables fit
  // DMEM). 0 = off.
  size_t max_partition_rows_;
};

class SortStep : public PlanStep {
 public:
  SortStep(int id, int input, std::vector<std::pair<std::string, bool>> keys)
      : PlanStep(id), input_(input), keys_(std::move(keys)) {}

  Status Execute(ExecEnv& env) const override;
  std::string Describe() const override;
  std::vector<int> Inputs() const override { return {input_}; }
  void RemapInputs(const std::vector<int>& old_to_new) override {
    input_ = old_to_new[static_cast<size_t>(input_)];
  }

 private:
  int input_;
  std::vector<std::pair<std::string, bool>> keys_;
};

class TopKStep : public PlanStep {
 public:
  TopKStep(int id, int input, std::vector<std::pair<std::string, bool>> keys,
           size_t k)
      : PlanStep(id), input_(input), keys_(std::move(keys)), k_(k) {}

  Status Execute(ExecEnv& env) const override;
  std::string Describe() const override;
  std::vector<int> Inputs() const override { return {input_}; }
  void RemapInputs(const std::vector<int>& old_to_new) override {
    input_ = old_to_new[static_cast<size_t>(input_)];
  }

 private:
  int input_;
  std::vector<std::pair<std::string, bool>> keys_;
  size_t k_;
};

class SetOpStep : public PlanStep {
 public:
  SetOpStep(int id, SetOpKind kind, int left, int right)
      : PlanStep(id), kind_(kind), left_(left), right_(right) {}

  Status Execute(ExecEnv& env) const override;
  std::string Describe() const override;
  std::vector<int> Inputs() const override { return {left_, right_}; }
  void RemapInputs(const std::vector<int>& old_to_new) override {
    left_ = old_to_new[static_cast<size_t>(left_)];
    right_ = old_to_new[static_cast<size_t>(right_)];
  }

 private:
  SetOpKind kind_;
  int left_;
  int right_;
};

class WindowStep : public PlanStep {
 public:
  WindowStep(int id, int input, std::vector<LogicalWindow> windows)
      : PlanStep(id), input_(input), windows_(std::move(windows)) {}

  Status Execute(ExecEnv& env) const override;
  std::string Describe() const override;
  std::vector<int> Inputs() const override { return {input_}; }
  void RemapInputs(const std::vector<int>& old_to_new) override {
    input_ = old_to_new[static_cast<size_t>(input_)];
  }

 private:
  int input_;
  std::vector<LogicalWindow> windows_;
};

// One stage of a pipeline (see PipelineStep).
struct PipelineStageSpec {
  enum class Kind { kFilterProject, kProbe, kAggregate, kPartition };
  Kind kind = Kind::kFilterProject;

  // kFilterProject: ordered predicates + projection expressions.
  // `join_filter` (stage 0 of a table source only) carries the Bloom
  // filter the planner pushed into the probe-side scan; the tile loop
  // evaluates it after the ordinary predicates.
  std::vector<Predicate> predicates;
  std::vector<std::pair<std::string, ExprPtr>> projections;
  JoinFilterRef join_filter;

  // kProbe: a broadcast hash-join probe. `build_input` is the step id
  // producing the unpartitioned build side; each core builds a private
  // DMEM table over it and streams probe tiles through.
  int build_input = -1;
  std::vector<std::string> build_keys;
  std::vector<std::string> probe_keys;
  std::vector<std::string> output_columns;
  JoinType join_type = JoinType::kInner;
  JoinSpec join_spec;

  // kAggregate (last stage only): a low-NDV group-by as the branch's
  // sink. Each core aggregates its morsels into one table; the tables
  // merge after the round and the groups come out in the input's
  // first-appearance order. `est_groups` is the planner's group-count
  // estimate, which sizes the table's DMEM reservation.
  std::vector<std::pair<std::string, ExprPtr>> group_keys;
  std::vector<AggSpec> aggregates;
  size_t est_groups = 0;

  // kPartition (last stage only): a PARTITION step as the chain's sink.
  // The scheme's first round is paid on the chain's output tiles (see
  // PartitionSink); PartitionExec::ExecuteSink lays out every round
  // from the morsels' rows. The step's output is partitioned,
  // bit-identical to the unfused step's.
  std::vector<std::string> partition_keys;
  PartitionScheme partition_scheme;
  size_t partition_tile_rows = 1024;
};

// One operator chain over a pipeline's source; stages[i]'s output
// feeds stages[i+1]. The first stage is kFilterProject, except that a
// branch over an intermediate may be its kAggregate sink alone. Only
// the last stage of a lone branch may be kAggregate or kPartition.
// `use_rid_list` picks the first filter's qualifying-row
// representation.
struct PipelineBranch {
  std::vector<PipelineStageSpec> stages;
  bool use_rid_list = false;
};

// A pipeline's source and its branches. The source is either a base
// table (`!table.empty()`, input == -1) or a materialized intermediate
// (`input` >= 0). A pipeline has one branch, except a shared scan:
// pipeline fusion gives one table-source pipeline several branches
// (one per chain that read the same table), and each tile the DMS
// loads then runs through every branch in turn.
struct PipelineSpec {
  std::string table;
  std::vector<std::string> base_columns;  // columns read from the table
  int input = -1;
  std::vector<PipelineBranch> branches;
  size_t tile_rows = 1024;  // planned tile; execution fits it to DMEM
};

// A task in the paper's sense: a chain of pipeline-safe operators
// (scan/filter/project/probe), executed as ONE ParallelFor round.
// Every dpCore streams its share of input tiles through the whole
// chain DMEM-resident — one DMS load per input tile, one DMS store per
// output tile, no intermediate ColumnSet and no per-step barrier. A
// trailing low-NDV aggregate stage replaces the DMS store: the chain
// ends in one GroupByOp per core. A trailing partition stage replaces
// it too: the chain's tiles pay the first partition round, PartitionExec
// lays the rows out into the rounds' buckets, and the step's output is
// partitioned. The planner lowers
// every scan, every filter/project over an intermediate and every
// low-NDV group-by as a one-stage pipeline (printed `SCAN ...`,
// `PIPE #n ...`, `GROUPBY #n low-ndv ...`); pipeline fusion extends
// those into longer chains and merges chains over one table into a
// shared scan: one DMS load per tile feeds K branches, each with its
// own stages and output (branch 0's is this step's; branch k's moves
// to a BranchStep). Pipeline breakers (join build, a partition pass
// over a breaker's output, high-NDV group-by, sort) stay separate
// steps.
class PipelineStep : public PlanStep {
 public:
  PipelineStep(int id, PipelineSpec spec)
      : PlanStep(id), spec_(std::move(spec)) {}

  Status Execute(ExecEnv& env) const override;
  std::string Describe() const override;
  std::vector<int> Inputs() const override;
  void RemapInputs(const std::vector<int>& old_to_new) override;

  const PipelineSpec& spec() const { return spec_; }
  // Attaches the planner's join-filter pushdown to the scan stage.
  void set_join_filter(JoinFilterRef ref) {
    spec_.branches.front().stages.front().join_filter = std::move(ref);
  }

 private:
  PipelineSpec spec_;
};

// Branch k >= 1 of a shared scan: a zero-cost step that moves (not
// copies) the branch's rows out of the shared PipelineStep's output,
// so every branch's rows live at a step id — and a checkpoint address
// — of their own.
class BranchStep : public PlanStep {
 public:
  BranchStep(int id, int shared, size_t branch)
      : PlanStep(id), shared_(shared), branch_(branch) {}

  Status Execute(ExecEnv& env) const override;
  std::string Describe() const override;
  std::vector<int> Inputs() const override { return {shared_}; }
  void RemapInputs(const std::vector<int>& old_to_new) override {
    shared_ = old_to_new[static_cast<size_t>(shared_)];
  }

 private:
  int shared_;
  size_t branch_;
};

// Shared helpers.
// Column names a projection list reads (deduplicated, in order): the
// columns a filter passes through to the projection that follows it.
std::vector<std::string> ProjectionInputs(
    const std::vector<std::pair<std::string, ExprPtr>>& projections);
Result<std::vector<SortKey>> ResolveSortKeys(
    const ColumnSet& set, const std::vector<std::pair<std::string, bool>>& keys);

}  // namespace rapid::core

#endif  // RAPID_CORE_QCOMP_STEPS_H_
