#include "core/qcomp/steps.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <utility>

#include "common/config.h"
#include "common/trace.h"
#include "core/ops/filter_op.h"
#include "core/ops/partition_sink.h"
#include "core/ops/probe_op.h"
#include "core/ops/project_op.h"
#include "core/ops/sink_op.h"
#include "core/qef/relation_accessor.h"
#include "primitives/bloom.h"
#include "storage/dsb.h"

namespace rapid::core {

namespace {

// Largest power-of-two tile (>= 64, <= requested) whose DMEM footprint
// fits the per-core scratchpad: the runtime equivalent of task
// formation's vector-size selection for steps whose input width is
// only known at execution time.
size_t FitTileRows(size_t requested, size_t bytes_per_row,
                   size_t dmem_bytes) {
  size_t tile = 64;
  while (tile * 2 <= requested && bytes_per_row * tile * 2 <= dmem_bytes) {
    tile *= 2;
  }
  return tile;
}

// Contiguous row-range morsels: ~4 per core so the work queue can
// balance uneven per-row costs, floored at the minimum tile so tiles
// never degenerate. Results are independent of the split because every
// order-preserving operator's outputs concatenate in range order.
struct RowRange {
  size_t begin = 0;
  size_t end = 0;
};

std::vector<RowRange> RowMorsels(size_t n, int num_cores) {
  std::vector<RowRange> ranges;
  if (n == 0) {
    ranges.push_back(RowRange{0, 0});
    return ranges;
  }
  const size_t slots = static_cast<size_t>(num_cores) * 4;
  const size_t target = std::max<size_t>(64, (n + slots - 1) / slots);
  for (size_t begin = 0; begin < n; begin += target) {
    ranges.push_back(RowRange{begin, std::min(n, begin + target)});
  }
  return ranges;
}

std::vector<double> RangeWeights(const std::vector<RowRange>& ranges) {
  std::vector<double> weights;
  weights.reserve(ranges.size());
  for (const RowRange& r : ranges) {
    weights.push_back(static_cast<double>(r.end - r.begin));
  }
  return weights;
}

// Builds the pushed-down Bloom filter from the build step's
// materialized output. Returns false (filter left empty) when the
// runtime gate is off, no ref was attached, or the build output is
// unsuitable at runtime — the scan then runs exactly as planned
// without the extra predicate. On success, charges every core the
// modeled per-core construction (broadcast-join style: each core
// reads the DRAM-resident key column and builds its private
// DMEM-resident filter; the host builds one shared read-only copy).
// Deliberately performs no fault polls, pool acquires or DMEM
// allocations, so fault-injection ordinals and DMEM layout do not
// shift with the gate.
bool BuildJoinFilter(ExecEnv& env, const JoinFilterRef& ref,
                     primitives::BlockedBloomFilter* filter) {
  if (!ref.enabled()) return false;
  if (GetConfig().join_filter != JoinFilterMode::kAuto) return false;
  const StepOutput& build = env.outputs[static_cast<size_t>(ref.build_step)];
  if (build.partitioned) return false;
  auto key = build.set.IndexOf(ref.build_key);
  if (!key.ok()) return false;
  const size_t rows = build.set.num_rows();
  // The resident filter must share DMEM with the scan chain's tiles;
  // cap it at a quarter of the scratchpad.
  const size_t max_bytes = env.dpu->config().dmem_bytes / 4;
  const uint32_t num_blocks =
      primitives::BlockedBloomFilter::BlocksForNdv(rows, max_bytes);
  if (num_blocks == 0) return false;
  // Host-track span (orchestrator thread); recording obeys the same
  // no-fault-poll / no-pool / no-DMEM discipline as the build itself.
  TraceSpan span(TraceMode::kSummary, TraceCollector::kTrackHost,
                 "joinfilter.build");
  span.Annotate("build_rows", static_cast<int64_t>(rows));
  span.Annotate("blocks", static_cast<int64_t>(num_blocks));
  *filter = primitives::BlockedBloomFilter(num_blocks);
  const size_t kcol = key.value();
  for (size_t r = 0; r < rows; ++r) {
    // Keys widen to int64 as the probe-side kernels and the join's own
    // build widen them.
    filter->Insert(static_cast<uint64_t>(build.set.Value(r, kcol)));
  }
  const dpu::CostParams& p = env.dpu->params();
  const double insert_cycles =
      p.bloom_insert_cycles_per_row * static_cast<double>(rows);
  const size_t key_width = build.set.meta(kcol).width;
  const dpu::Dms& dms = env.dpu->dms();
  env.dpu->ParallelFor([&](dpu::DpCore& core) {
    core.cycles().ChargeCompute(insert_cycles);
    // The key column at its physical width, then the filter's bits.
    dms.ChargeTile(&core.cycles(), 1, rows, key_width);
    dms.ChargeStream(&core.cycles(), filter->bytes());
    if (core.id() == 0) {
      core.counters().join_filter_built += 1;
      core.counters().filter_bytes += filter->bytes();
    }
  });
  span.Annotate("filter_bytes", static_cast<int64_t>(filter->bytes()));
  return true;
}

// Physical width of base column `col` as the accessor hands it on:
// the widest of its vectors' widths over `chunks`, where a decimal
// vector below the column-level `scale` grows by the rescale's factor.
// Proven from widths and scales alone, never from sampled values, so a
// write that widens one vector widens the next query's intermediates.
size_t SourceWidth(const std::vector<const storage::Chunk*>& chunks,
                   size_t col, int scale) {
  size_t width = 1;
  for (const storage::Chunk* chunk : chunks) {
    const storage::Vector& vec = chunk->column(col);
    size_t w = vec.width();
    const int shift = scale - vec.dsb_scale();
    if (vec.type() == storage::DataType::kDecimal && shift > 0 && w < 8) {
      // |value| < 2^(8w-1) before the rescale; at most 2^31 * 10^18
      // after it, which __int128 holds.
      const __int128 bound = (__int128{1} << (8 * w - 1)) *
                             storage::Pow10(std::min(shift, 18));
      w = shift > 18 || bound > std::numeric_limits<int64_t>::max()
              ? 8
              : storage::NarrowestWidth(-static_cast<int64_t>(bound),
                                        static_cast<int64_t>(bound - 1),
                                        vec.type());
    }
    width = std::max(width, w);
  }
  return width;
}

// A group-by bound to its input (Bind): its key expressions, its
// aggregates with bound expressions and FILTER clauses, and its output
// schema, the keys then the aggregates, each decimal iff its scale is
// not 0 (a COUNT's is).
struct BoundGroupBy {
  std::vector<ExprPtr> keys;
  std::vector<AggSpec> aggs;
  std::vector<ColumnMeta> metas;
};

Result<BoundGroupBy> BindGroupBy(
    const std::vector<std::pair<std::string, ExprPtr>>& keys,
    const std::vector<AggSpec>& aggs, const std::vector<ColumnMeta>& input) {
  BoundGroupBy out;
  for (const auto& [name, expr] : keys) {
    RAPID_ASSIGN_OR_RETURN(ExprPtr bound, Bind(*expr, input));
    out.metas.push_back(ExprMeta(name, *bound, input));
    out.keys.push_back(std::move(bound));
  }
  for (const AggSpec& a : aggs) {
    AggSpec bound = a;
    if (a.expr != nullptr) {
      RAPID_ASSIGN_OR_RETURN(bound.expr, Bind(*a.expr, input));
    }
    if (a.filter != nullptr) {
      RAPID_ASSIGN_OR_RETURN(Predicate filter, Bind(*a.filter, input));
      bound.filter = std::make_shared<Predicate>(std::move(filter));
    }
    const bool scaled = a.func != AggFunc::kCount && a.expr != nullptr;
    out.metas.push_back(ScaledMeta(a.name, scaled ? bound.expr->scale : 0));
    out.aggs.push_back(std::move(bound));
  }
  return out;
}

// Merge operator of the low-NDV strategy: folds each partial table
// into the first, in order, charging core 0 per merged group
// (aggregated data, low overhead), and counts the partials' chain
// steps. Returns the merged operator, or null when there is none.
GroupByOp* MergeLowNdv(ExecEnv& env, const std::vector<GroupByOp*>& partials) {
  GroupByOp* merged = nullptr;
  for (GroupByOp* op : partials) {
    env.counters.groupby_chain_steps += op->chain_steps();
    if (merged == nullptr) {
      merged = op;
      continue;
    }
    merged->MergeFrom(*op);
    env.dpu->core(0).cycles().ChargeCompute(
        env.dpu->params().groupby_cycles_per_row *
        static_cast<double>(op->table().num_groups()));
  }
  return merged;
}

// A keyless group-by's output: when no row reached it, the one row of
// COUNT zeros, or KeylessOverNoRows's error.
Status EmitKeylessOverNoRows(const std::vector<AggSpec>& aggs,
                             ColumnSet* out) {
  if (out->num_rows() != 0) return Status::OK();
  RAPID_RETURN_NOT_OK(KeylessOverNoRows(aggs));
  return out->AppendRow(std::vector<int64_t>(out->num_columns(), 0));
}

// A partition step's key list and scheme as plan text, e.g.
// "keys=(l_orderkey) scheme=64(hw32)".
std::string DescribePartition(const std::vector<std::string>& keys,
                              const PartitionScheme& scheme) {
  std::ostringstream os;
  os << "keys=(";
  for (size_t i = 0; i < keys.size(); ++i) {
    os << (i ? "," : "") << keys[i];
  }
  os << ") scheme=";
  for (size_t r = 0; r < scheme.rounds.size(); ++r) {
    os << (r ? "x" : "") << scheme.rounds[r].fanout;
    if (scheme.rounds[r].hw_fanout > 1) {
      os << "(hw" << scheme.rounds[r].hw_fanout << ")";
    }
  }
  return os.str();
}

}  // namespace

std::string PhysicalPlan::Describe() const {
  std::ostringstream os;
  for (const auto& step : steps) {
    os << "#" << step->id() << " " << step->Describe() << "\n";
  }
  return os.str();
}

std::vector<std::string> ProjectionInputs(
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

// ---- PartitionStep ---------------------------------------------------------

Status PartitionStep::Execute(ExecEnv& env) const {
  const StepOutput& in = env.outputs[static_cast<size_t>(input_)];
  if (in.partitioned) {
    return Status::InvalidArgument("input is already partitioned");
  }
  std::vector<size_t> key_cols;
  for (const std::string& name : key_columns_) {
    RAPID_ASSIGN_OR_RETURN(size_t idx, in.set.IndexOf(name));
    key_cols.push_back(idx);
  }
  // Checkpointed rounds (from a failed earlier attempt) are consumed
  // by PartitionExec; only the remaining rounds execute — and are
  // charged as workload volume.
  PartitionProgress* progress =
      env.progress != nullptr ? &(*env.progress)[static_cast<size_t>(id_)]
                                     .partition
                              : nullptr;
  size_t reused = 0;
  if (progress != nullptr && progress->CompatibleWith(scheme_)) {
    reused = static_cast<size_t>(progress->rounds_done);
  }
  env.counters.partitioned_rows +=
      in.set.num_rows() * (scheme_.rounds.size() - reused);
  env.recovery.reused_rounds += reused;
  RAPID_ASSIGN_OR_RETURN(
      PartitionedData parts,
      PartitionExec::Execute(*env.dpu, in.set, key_cols, scheme_, tile_rows_,
                             env.cancel, progress));
  StepOutput& out = env.outputs[static_cast<size_t>(id_)];
  out.partitioned = true;
  out.parts = std::move(parts);
  return Status::OK();
}

std::string PartitionStep::Describe() const {
  return "PARTITION #" + std::to_string(input_) + " " +
         DescribePartition(key_columns_, scheme_);
}

// ---- JoinStep --------------------------------------------------------------

Status JoinStep::Execute(ExecEnv& env) const {
  const StepOutput& build_in = env.outputs[static_cast<size_t>(build_input_)];
  const StepOutput& probe_in = env.outputs[static_cast<size_t>(probe_input_)];
  if (!build_in.partitioned || !probe_in.partitioned) {
    return Status::InvalidArgument("join inputs must be partitioned");
  }
  if (build_in.parts.partitions.empty() || probe_in.parts.partitions.empty()) {
    return Status::InvalidArgument("join inputs are empty");
  }
  const ColumnSet& bproto = build_in.parts.partitions[0];
  const ColumnSet& pproto = probe_in.parts.partitions[0];

  JoinSpec spec = spec_template_;
  spec.type = type_;
  spec.vectorized = env.vectorized;
  for (const std::string& k : build_keys_) {
    RAPID_ASSIGN_OR_RETURN(size_t idx, bproto.IndexOf(k));
    spec.build_keys.push_back(idx);
  }
  for (const std::string& k : probe_keys_) {
    RAPID_ASSIGN_OR_RETURN(size_t idx, pproto.IndexOf(k));
    spec.probe_keys.push_back(idx);
  }
  // Output columns resolve against build first, then probe, and are
  // emitted in request order (matching the host engine's ordering).
  for (const std::string& name : output_columns_) {
    auto b = bproto.IndexOf(name);
    if (b.ok() && type_ != JoinType::kSemi && type_ != JoinType::kAnti) {
      spec.outputs.push_back(JoinSpec::Output{true, b.value()});
      continue;
    }
    auto p = pproto.IndexOf(name);
    if (p.ok()) {
      spec.outputs.push_back(JoinSpec::Output{false, p.value()});
      continue;
    }
    return Status::NotFound("join output column '" + name + "' not found");
  }

  JoinStats stats;
  RAPID_ASSIGN_OR_RETURN(
      ColumnSet merged,
      JoinExec::Execute(*env.dpu, build_in.parts, probe_in.parts, spec,
                        &stats, env.cancel));
  env.counters.join_build_rows += stats.build_rows;
  env.counters.join_probe_rows += stats.probe_rows;
  StepOutput& out = env.outputs[static_cast<size_t>(id_)];
  out.partitioned = false;
  out.set = std::move(merged);
  return Status::OK();
}

std::string JoinStep::Describe() const {
  std::ostringstream os;
  os << "HASHJOIN build=#" << build_input_ << " probe=#" << probe_input_
     << " keys=(";
  for (size_t i = 0; i < build_keys_.size(); ++i) {
    os << (i ? "," : "") << build_keys_[i] << "=" << probe_keys_[i];
  }
  os << ")";
  switch (type_) {
    case JoinType::kInner:
      os << " inner";
      break;
    case JoinType::kSemi:
      os << " semi";
      break;
    case JoinType::kAnti:
      os << " anti";
      break;
    case JoinType::kLeftOuter:
      os << " left-outer";
      break;
  }
  return os.str();
}

// ---- PipelineStep ----------------------------------------------------------

std::vector<int> PipelineStep::Inputs() const {
  std::vector<int> in;
  if (spec_.input >= 0) in.push_back(spec_.input);
  for (const PipelineBranch& branch : spec_.branches) {
    for (const PipelineStageSpec& s : branch.stages) {
      if (s.kind == PipelineStageSpec::Kind::kProbe) {
        in.push_back(s.build_input);
      } else if (s.join_filter.enabled()) {
        in.push_back(s.join_filter.build_step);
      }
    }
  }
  return in;
}

void PipelineStep::RemapInputs(const std::vector<int>& old_to_new) {
  if (spec_.input >= 0) {
    spec_.input = old_to_new[static_cast<size_t>(spec_.input)];
  }
  for (PipelineBranch& branch : spec_.branches) {
    for (PipelineStageSpec& s : branch.stages) {
      if (s.kind == PipelineStageSpec::Kind::kProbe) {
        s.build_input = old_to_new[static_cast<size_t>(s.build_input)];
      } else if (s.join_filter.enabled()) {
        s.join_filter.build_step =
            old_to_new[static_cast<size_t>(s.join_filter.build_step)];
      }
    }
  }
}

namespace {

// Per-stage execution info resolved once (shared by all cores). Every
// column reference is bound to its input tile slot here, before any
// tile moves.
struct ResolvedStage {
  const PipelineStageSpec* spec = nullptr;
  std::vector<Predicate> predicates;     // kFilterProject: bound to input
  std::vector<size_t> pass_through;      // kFilterProject: input slots
  std::vector<ExprPtr> projections;      // kFilterProject: bound to those
  ProbeOpSpec probe;                     // kProbe
  BoundGroupBy group_by;                 // kAggregate
  std::vector<size_t> partition_keys;    // kPartition: key slots
};

// One branch resolved against the pipeline's source (shared by all
// cores).
struct ResolvedBranch {
  std::vector<ResolvedStage> stages;
  std::vector<ColumnMeta> metas;  // the branch's output schema
  // The join filter pushed into stage 0's predicates, when it was
  // built.
  primitives::BlockedBloomFilter join_bloom;
  size_t row_bytes = 0;    // DMEM per tile row, past the accessor's
  bool probes = false;     // a probe stage hosts a broadcast table
  // Resident state of the branch's sink: an aggregate stage's group
  // table or a partition stage's software fan-out staging.
  size_t sink_bytes = 0;
};

// Resolves `branch`'s stages and output schema against the source
// columns `source` (slot-ordered metas): each stage's input is the
// previous stage's output schema, and every name binds to its slot.
Status ResolveBranch(ExecEnv& env, const PipelineBranch& branch,
                     const std::vector<ColumnMeta>& source,
                     ResolvedBranch* out) {
  std::vector<ColumnMeta>& metas = out->metas;  // running stage input
  metas = source;
  for (const PipelineStageSpec& stage : branch.stages) {
    ResolvedStage rs;
    rs.spec = &stage;
    if (stage.kind == PipelineStageSpec::Kind::kFilterProject) {
      // Join-filter pushdown: the planner's ref rides on stage 0. Build
      // once (shared, read-only) and hand every core's stage-0 FilterOp
      // the augmented predicate list, so pruned rows never reach
      // projection, materialization or a downstream partition step.
      rs.predicates = stage.predicates;
      if (&stage == &branch.stages.front() &&
          BuildJoinFilter(env, stage.join_filter, &out->join_bloom)) {
        rs.predicates.push_back(
            Predicate::Bloom(stage.join_filter.probe_column, &out->join_bloom,
                             stage.join_filter.selectivity));
      }
      for (Predicate& p : rs.predicates) {
        RAPID_ASSIGN_OR_RETURN(p, Bind(p, metas));
      }
      // The filter gathers the projections' inputs; they bind to its
      // output tile.
      std::vector<ColumnMeta> passed;
      for (const std::string& name : ProjectionInputs(stage.projections)) {
        RAPID_ASSIGN_OR_RETURN(size_t slot, SlotOf(metas, name));
        rs.pass_through.push_back(slot);
        passed.push_back(metas[slot]);
      }
      metas.clear();
      for (const auto& [name, expr] : stage.projections) {
        RAPID_ASSIGN_OR_RETURN(ExprPtr bound, Bind(*expr, passed));
        metas.push_back(ExprMeta(name, *bound, passed));
        rs.projections.push_back(std::move(bound));
      }
      out->row_bytes +=
          8 * (rs.pass_through.size() + stage.projections.size()) + 8;
    } else if (stage.kind == PipelineStageSpec::Kind::kProbe) {
      out->probes = true;
      const StepOutput& bout =
          env.outputs[static_cast<size_t>(stage.build_input)];
      if (bout.partitioned) {
        return Status::InvalidArgument(
            "pipelined probe needs an unpartitioned build input");
      }
      const ColumnSet& bset = bout.set;
      rs.probe.build = &bset;
      rs.probe.type = stage.join_type;
      rs.probe.tile_rows = stage.join_spec.tile_rows;
      rs.probe.bucket_reduction = stage.join_spec.bucket_reduction;
      rs.probe.dmem_capacity_rows = stage.join_spec.dmem_capacity_rows;
      for (const std::string& k : stage.build_keys) {
        RAPID_ASSIGN_OR_RETURN(size_t idx, bset.IndexOf(k));
        rs.probe.build_keys.push_back(idx);
      }
      for (const std::string& k : stage.probe_keys) {
        RAPID_ASSIGN_OR_RETURN(size_t slot, SlotOf(metas, k));
        rs.probe.probe_keys.push_back(slot);
      }
      std::vector<ColumnMeta> joined;
      for (const std::string& name : stage.output_columns) {
        auto b = bset.IndexOf(name);
        if (b.ok() && stage.join_type != JoinType::kSemi &&
            stage.join_type != JoinType::kAnti) {
          rs.probe.outputs.push_back(ProbeOpSpec::Output{true, b.value()});
          joined.push_back(bset.meta(b.value()));
          // kJoinNull, an unmatched left-outer row's build value, only
          // fits 8 bytes.
          if (stage.join_type == JoinType::kLeftOuter) {
            joined.back().width = sizeof(int64_t);
          }
          continue;
        }
        RAPID_ASSIGN_OR_RETURN(size_t slot, SlotOf(metas, name));
        rs.probe.outputs.push_back(ProbeOpSpec::Output{false, slot});
        joined.push_back(metas[slot]);
      }
      metas = std::move(joined);
      env.counters.join_build_rows += bset.num_rows();
      out->row_bytes += 8 * stage.output_columns.size() + 8;
    } else if (stage.kind == PipelineStageSpec::Kind::kPartition) {
      // The stage passes its input through: the output schema stays.
      for (const std::string& k : stage.partition_keys) {
        RAPID_ASSIGN_OR_RETURN(size_t slot, SlotOf(metas, k));
        rs.partition_keys.push_back(slot);
      }
      out->row_bytes += PartitionSink::kBytesPerRow;
      out->sink_bytes =
          PartitionSink::StagingBytes(stage.partition_scheme.rounds.front());
    } else {
      RAPID_ASSIGN_OR_RETURN(
          rs.group_by, BindGroupBy(stage.group_keys, stage.aggregates, metas));
      metas = rs.group_by.metas;
      out->row_bytes +=
          8 * (stage.group_keys.size() + stage.aggregates.size());
      out->sink_bytes = GroupHashTable::DmemBytes(
          stage.group_keys.size(), stage.aggregates.size(), stage.est_groups);
    }
    out->stages.push_back(std::move(rs));
  }
  return Status::OK();
}

// A shared scan's tile fan-out: pushes each source tile through every
// branch in turn. The tile stays in the accessor's buffer until the
// last branch is done with it.
class FanOutOp : public PipelineOp {
 public:
  explicit FanOutOp(std::vector<PipelineOp*> heads)
      : heads_(std::move(heads)) {}

  size_t DmemBytes(size_t) const override { return 0; }
  Status Open(ExecCtx&) override { return Status::OK(); }
  Status Consume(ExecCtx& ctx, const Tile& tile) override {
    for (PipelineOp* head : heads_) {
      RAPID_RETURN_NOT_OK(head->Consume(ctx, tile));
    }
    return Status::OK();
  }
  Status Finish(ExecCtx& ctx) override {
    for (PipelineOp* head : heads_) RAPID_RETURN_NOT_OK(head->Finish(ctx));
    return Status::OK();
  }

 private:
  std::vector<PipelineOp*> heads_;
};

using BranchOps = std::vector<std::unique_ptr<PipelineOp>>;

// Opens a core's branch chains. A lone branch opens as a plain chain.
// The branches of a shared scan run one after another on each tile, so
// their per-tile scratch (PipelineOp::DmemBytes) overlays: each branch
// opens on top of the resident state (broadcast tables) of the
// branches before it and gives its scratch back, and the largest
// branch's scratch is reserved once after the last. The operators'
// buffers live in the tile pool; the arena only budgets them, so
// handing the scratch bytes back frees exactly that budget.
Status OpenBranches(ExecCtx& ctx, size_t tile_rows,
                    const std::vector<BranchOps>& branches) {
  if (branches.size() == 1) {
    for (const auto& op : branches.front()) RAPID_RETURN_NOT_OK(op->Open(ctx));
    return Status::OK();
  }
  dpu::Dmem& dmem = ctx.dmem();
  size_t max_scratch = 0;
  for (const BranchOps& ops : branches) {
    size_t scratch = 0;
    for (const auto& op : ops) {
      RAPID_RETURN_NOT_OK(op->Open(ctx));
      scratch += (op->DmemBytes(tile_rows) + 7) & ~size_t{7};
    }
    dmem.TruncateTo(dmem.used() - scratch);
    max_scratch = std::max(max_scratch, scratch);
  }
  return dmem.Allocate(max_scratch).status();
}

// A partition stage's output: PartitionExec lays out every round from
// the sink's rows of schema `metas`, one ColumnSet per morsel. A
// compatible `progress` (a later round failed in an earlier attempt)
// stands in for the chain and the rounds it holds; `morsels` is empty
// then. Only the rounds that run count as workload volume.
Status PartitionRounds(ExecEnv& env, int step_id,
                       const PipelineStageSpec& stage,
                       std::vector<ColumnMeta> metas,
                       std::vector<ColumnSet> morsels,
                       PartitionProgress* progress) {
  const PartitionScheme& scheme = stage.partition_scheme;
  std::vector<size_t> key_cols;
  for (const std::string& name : stage.partition_keys) {
    RAPID_ASSIGN_OR_RETURN(size_t slot, SlotOf(metas, name));
    key_cols.push_back(slot);
  }
  size_t rows = 0;
  size_t reused = 0;
  if (progress != nullptr && progress->CompatibleWith(scheme)) {
    reused = static_cast<size_t>(progress->rounds_done);
    for (const ColumnSet& bucket : progress->buckets) {
      rows += bucket.num_rows();
    }
  }
  for (const ColumnSet& m : morsels) rows += m.num_rows();
  env.counters.partitioned_rows += rows * (scheme.NumRounds() - reused);
  env.recovery.reused_rounds += reused;
  RAPID_ASSIGN_OR_RETURN(
      PartitionedData parts,
      PartitionExec::ExecuteSink(*env.dpu, std::move(metas),
                                 std::move(morsels), key_cols, scheme,
                                 stage.partition_tile_rows, env.cancel,
                                 progress));
  StepOutput& out = env.outputs[static_cast<size_t>(step_id)];
  out.partitioned = true;
  out.parts = std::move(parts);
  return Status::OK();
}

}  // namespace

Status PipelineStep::Execute(ExecEnv& env) const {
  if (spec_.branches.empty()) {
    return Status::InvalidArgument("pipeline step needs a branch");
  }
  const bool table_source = !spec_.table.empty();
  for (const PipelineBranch& branch : spec_.branches) {
    // Over a table, stage 0 carries the join filter and the rid flag.
    const bool leads =
        !branch.stages.empty() &&
        (branch.stages.front().kind ==
             PipelineStageSpec::Kind::kFilterProject ||
         (!table_source &&
          branch.stages.front().kind == PipelineStageSpec::Kind::kAggregate));
    if (!leads) {
      return Status::InvalidArgument(
          "pipeline step needs a leading filter/project stage");
    }
  }
  const size_t num_branches = spec_.branches.size();
  const PipelineStageSpec& last = spec_.branches.front().stages.back();
  const bool aggregate = last.kind == PipelineStageSpec::Kind::kAggregate;
  const bool partition = last.kind == PipelineStageSpec::Kind::kPartition;
  if ((aggregate || partition) && num_branches > 1) {
    return Status::InvalidArgument(
        "only a lone pipeline branch may end in an aggregate or a partition");
  }
  StepProgress* sp = env.progress != nullptr
                         ? &(*env.progress)[static_cast<size_t>(id_)]
                         : nullptr;
  if (partition) {
    RAPID_RETURN_NOT_OK(ValidatePartitionScheme(last.partition_scheme));
    // A later round failed in an earlier attempt: the rounds it
    // completed stand in for the chain and round 1.
    if (sp != nullptr && sp->partition.CompatibleWith(last.partition_scheme)) {
      return PartitionRounds(env, id_, last,
                             sp->partition.buckets.front().metas(), {},
                             &sp->partition);
    }
  }

  // ---- Resolve the source: the incoming columns' metas, in tile-slot
  // order.
  const storage::Table* table = nullptr;
  const ColumnSet* input_set = nullptr;
  std::vector<const storage::Chunk*> all_chunks;
  std::vector<size_t> col_indices;
  std::vector<int> target_scales;
  std::vector<ColumnMeta> source;
  size_t src_width = 0;

  if (table_source) {
    auto table_it = env.catalog->find(spec_.table);
    if (table_it == env.catalog->end()) {
      return Status::NotFound("table '" + spec_.table + "' not loaded");
    }
    table = &table_it->second;
    for (size_t p = 0; p < table->num_partitions(); ++p) {
      const storage::Partition& part = table->partition(p);
      for (size_t c = 0; c < part.num_chunks(); ++c) {
        all_chunks.push_back(&part.chunk(c));
      }
    }
    for (size_t c = 0; c < spec_.base_columns.size(); ++c) {
      RAPID_ASSIGN_OR_RETURN(size_t idx,
                             table->schema().IndexOf(spec_.base_columns[c]));
      col_indices.push_back(idx);
      target_scales.push_back(table->stats(idx).dsb_scale);
      ColumnMeta& m = source.emplace_back();
      m.name = spec_.base_columns[c];
      m.type = table->schema().field(idx).type;
      m.dsb_scale = table->stats(idx).dsb_scale;
      m.dict = table->dictionary(idx);
      m.width = SourceWidth(all_chunks, idx, m.dsb_scale);
      src_width += storage::WidthOf(m.type);
    }
    // A shared scan reads each row once, whatever its branches number.
    size_t scan_rows = 0;
    for (const storage::Chunk* chunk : all_chunks) {
      scan_rows += chunk->num_rows();
    }
    env.counters.scanned_rows += scan_rows;
    env.counters.scanned_bytes += scan_rows * src_width;
  } else {
    const StepOutput& in = env.outputs[static_cast<size_t>(spec_.input)];
    if (in.partitioned) {
      return Status::InvalidArgument(
          "pipeline step needs an unpartitioned input");
    }
    input_set = &in.set;
    source = input_set->metas();
    for (size_t c = 0; c < input_set->num_columns(); ++c) {
      col_indices.push_back(c);
    }
    src_width = 8 * input_set->num_columns();
    // A group-by reading its input is no scan; agg_rows counts it.
    if (spec_.branches.front().stages.front().kind ==
        PipelineStageSpec::Kind::kFilterProject) {
      env.counters.scanned_rows += input_set->num_rows();
      env.counters.scanned_bytes += input_set->num_rows() * src_width;
    }
  }

  // ---- Resolve every branch against the source. Sized up front: the
  // branches' stage-0 predicates point at their own join filters.
  std::vector<ResolvedBranch> resolved(num_branches);
  for (size_t b = 0; b < num_branches; ++b) {
    RAPID_RETURN_NOT_OK(
        ResolveBranch(env, spec_.branches[b], source, &resolved[b]));
  }

  // ---- Tile size: the accessor's double buffer plus the largest
  // branch's per-row working set share the 32 KiB scratchpad (branches
  // overlay, see OpenBranches); probe stages additionally reserve room
  // for their DMEM hash tables (their Open() degrades capacity to what
  // is left), an aggregate stage for its group table, a partition stage
  // for its fan-out staging.
  size_t branch_row_bytes = 0;
  bool probes = false;
  size_t sink_bytes = 0;
  for (const ResolvedBranch& rb : resolved) {
    branch_row_bytes = std::max(branch_row_bytes, rb.row_bytes);
    probes = probes || rb.probes;
    sink_bytes += rb.sink_bytes;
  }
  size_t budget = env.dpu->config().dmem_bytes;
  if (probes) budget /= 2;
  budget -= std::min(budget, sink_bytes);
  const size_t tile_rows = FitTileRows(
      spec_.tile_rows, 2 * src_width + branch_row_bytes, budget);
  env.outputs[static_cast<size_t>(id_)].ran_tile_rows = tile_rows;

  const int num_cores = env.dpu->num_cores();
  const size_t n_input = table_source ? 0 : input_set->num_rows();

  // Morsels: one per chunk for table sources (weighted by row count),
  // contiguous row ranges otherwise. Outputs are indexed by morsel id,
  // so the merge order — and therefore the result — is independent of
  // the core assignment and the core count.
  std::vector<RowRange> ranges;
  std::vector<double> weights;
  if (table_source) {
    weights.reserve(all_chunks.size());
    for (const storage::Chunk* chunk : all_chunks) {
      weights.push_back(static_cast<double>(chunk->num_rows()));
    }
  } else {
    ranges = RowMorsels(n_input, num_cores);
    weights = RangeWeights(ranges);
  }
  const size_t num_morsels = table_source ? all_chunks.size() : ranges.size();
  // A slot holds one ColumnSet per branch. An aggregate pipeline keeps
  // no per-morsel output: its rows end in the cores' group tables.
  auto empty_rows = [&resolved] {
    std::vector<ColumnSet> rows;
    rows.reserve(resolved.size());
    for (const ResolvedBranch& rb : resolved) rows.emplace_back(rb.metas);
    return rows;
  };
  std::vector<MorselSlot> slots(aggregate ? 0 : num_morsels);
  for (MorselSlot& slot : slots) slot.rows = empty_rows();

  // Mid-pipeline resume: a failed earlier attempt left completed
  // morsel slots (the per-morsel high-water mark) in the checkpoint.
  // Reclaim them and skip those morsels' work below — slots of morsels
  // that had not finished are rebuilt empty, discarding any partially
  // written output from the failed attempt. The morsel
  // decomposition is a deterministic function of the input, so slot
  // indices line up across attempts; slots saved by another pipeline
  // at this address (the fused plan before a demotion) are dropped.
  // The schedule keeps every morsel where a from-scratch run puts it,
  // and a resumed morsel replays its recorded charges there. An
  // aggregate pipeline never saves slots (see StepProgress), so it
  // always starts over.
  if (!aggregate && sp != nullptr && sp->morsel_owner == Describe() &&
      sp->morsels.size() == num_morsels) {
    slots = std::move(sp->morsels);
    for (MorselSlot& slot : slots) {
      if (slot.done) {
        ++env.recovery.resumed_morsels;
        continue;
      }
      slot = MorselSlot();  // drop a failed morsel's partial output
      slot.rows = empty_rows();
    }
  }
  if (sp != nullptr) sp->clear();

  // A core's chains (with their resident broadcast hash tables) are
  // built lazily on the first morsel the core pulls, resumed or not,
  // and reused for the rest: the build cost is paid once per
  // participating core, exactly as with the static per-core split.
  // Per-morsel accessor buffers stack on top of the chain state and are
  // truncated between morsels.
  struct CoreChain {
    std::vector<BranchOps> branches;
    std::unique_ptr<FanOutOp> fan_out;  // shared scans only
    PipelineOp* head = nullptr;         // what the accessor pushes into
    bool opened = false;
    Status open_status;
    size_t dmem_mark = 0;
  };
  std::vector<CoreChain> chains(static_cast<size_t>(num_cores));

  const Status loop_status = env.dpu->ParallelForMorsels(
      weights, env.cancel, [&](dpu::DpCore& core, size_t m) -> Status {
        TraceSpan span(TraceMode::kFull, core.id(), "pipeline.morsel",
                       &dpu::TraceClockNow, &core.cycles());
        span.Annotate("morsel", static_cast<int64_t>(m));
        CoreChain& chain = chains[static_cast<size_t>(core.id())];
        ExecCtx ctx{&core, &env.dpu->dms(), &env.dpu->params(),
                    env.vectorized, env.cancel};
        if (!chain.opened) {
          chain.opened = true;
          core.dmem().Reset();
          std::vector<PipelineOp*> heads;
          for (size_t b = 0; b < num_branches; ++b) {
            BranchOps& ops = chain.branches.emplace_back();
            for (size_t s = 0; s < resolved[b].stages.size(); ++s) {
              const ResolvedStage& rs = resolved[b].stages[s];
              if (rs.spec->kind == PipelineStageSpec::Kind::kFilterProject) {
                ops.push_back(std::make_unique<FilterOp>(
                    rs.predicates, rs.pass_through, tile_rows,
                    s == 0 && spec_.branches[b].use_rid_list));
                ops.push_back(
                    std::make_unique<ProjectOp>(rs.projections, tile_rows));
              } else if (rs.spec->kind == PipelineStageSpec::Kind::kProbe) {
                ProbeOpSpec pspec = rs.probe;
                pspec.tile_rows = tile_rows;
                ops.push_back(
                    std::make_unique<HashJoinProbeOp>(std::move(pspec)));
              } else if (rs.spec->kind ==
                         PipelineStageSpec::Kind::kPartition) {
                ops.push_back(std::make_unique<PartitionSink>(
                    rs.spec->partition_scheme.rounds.front(), tile_rows,
                    rs.spec->partition_tile_rows));
              } else {
                ops.push_back(std::make_unique<GroupByOp>(
                    rs.group_by.keys, rs.group_by.aggs));
              }
            }
            for (size_t i = 0; i + 1 < ops.size(); ++i) {
              ops[i]->set_downstream(ops[i + 1].get());
            }
            heads.push_back(ops.front().get());
          }
          if (num_branches == 1) {
            chain.head = heads.front();
          } else {
            chain.fan_out = std::make_unique<FanOutOp>(std::move(heads));
            chain.head = chain.fan_out.get();
          }
          chain.open_status = OpenBranches(ctx, tile_rows, chain.branches);
          chain.dmem_mark = core.dmem().used();
        }
        RAPID_RETURN_NOT_OK(chain.open_status);
        MorselSlot* slot = aggregate ? nullptr : &slots[m];
        if (slot != nullptr && slot->done) {  // resumed
          core.cycles().Replay(slot->charges);
          core.counters().Accumulate(slot->counters);
          return Status::OK();
        }
        core.dmem().TruncateTo(chain.dmem_mark);

        // Each branch's sink: the core's group table, stamped with this
        // morsel's positions, the core's partition sink, pointed at the
        // morsel's slot, or a DMS store into the branch's rows of the
        // slot. The slot also records what the morsel charges.
        std::vector<MaterializeSink> sinks;
        dpu::CoreCounters outer_counters;
        Status st = Status::OK();
        if (aggregate) {
          static_cast<GroupByOp&>(*chain.branches.front().back())
              .StampFrom(static_cast<uint64_t>(m) << 32);
        } else {
          core.cycles().set_log(&slot->charges);
          outer_counters = std::exchange(core.counters(), {});
          if (partition) {
            st = static_cast<PartitionSink&>(*chain.branches.front().back())
                     .BeginMorsel(ctx, &slot->rows[0]);
          } else {
            sinks.reserve(num_branches);  // the ops point at the sinks
            for (size_t b = 0; b < num_branches; ++b) {
              MaterializeSink& sink =
                  sinks.emplace_back(&slot->rows[b], tile_rows);
              chain.branches[b].back()->set_downstream(&sink);
              if (st.ok()) st = sink.Open(ctx);
            }
          }
        }
        if (st.ok()) {
          if (table_source) {
            const std::vector<const storage::Chunk*> mine{all_chunks[m]};
            st = RelationAccessor::PushChunks(ctx, mine, col_indices,
                                              target_scales, tile_rows,
                                              chain.head);
          } else if (ranges[m].begin < ranges[m].end) {
            st = RelationAccessor::PushColumnSet(ctx, *input_set, col_indices,
                                                 ranges[m].begin,
                                                 ranges[m].end, tile_rows,
                                                 chain.head);
          }
        }
        if (slot != nullptr) {
          core.cycles().set_log(nullptr);
          slot->counters = std::exchange(core.counters(), outer_counters);
          core.counters().Accumulate(slot->counters);
          // High-water mark: the slot holds this morsel's complete
          // output, every branch's. Distinct workers write distinct
          // slots, so the done flags need no synchronization beyond the
          // phase barrier.
          slot->done = st.ok();
        }
        return st;
      });
  if (!loop_status.ok()) {
    // Checkpoint the completed slots so a retry resumes after the
    // high-water mark instead of demoting the whole step. Morsels
    // in flight when the abort landed either finished (their done bit
    // is set, output complete) or never ran — partially written slots
    // are never marked done. Cancellation checkpoints nothing.
    if (sp != nullptr && !aggregate && !loop_status.IsCancellation()) {
      sp->morsels = std::move(slots);
      sp->morsel_owner = Describe();
    }
    for (int c = 0; c < num_cores; ++c) env.dpu->core(c).dmem().Reset();
    return loop_status;
  }
  for (int c = 0; c < num_cores; ++c) env.dpu->core(c).dmem().Reset();

  // Probe statistics accumulate per chain; sums are
  // assignment-independent.
  JoinStats probe_stats;
  for (const CoreChain& chain : chains) {
    for (const BranchOps& ops : chain.branches) {
      for (const auto& op : ops) {
        if (const auto* probe =
                dynamic_cast<const HashJoinProbeOp*>(op.get())) {
          probe_stats += probe->stats();
        }
      }
    }
  }
  env.counters.join_probe_rows += probe_stats.probe_rows;

  StepOutput& out = env.outputs[static_cast<size_t>(id_)];
  out.partitioned = false;
  out.branch_rows.clear();
  if (aggregate) {
    // The cores' tables merge in core order; their stamps restore
    // global first-appearance order on emission.
    out.set = ColumnSet(resolved.front().metas);
    std::vector<GroupByOp*> partials;
    for (const CoreChain& chain : chains) {
      if (chain.branches.empty()) continue;  // the core ran no morsel
      partials.push_back(
          static_cast<GroupByOp*>(chain.branches.front().back().get()));
      env.counters.agg_rows += partials.back()->rows();
    }
    GroupByOp* merged = MergeLowNdv(env, partials);
    if (merged != nullptr) RAPID_RETURN_NOT_OK(merged->EmitInto(&out.set));
    return last.group_keys.empty()
               ? EmitKeylessOverNoRows(last.aggregates, &out.set)
               : Status::OK();
  }
  if (partition) {
    std::vector<ColumnSet> morsels;
    morsels.reserve(slots.size());
    for (MorselSlot& slot : slots) morsels.push_back(std::move(slot.rows[0]));
    slots.clear();
    return PartitionRounds(env, id_, last, resolved.front().metas,
                           std::move(morsels),
                           sp != nullptr ? &sp->partition : nullptr);
  }
  // A branch's rows concatenate in morsel order.
  auto gather = [&](size_t b) {
    ColumnSet rows(resolved[b].metas);
    for (const MorselSlot& slot : slots) rows.Append(slot.rows[b]);
    return rows;
  };
  out.set = gather(0);
  for (size_t b = 1; b < num_branches; ++b) {
    out.branch_rows.push_back(gather(b));
  }
  return Status::OK();
}

namespace {

// One stage as plan text, e.g. "filter+project preds=3 proj=5".
std::string DescribeStage(const PipelineStageSpec& s) {
  std::ostringstream os;
  if (s.kind == PipelineStageSpec::Kind::kFilterProject) {
    os << "filter+project preds=" << s.predicates.size()
       << " proj=" << s.projections.size();
    if (s.join_filter.enabled()) {
      os << " joinfilter=#" << s.join_filter.build_step << "("
         << s.join_filter.probe_column << ")";
    }
  } else if (s.kind == PipelineStageSpec::Kind::kAggregate) {
    os << "aggregate low-ndv keys=" << s.group_keys.size()
       << " aggs=" << s.aggregates.size();
  } else if (s.kind == PipelineStageSpec::Kind::kPartition) {
    os << "partition " << DescribePartition(s.partition_keys,
                                            s.partition_scheme);
  } else {
    os << "probe build=#" << s.build_input << " keys=(";
    for (size_t i = 0; i < s.build_keys.size(); ++i) {
      os << (i ? "," : "") << s.build_keys[i] << "=" << s.probe_keys[i];
    }
    os << ")";
    switch (s.join_type) {
      case JoinType::kInner:
        os << " inner";
        break;
      case JoinType::kSemi:
        os << " semi";
        break;
      case JoinType::kAnti:
        os << " anti";
        break;
      case JoinType::kLeftOuter:
        os << " left-outer";
        break;
    }
  }
  return os.str();
}

}  // namespace

std::string PipelineStep::Describe() const {
  std::ostringstream os;
  // A branch of one stage reads as a lone scan, pipe or group-by, in
  // plans and reports alike.
  bool lone = true;
  for (const PipelineBranch& branch : spec_.branches) {
    lone = lone && branch.stages.size() == 1;
  }
  auto describe_lone = [&os](const PipelineBranch& branch) {
    const PipelineStageSpec& s = branch.stages.front();
    os << "preds=" << s.predicates.size() << " proj=" << s.projections.size();
  };
  auto describe_scan_tail = [&os](const PipelineBranch& branch) {
    const PipelineStageSpec& s = branch.stages.front();
    os << (branch.use_rid_list ? " rid" : " bv");
    if (s.join_filter.enabled()) {
      os << " joinfilter=#" << s.join_filter.build_step << "("
         << s.join_filter.probe_column << ")";
    }
  };
  const PipelineBranch& first = spec_.branches.front();
  if (spec_.branches.size() == 1) {
    if (lone && first.stages.front().kind ==
                    PipelineStageSpec::Kind::kAggregate) {
      const PipelineStageSpec& s = first.stages.front();
      os << "GROUPBY #" << spec_.input << " low-ndv keys="
         << s.group_keys.size() << " aggs=" << s.aggregates.size();
      return os.str();
    }
    if (lone) {
      if (spec_.table.empty()) {
        os << "PIPE #" << spec_.input << " ";
      } else {
        os << "SCAN " << spec_.table << " ";
      }
      describe_lone(first);
      os << " tile=" << spec_.tile_rows;
      if (!spec_.table.empty()) describe_scan_tail(first);
      return os.str();
    }
    os << "PIPELINE ";
    if (!spec_.table.empty()) {
      os << "scan " << spec_.table;
    } else {
      os << "#" << spec_.input;
    }
    for (const PipelineStageSpec& s : first.stages) {
      os << " | " << DescribeStage(s);
    }
    os << " tile=" << spec_.tile_rows << (first.use_rid_list ? " rid" : " bv");
    return os.str();
  }
  // A shared scan: the source once, then one line per branch.
  os << (lone ? "SCAN " : "PIPELINE scan ") << spec_.table
     << " tile=" << spec_.tile_rows << " branches=" << spec_.branches.size();
  for (size_t b = 0; b < spec_.branches.size(); ++b) {
    const PipelineBranch& branch = spec_.branches[b];
    os << "\n  [" << b << "] ";
    if (lone) {
      describe_lone(branch);
      describe_scan_tail(branch);
      continue;
    }
    for (size_t s = 0; s < branch.stages.size(); ++s) {
      os << (s ? " | " : "") << DescribeStage(branch.stages[s]);
    }
    os << (branch.use_rid_list ? " rid" : " bv");
  }
  return os.str();
}

// ---- BranchStep ------------------------------------------------------------

Status BranchStep::Execute(ExecEnv& env) const {
  StepOutput& shared = env.outputs[static_cast<size_t>(shared_)];
  if (branch_ == 0 || branch_ > shared.branch_rows.size()) {
    return Status::Internal("shared scan #" + std::to_string(shared_) +
                            " has no rows for branch " +
                            std::to_string(branch_));
  }
  StepOutput& out = env.outputs[static_cast<size_t>(id_)];
  out.partitioned = false;
  out.set = std::move(shared.branch_rows[branch_ - 1]);
  return Status::OK();
}

std::string BranchStep::Describe() const {
  return "BRANCH " + std::to_string(branch_) + " of #" +
         std::to_string(shared_);
}

// ---- GroupByStep -----------------------------------------------------------

Status GroupByStep::Execute(ExecEnv& env) const {
  const StepOutput& in = env.outputs[static_cast<size_t>(input_)];
  if (!in.partitioned) {
    return Status::InvalidArgument(
        "high-NDV group-by needs a partitioned input");
  }
  const PartitionedData& input = in.parts;
  if (input.partitions.empty()) {
    return Status::InvalidArgument("group-by input has no partitions");
  }
  const ColumnSet& proto = input.partitions[0];
  std::vector<size_t> col_indices;
  for (size_t c = 0; c < proto.num_columns(); ++c) col_indices.push_back(c);
  RAPID_ASSIGN_OR_RETURN(const BoundGroupBy bound,
                         BindGroupBy(keys_, aggs_, proto.metas()));
  const std::vector<ColumnMeta>& metas = bound.metas;
  for (const ColumnSet& p : input.partitions) {
    env.counters.agg_rows += p.num_rows();
  }

  // Distinct groups live in disjoint partitions (partitioned on the
  // group keys), so per-partition tables concatenate with no merge.
  const size_t num_parts = input.partitions.size();
  std::vector<ColumnSet> partials(num_parts, ColumnSet(metas));
  const size_t bytes_per_row =
      8 * (2 * col_indices.size() + keys_.size() + aggs_.size());
  const size_t tile_rows = FitTileRows(
      tile_rows_, bytes_per_row, env.dpu->config().dmem_bytes);
  // Key column indices, for runtime re-partitioning of oversized
  // partitions (keys are plain columns on the high-NDV path).
  std::vector<size_t> key_cols;
  bool keys_plain = !keys_.empty();
  for (const ExprPtr& key : bound.keys) {
    if (key->kind != Expr::Kind::kColumn) {
      keys_plain = false;
      break;
    }
    key_cols.push_back(static_cast<size_t>(key->slot));
  }

  std::atomic<uint64_t> repartitions{0};
  std::atomic<uint64_t> chain_steps{0};
  // One operator per core, created on the core's first partition and
  // Reset for each later one: the table keeps its allocations.
  std::vector<std::unique_ptr<GroupByOp>> core_ops(
      static_cast<size_t>(env.dpu->num_cores()));
  // One morsel per partition, weighted by row count: the LPT deal
  // spreads the heavy (skewed) partitions first and fills the
  // remaining cores with the light ones.
  std::vector<double> part_weights;
  part_weights.reserve(num_parts);
  for (const ColumnSet& part : input.partitions) {
    part_weights.push_back(static_cast<double>(part.num_rows()));
  }
  RAPID_RETURN_NOT_OK(env.dpu->ParallelForMorsels(
      part_weights, env.cancel, [&](dpu::DpCore& core, size_t p) -> Status {
        const ColumnSet& part = input.partitions[p];
        // An empty partition holds no group: skip it before building
        // anything. It moves no DMS bytes and the scheduler charges
        // nothing per morsel, so modeled time does not change.
        if (part.num_rows() == 0) return Status::OK();
        TraceSpan span(TraceMode::kFull, core.id(), "groupby.partition",
                       &dpu::TraceClockNow, &core.cycles());
        span.Annotate("partition", static_cast<int64_t>(p));
        std::unique_ptr<GroupByOp>& op =
            core_ops[static_cast<size_t>(core.id())];
        if (op == nullptr) {
          op = std::make_unique<GroupByOp>(bound.keys, bound.aggs);
        }
        // Aggregates one ColumnSet, whose keys share their low
        // `hash_shift` hash bits, into `agg_out` on this core.
        auto aggregate = [&](const ColumnSet& rows, int hash_shift,
                             ColumnSet* agg_out) -> Status {
          if (rows.num_rows() == 0) return Status::OK();
          core.dmem().Reset();
          op->Reset(std::min(hash_shift, 31), rows.num_rows());
          ExecCtx ctx{&core, &env.dpu->dms(), &env.dpu->params(),
                      env.vectorized, env.cancel};
          RAPID_RETURN_NOT_OK(op->Open(ctx));
          RAPID_RETURN_NOT_OK(RelationAccessor::PushColumnSet(
              ctx, rows, col_indices, 0, rows.num_rows(), tile_rows,
              op.get()));
          chain_steps.fetch_add(op->chain_steps());
          RAPID_RETURN_NOT_OK(op->EmitInto(agg_out));
          core.dmem().Reset();
          return Status::OK();
        };

        // Runtime re-partition (Section 5.4): if this partition exceeds
        // the estimate, its hash table would spill DMEM — split it
        // further before aggregating. Sub-partitions hold disjoint keys,
        // so their outputs concatenate.
        if (max_partition_rows_ > 0 && keys_plain &&
            part.num_rows() > max_partition_rows_ &&
            input.bits_used + 1 < 32) {
          size_t extra = 2;
          while (extra * max_partition_rows_ < part.num_rows() &&
                 extra < 256) {
            extra *= 2;
          }
          auto sub = PartitionExec::Repartition(
              core, env.dpu->dms(), part, key_cols,
              static_cast<int>(extra), input.bits_used, tile_rows);
          if (sub.ok()) {
            repartitions.fetch_add(1);
            const int sub_shift =
                input.bits_used + std::countr_zero(extra);
            for (const ColumnSet& sub_part : sub.value()) {
              RAPID_RETURN_NOT_OK(
                  aggregate(sub_part, sub_shift, &partials[p]));
            }
            return Status::OK();
          }
        }
        return aggregate(part, input.bits_used, &partials[p]);
      }));
  env.counters.groupby_chain_steps += chain_steps.load();
  env.counters.groupby_repartitions += repartitions.load();
  StepOutput& out = env.outputs[static_cast<size_t>(id_)];
  out.partitioned = false;
  out.set = ColumnSet(metas);
  for (const ColumnSet& cs : partials) out.set.Append(cs);
  return keys_.empty() ? EmitKeylessOverNoRows(aggs_, &out.set)
                       : Status::OK();
}

std::string GroupByStep::Describe() const {
  std::ostringstream os;
  os << "GROUPBY #" << input_ << " high-ndv keys=" << keys_.size()
     << " aggs=" << aggs_.size();
  return os.str();
}

// ---- Sort / TopK / SetOp / Window ------------------------------------------

Result<std::vector<SortKey>> ResolveSortKeys(
    const ColumnSet& set,
    const std::vector<std::pair<std::string, bool>>& keys) {
  std::vector<SortKey> out;
  for (const auto& [name, asc] : keys) {
    RAPID_ASSIGN_OR_RETURN(size_t idx, set.IndexOf(name));
    out.push_back(SortKey{idx, asc});
  }
  return out;
}

Status SortStep::Execute(ExecEnv& env) const {
  const StepOutput& in = env.outputs[static_cast<size_t>(input_)];
  env.counters.sorted_rows += in.set.num_rows();
  RAPID_ASSIGN_OR_RETURN(std::vector<SortKey> keys,
                         ResolveSortKeys(in.set, keys_));
  RAPID_ASSIGN_OR_RETURN(ColumnSet sorted,
                         SortExec::Execute(*env.dpu, in.set, keys));
  StepOutput& out = env.outputs[static_cast<size_t>(id_)];
  out.partitioned = false;
  out.set = std::move(sorted);
  return Status::OK();
}

std::string SortStep::Describe() const {
  std::ostringstream os;
  os << "SORT #" << input_ << " keys=" << keys_.size();
  return os.str();
}

Status TopKStep::Execute(ExecEnv& env) const {
  const StepOutput& in = env.outputs[static_cast<size_t>(input_)];
  env.counters.sorted_rows += in.set.num_rows();
  RAPID_ASSIGN_OR_RETURN(std::vector<SortKey> keys,
                         ResolveSortKeys(in.set, keys_));
  RAPID_ASSIGN_OR_RETURN(ColumnSet top,
                         TopKExec::Execute(*env.dpu, in.set, keys, k_));
  StepOutput& out = env.outputs[static_cast<size_t>(id_)];
  out.partitioned = false;
  out.set = std::move(top);
  return Status::OK();
}

std::string TopKStep::Describe() const {
  std::ostringstream os;
  os << "TOPK #" << input_ << " k=" << k_;
  return os.str();
}

Status SetOpStep::Execute(ExecEnv& env) const {
  const StepOutput& l = env.outputs[static_cast<size_t>(left_)];
  const StepOutput& r = env.outputs[static_cast<size_t>(right_)];
  RAPID_ASSIGN_OR_RETURN(ColumnSet result,
                         SetOpExec::Execute(*env.dpu, kind_, l.set, r.set));
  StepOutput& out = env.outputs[static_cast<size_t>(id_)];
  out.partitioned = false;
  out.set = std::move(result);
  return Status::OK();
}

std::string SetOpStep::Describe() const {
  const char* name = kind_ == SetOpKind::kUnion
                         ? "UNION"
                         : kind_ == SetOpKind::kIntersect ? "INTERSECT"
                                                          : "MINUS";
  std::ostringstream os;
  os << name << " #" << left_ << " #" << right_;
  return os.str();
}

Status WindowStep::Execute(ExecEnv& env) const {
  const StepOutput& in = env.outputs[static_cast<size_t>(input_)];
  std::vector<WindowSpec> specs;
  for (const LogicalWindow& w : windows_) {
    WindowSpec spec;
    spec.func = w.func;
    spec.output_name = w.output_name;
    for (const std::string& name : w.partition_by) {
      RAPID_ASSIGN_OR_RETURN(size_t idx, in.set.IndexOf(name));
      spec.partition_by.push_back(idx);
    }
    for (const auto& [name, asc] : w.order_by) {
      RAPID_ASSIGN_OR_RETURN(size_t idx, in.set.IndexOf(name));
      spec.order_by.push_back(SortKey{idx, asc});
    }
    if (!w.value_column.empty()) {
      RAPID_ASSIGN_OR_RETURN(spec.value_column,
                             in.set.IndexOf(w.value_column));
    }
    specs.push_back(std::move(spec));
  }
  RAPID_ASSIGN_OR_RETURN(ColumnSet result,
                         WindowExec::Execute(*env.dpu, in.set, specs));
  StepOutput& out = env.outputs[static_cast<size_t>(id_)];
  out.partitioned = false;
  out.set = std::move(result);
  return Status::OK();
}

std::string WindowStep::Describe() const {
  std::ostringstream os;
  os << "WINDOW #" << input_ << " funcs=" << windows_.size();
  return os.str();
}

}  // namespace rapid::core
