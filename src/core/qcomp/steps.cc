#include "core/qcomp/steps.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <sstream>

#include "common/config.h"
#include "common/trace.h"
#include "core/ops/filter_op.h"
#include "core/ops/probe_op.h"
#include "core/ops/project_op.h"
#include "core/ops/sink_op.h"
#include "core/qef/relation_accessor.h"
#include "primitives/bloom.h"

namespace rapid::core {

namespace {

// Columns the filter must pass through to the projection stage.
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

std::vector<ColumnMeta> ProjectionMetas(
    const std::vector<std::pair<std::string, ExprPtr>>& projections) {
  std::vector<ColumnMeta> metas;
  metas.reserve(projections.size());
  for (const auto& [name, expr] : projections) {
    ColumnMeta m;
    m.name = name;
    metas.push_back(m);
  }
  return metas;
}

Result<size_t> FindColumn(const ColumnSet& set, const std::string& name) {
  return set.IndexOf(name);
}

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
    // Same widening as the probe-side kernels and the join's own
    // build: ColumnSet values are already widened int64.
    filter->Insert(static_cast<uint64_t>(build.set.Value(r, kcol)));
  }
  const dpu::CostParams& p = env.dpu->params();
  const double insert_cycles = p.bloom_insert_cycles_per_row / p.simd.bloom *
                               static_cast<double>(rows);
  const double dms_cycles =
      dpu::DmsTileTransferCycles(p, 1, rows, 8, /*read_write=*/false) +
      static_cast<double>(filter->bytes()) / p.dram_bytes_per_cycle;
  env.dpu->ParallelFor([&](dpu::DpCore& core) {
    core.cycles().ChargeCompute(insert_cycles);
    core.cycles().ChargeDms(dms_cycles);
    if (core.id() == 0) {
      core.counters().join_filter_built += 1;
      core.counters().filter_bytes += filter->bytes();
    }
  });
  span.Annotate("filter_bytes", static_cast<int64_t>(filter->bytes()));
  return true;
}

}  // namespace

std::string PhysicalPlan::Describe() const {
  std::ostringstream os;
  for (const auto& step : steps) {
    os << "#" << step->id() << " " << step->Describe() << "\n";
  }
  return os.str();
}

// ---- ScanStep --------------------------------------------------------------

Status ScanStep::Execute(ExecEnv& env) const {
  auto table_it = env.catalog->find(table_);
  if (table_it == env.catalog->end()) {
    return Status::NotFound("table '" + table_ + "' not loaded");
  }
  const storage::Table& table = table_it->second;

  // Resolve base columns to table indices and target DSB scales.
  std::vector<size_t> col_indices;
  std::vector<int> target_scales;
  ColumnBinding base_binding;
  for (size_t c = 0; c < base_columns_.size(); ++c) {
    RAPID_ASSIGN_OR_RETURN(size_t idx,
                           table.schema().IndexOf(base_columns_[c]));
    col_indices.push_back(idx);
    target_scales.push_back(table.stats(idx).dsb_scale);
    base_binding[base_columns_[c]] = c;
  }

  // Assign chunks to cores round-robin across all horizontal
  // partitions.
  std::vector<const storage::Chunk*> all_chunks;
  for (size_t p = 0; p < table.num_partitions(); ++p) {
    const storage::Partition& part = table.partition(p);
    for (size_t c = 0; c < part.num_chunks(); ++c) {
      all_chunks.push_back(&part.chunk(c));
    }
  }

  size_t scan_rows = 0;
  size_t scan_width = 0;
  for (size_t c = 0; c < col_indices.size(); ++c) {
    scan_width +=
        storage::WidthOf(table.schema().field(col_indices[c]).type);
  }
  for (const storage::Chunk* chunk : all_chunks) scan_rows += chunk->num_rows();
  env.counters.scanned_rows += scan_rows;
  env.counters.scanned_bytes += scan_rows * scan_width;

  std::vector<ColumnMeta> metas = ProjectionMetas(projections_);
  // Plain column projections carry the source column's logical type
  // (so dates format and downstream cycle charges use encoded widths)
  // and its dictionary (so results can decode to strings).
  for (size_t c = 0; c < projections_.size(); ++c) {
    const Expr& expr = *projections_[c].second;
    if (expr.kind == Expr::Kind::kColumn) {
      auto idx = table.schema().IndexOf(expr.column);
      if (idx.ok()) {
        metas[c].type = table.schema().field(idx.value()).type;
        metas[c].dict = table.dictionary(idx.value());
      }
    }
  }
  const std::vector<std::string> pass_through = ProjectionInputs(projections_);

  // Join-filter pushdown: when a ref is attached and the runtime gate
  // is on, evaluate the build side's Bloom filter as one more
  // predicate inside the fused tile loop — pruned rows never reach
  // projection, materialization or the downstream partition step.
  primitives::BlockedBloomFilter join_bloom;
  std::vector<Predicate> predicates = predicates_;
  if (BuildJoinFilter(env, join_filter_, &join_bloom)) {
    predicates.push_back(Predicate::Bloom(join_filter_.probe_column,
                                          &join_bloom,
                                          join_filter_.selectivity));
  }

  // Morsel-driven scan: one morsel per chunk, seeded largest-first by
  // row count so one core never drags a tail of fat chunks. Outputs
  // are indexed by chunk id, so the merged result is independent of
  // which core ran which chunk.
  std::vector<ColumnSet> per_morsel(all_chunks.size(), ColumnSet(metas));
  std::vector<double> weights;
  weights.reserve(all_chunks.size());
  for (const storage::Chunk* chunk : all_chunks) {
    weights.push_back(static_cast<double>(chunk->num_rows()));
  }
  RAPID_RETURN_NOT_OK(env.dpu->ParallelForMorsels(
      weights, env.cancel, [&](dpu::DpCore& core, size_t m) -> Status {
        TraceSpan span(TraceMode::kFull, core.id(), "scan.morsel",
                       &dpu::TraceClockNow, &core.cycles());
        span.Annotate("chunk", static_cast<int64_t>(m));
        core.dmem().Reset();

        // Build this morsel's pipeline: filter -> project -> sink.
        FilterOp filter(predicates, pass_through, base_binding, tile_rows_,
                        use_rid_list_);
        ProjectOp project(projections_, filter.OutputBinding(), tile_rows_);
        MaterializeSink sink(&per_morsel[m]);
        filter.set_downstream(&project);
        project.set_downstream(&sink);

        ExecCtx ctx{&core, &env.dpu->dms(), &env.dpu->params(),
                    env.vectorized, env.cancel};
        Status st = filter.Open(ctx);
        if (st.ok()) st = project.Open(ctx);
        if (st.ok()) st = sink.Open(ctx);
        if (st.ok()) {
          const std::vector<const storage::Chunk*> mine{all_chunks[m]};
          st = RelationAccessor::PushChunks(ctx, mine, col_indices,
                                            target_scales, tile_rows_,
                                            &filter);
        }
        core.dmem().Reset();
        span.Annotate("rows_out",
                      static_cast<uint64_t>(per_morsel[m].num_rows()));
        return st;
      }));

  StepOutput& out = env.outputs[static_cast<size_t>(id_)];
  out.partitioned = false;
  out.set = ColumnSet(metas);
  for (size_t m = 0; m < per_morsel.size(); ++m) {
    // Propagate observed types/scales to the merged output.
    for (size_t col = 0; col < metas.size(); ++col) {
      if (per_morsel[m].num_rows() > 0) {
        out.set.meta(col) = per_morsel[m].meta(col);
      }
    }
  }
  for (ColumnSet& cs : per_morsel) out.set.Append(cs);
  return Status::OK();
}

std::string ScanStep::Describe() const {
  std::ostringstream os;
  os << "SCAN " << table_ << " preds=" << predicates_.size()
     << " proj=" << projections_.size() << " tile=" << tile_rows_
     << (use_rid_list_ ? " rid" : " bv");
  if (join_filter_.enabled()) {
    os << " joinfilter=#" << join_filter_.build_step << "("
       << join_filter_.probe_column << ")";
  }
  return os.str();
}

// ---- PipeStep --------------------------------------------------------------

Status PipeStep::Execute(ExecEnv& env) const {
  const StepOutput& in = env.outputs[static_cast<size_t>(input_)];
  if (in.partitioned) {
    return Status::InvalidArgument("pipe step needs an unpartitioned input");
  }
  const ColumnSet& input = in.set;
  env.counters.scanned_rows += input.num_rows();
  env.counters.scanned_bytes +=
      input.num_rows() * input.num_columns() * sizeof(int64_t);

  ColumnBinding binding;
  std::vector<size_t> col_indices;
  for (size_t c = 0; c < input.num_columns(); ++c) {
    binding[input.meta(c).name] = c;
    col_indices.push_back(c);
  }

  const int num_cores = env.dpu->num_cores();
  std::vector<ColumnMeta> metas = ProjectionMetas(projections_);
  for (size_t c = 0; c < projections_.size(); ++c) {
    const Expr& expr = *projections_[c].second;
    if (expr.kind == Expr::Kind::kColumn) {
      auto idx = input.IndexOf(expr.column);
      if (idx.ok()) {
        metas[c].type = input.meta(idx.value()).type;
        metas[c].dsb_scale = input.meta(idx.value()).dsb_scale;
        metas[c].dict = input.meta(idx.value()).dict;
      }
    }
  }
  const std::vector<std::string> pass_through = ProjectionInputs(projections_);
  const size_t n = input.num_rows();
  // Accessor double buffers, filter materializes pass-through columns
  // plus the selection, project its outputs — all widened to 8 bytes.
  const size_t bytes_per_row =
      8 * (2 * col_indices.size() + pass_through.size() +
           projections_.size()) + 8;
  const size_t tile_rows = FitTileRows(
      tile_rows_, bytes_per_row, env.dpu->config().dmem_bytes);

  // Row-range morsels; per-range outputs concatenate in range order,
  // which reproduces the input order no matter how the split landed.
  const std::vector<RowRange> ranges = RowMorsels(n, num_cores);
  std::vector<ColumnSet> per_morsel(ranges.size(), ColumnSet(metas));
  RAPID_RETURN_NOT_OK(env.dpu->ParallelForMorsels(
      RangeWeights(ranges), env.cancel,
      [&](dpu::DpCore& core, size_t m) -> Status {
        TraceSpan span(TraceMode::kFull, core.id(), "pipe.morsel",
                       &dpu::TraceClockNow, &core.cycles());
        span.Annotate("morsel", static_cast<int64_t>(m));
        const RowRange& range = ranges[m];
        core.dmem().Reset();

        FilterOp filter(predicates_, pass_through, binding, tile_rows,
                        /*use_rid_list=*/false);
        ProjectOp project(projections_, filter.OutputBinding(), tile_rows);
        MaterializeSink sink(&per_morsel[m]);
        filter.set_downstream(&project);
        project.set_downstream(&sink);

        ExecCtx ctx{&core, &env.dpu->dms(), &env.dpu->params(),
                    env.vectorized, env.cancel};
        Status st = filter.Open(ctx);
        if (st.ok()) st = project.Open(ctx);
        if (st.ok()) st = sink.Open(ctx);
        if (st.ok() && range.begin < range.end) {
          st = RelationAccessor::PushColumnSet(ctx, input, col_indices,
                                               range.begin, range.end,
                                               tile_rows, &filter);
        }
        core.dmem().Reset();
        return st;
      }));

  StepOutput& out = env.outputs[static_cast<size_t>(id_)];
  out.partitioned = false;
  out.set = ColumnSet(metas);
  for (const ColumnSet& cs : per_morsel) {
    for (size_t col = 0; col < metas.size(); ++col) {
      if (cs.num_rows() > 0) out.set.meta(col) = cs.meta(col);
    }
  }
  for (ColumnSet& cs : per_morsel) out.set.Append(cs);
  return Status::OK();
}

std::string PipeStep::Describe() const {
  std::ostringstream os;
  os << "PIPE #" << input_ << " preds=" << predicates_.size()
     << " proj=" << projections_.size() << " tile=" << tile_rows_;
  return os.str();
}

// ---- PartitionStep ---------------------------------------------------------

Status PartitionStep::Execute(ExecEnv& env) const {
  const StepOutput& in = env.outputs[static_cast<size_t>(input_)];
  if (in.partitioned) {
    return Status::InvalidArgument("input is already partitioned");
  }
  std::vector<size_t> key_cols;
  for (const std::string& name : key_columns_) {
    RAPID_ASSIGN_OR_RETURN(size_t idx, FindColumn(in.set, name));
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
  std::ostringstream os;
  os << "PARTITION #" << input_ << " keys=(";
  for (size_t i = 0; i < key_columns_.size(); ++i) {
    os << (i ? "," : "") << key_columns_[i];
  }
  os << ") scheme=";
  for (size_t r = 0; r < scheme_.rounds.size(); ++r) {
    os << (r ? "x" : "") << scheme_.rounds[r].fanout;
    if (scheme_.rounds[r].hw_fanout > 1) {
      os << "(hw" << scheme_.rounds[r].hw_fanout << ")";
    }
  }
  return os.str();
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
    RAPID_ASSIGN_OR_RETURN(size_t idx, FindColumn(bproto, k));
    spec.build_keys.push_back(idx);
  }
  for (const std::string& k : probe_keys_) {
    RAPID_ASSIGN_OR_RETURN(size_t idx, FindColumn(pproto, k));
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
  if (input_ >= 0) in.push_back(input_);
  for (const PipelineStageSpec& s : stages_) {
    if (s.kind == PipelineStageSpec::Kind::kProbe) {
      in.push_back(s.build_input);
    } else if (s.join_filter.enabled()) {
      in.push_back(s.join_filter.build_step);
    }
  }
  return in;
}

void PipelineStep::RemapInputs(const std::vector<int>& old_to_new) {
  if (input_ >= 0) input_ = old_to_new[static_cast<size_t>(input_)];
  for (PipelineStageSpec& s : stages_) {
    if (s.kind == PipelineStageSpec::Kind::kProbe) {
      s.build_input = old_to_new[static_cast<size_t>(s.build_input)];
    } else if (s.join_filter.enabled()) {
      s.join_filter.build_step =
          old_to_new[static_cast<size_t>(s.join_filter.build_step)];
    }
  }
}

namespace {

// Per-stage execution info resolved once (shared by all cores).
struct ResolvedStage {
  const PipelineStageSpec* spec = nullptr;
  ColumnBinding in_binding;                // stage input: name -> tile pos
  std::vector<std::string> pass_through;   // kFilterProject
  ProbeOpSpec probe;                       // kProbe
};

}  // namespace

Status PipelineStep::Execute(ExecEnv& env) const {
  if (stages_.empty() ||
      stages_.front().kind != PipelineStageSpec::Kind::kFilterProject) {
    return Status::InvalidArgument(
        "pipeline step needs a leading filter/project stage");
  }
  const bool table_source = !table_.empty();

  // ---- Resolve the source: binding + metadata of the incoming columns.
  const storage::Table* table = nullptr;
  const ColumnSet* input_set = nullptr;
  std::vector<const storage::Chunk*> all_chunks;
  std::vector<size_t> col_indices;
  std::vector<int> target_scales;
  ColumnBinding binding;
  std::unordered_map<std::string, ColumnMeta> avail;  // name -> meta
  size_t src_width = 0;

  if (table_source) {
    auto table_it = env.catalog->find(table_);
    if (table_it == env.catalog->end()) {
      return Status::NotFound("table '" + table_ + "' not loaded");
    }
    table = &table_it->second;
    for (size_t c = 0; c < base_columns_.size(); ++c) {
      RAPID_ASSIGN_OR_RETURN(size_t idx,
                             table->schema().IndexOf(base_columns_[c]));
      col_indices.push_back(idx);
      target_scales.push_back(table->stats(idx).dsb_scale);
      binding[base_columns_[c]] = c;
      ColumnMeta m;
      m.name = base_columns_[c];
      m.type = table->schema().field(idx).type;
      m.dsb_scale = table->stats(idx).dsb_scale;
      m.dict = table->dictionary(idx);
      avail[m.name] = m;
      src_width += storage::WidthOf(m.type);
    }
    for (size_t p = 0; p < table->num_partitions(); ++p) {
      const storage::Partition& part = table->partition(p);
      for (size_t c = 0; c < part.num_chunks(); ++c) {
        all_chunks.push_back(&part.chunk(c));
      }
    }
    size_t scan_rows = 0;
    for (const storage::Chunk* chunk : all_chunks) {
      scan_rows += chunk->num_rows();
    }
    env.counters.scanned_rows += scan_rows;
    env.counters.scanned_bytes += scan_rows * src_width;
  } else {
    const StepOutput& in = env.outputs[static_cast<size_t>(input_)];
    if (in.partitioned) {
      return Status::InvalidArgument(
          "pipeline step needs an unpartitioned input");
    }
    input_set = &in.set;
    for (size_t c = 0; c < input_set->num_columns(); ++c) {
      binding[input_set->meta(c).name] = c;
      col_indices.push_back(c);
      avail[input_set->meta(c).name] = input_set->meta(c);
    }
    src_width = 8 * input_set->num_columns();
    env.counters.scanned_rows += input_set->num_rows();
    env.counters.scanned_bytes += input_set->num_rows() * src_width;
  }

  // Join-filter pushdown survives fusion: the absorbed scan's ref
  // rides on stage 0. Build once (shared, read-only) and hand every
  // core's stage-0 FilterOp the augmented predicate list.
  primitives::BlockedBloomFilter join_bloom;
  std::vector<Predicate> stage0_predicates = stages_.front().predicates;
  if (BuildJoinFilter(env, stages_.front().join_filter, &join_bloom)) {
    stage0_predicates.push_back(
        Predicate::Bloom(stages_.front().join_filter.probe_column,
                         &join_bloom,
                         stages_.front().join_filter.selectivity));
  }

  // ---- Walk the stages, resolving bindings and output metadata.
  std::vector<ResolvedStage> resolved;
  std::vector<ColumnMeta> metas;  // metas of the running stage output
  ColumnBinding cur_binding = binding;
  size_t chain_row_bytes = 2 * src_width;  // accessor double buffer
  size_t num_probe_stages = 0;

  for (const PipelineStageSpec& stage : stages_) {
    ResolvedStage rs;
    rs.spec = &stage;
    rs.in_binding = cur_binding;
    if (stage.kind == PipelineStageSpec::Kind::kFilterProject) {
      rs.pass_through = ProjectionInputs(stage.projections);
      metas = ProjectionMetas(stage.projections);
      for (size_t c = 0; c < stage.projections.size(); ++c) {
        const Expr& expr = *stage.projections[c].second;
        if (expr.kind == Expr::Kind::kColumn) {
          auto it = avail.find(expr.column);
          if (it != avail.end()) {
            metas[c].type = it->second.type;
            metas[c].dsb_scale = it->second.dsb_scale;
            metas[c].dict = it->second.dict;
          }
        }
      }
      chain_row_bytes += 8 * (rs.pass_through.size() +
                              stage.projections.size()) + 8;
    } else {
      ++num_probe_stages;
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
        auto it = cur_binding.find(k);
        if (it == cur_binding.end()) {
          return Status::NotFound("probe key '" + k + "' not in pipeline");
        }
        rs.probe.probe_keys.push_back(it->second);
      }
      metas.clear();
      for (const std::string& name : stage.output_columns) {
        auto b = bset.IndexOf(name);
        if (b.ok() && stage.join_type != JoinType::kSemi &&
            stage.join_type != JoinType::kAnti) {
          rs.probe.outputs.push_back(ProbeOpSpec::Output{true, b.value()});
          metas.push_back(bset.meta(b.value()));
          continue;
        }
        auto p = cur_binding.find(name);
        if (p != cur_binding.end()) {
          rs.probe.outputs.push_back(ProbeOpSpec::Output{false, p->second});
          ColumnMeta m;
          m.name = name;
          auto it = avail.find(name);
          if (it != avail.end()) m = it->second;
          metas.push_back(m);
          continue;
        }
        return Status::NotFound("pipeline output column '" + name +
                                "' not found");
      }
      env.counters.join_build_rows += bset.num_rows();
      chain_row_bytes += 8 * stage.output_columns.size() + 8;
    }
    // Stage output becomes the next stage's input.
    cur_binding.clear();
    avail.clear();
    for (size_t c = 0; c < metas.size(); ++c) {
      cur_binding[metas[c].name] = c;
      avail[metas[c].name] = metas[c];
    }
    resolved.push_back(std::move(rs));
  }

  // ---- Tile size: the whole chain's working set shares the 32 KiB
  // scratchpad; probe stages additionally reserve room for their DMEM
  // hash tables (their Open() degrades capacity to what is left).
  size_t budget = env.dpu->config().dmem_bytes;
  if (num_probe_stages > 0) budget /= 2;
  const size_t tile_rows = FitTileRows(tile_rows_, chain_row_bytes, budget);

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
  std::vector<ColumnSet> per_morsel(num_morsels, ColumnSet(metas));

  // Mid-pipeline resume: a failed earlier attempt left completed
  // morsel slots (the per-morsel high-water mark) in the checkpoint.
  // Reclaim them and skip those morsels below — slots of morsels that
  // had not finished stay freshly constructed, discarding any
  // partially written output from the failed attempt. The morsel
  // decomposition is a deterministic function of the input, so slot
  // indices line up across attempts.
  StepProgress* sp = env.progress != nullptr
                         ? &(*env.progress)[static_cast<size_t>(id_)]
                         : nullptr;
  std::vector<uint8_t> morsel_done(num_morsels, 0);
  if (sp != nullptr && sp->has_morsels &&
      sp->per_morsel.size() == num_morsels &&
      sp->morsel_done.size() == num_morsels) {
    size_t resumed = 0;
    for (size_t m = 0; m < num_morsels; ++m) {
      if (sp->morsel_done[m] == 0) continue;
      per_morsel[m] = std::move(sp->per_morsel[m]);
      morsel_done[m] = 1;
      weights[m] = 0;  // nothing left to schedule for this morsel
      ++resumed;
    }
    env.recovery.resumed_morsels += resumed;
  }
  if (sp != nullptr) {
    sp->per_morsel.clear();
    sp->morsel_done.clear();
    sp->has_morsels = false;
  }

  // A core's fused chain (with its resident broadcast hash tables) is
  // built lazily on the first morsel the core pulls and reused for the
  // rest: the build cost is paid once per participating core, exactly
  // as with the static per-core split. Per-morsel accessor buffers
  // stack on top of the chain state and are truncated between morsels.
  struct CoreChain {
    std::vector<std::unique_ptr<PipelineOp>> ops;
    bool opened = false;
    Status open_status;
    size_t dmem_mark = 0;
  };
  std::vector<CoreChain> chains(static_cast<size_t>(num_cores));

  const Status loop_status = env.dpu->ParallelForMorsels(
      weights, env.cancel, [&](dpu::DpCore& core, size_t m) -> Status {
        if (morsel_done[m] != 0) return Status::OK();  // resumed slot
        TraceSpan span(TraceMode::kFull, core.id(), "pipeline.morsel",
                       &dpu::TraceClockNow, &core.cycles());
        span.Annotate("morsel", static_cast<int64_t>(m));
        CoreChain& chain = chains[static_cast<size_t>(core.id())];
        ExecCtx ctx{&core, &env.dpu->dms(), &env.dpu->params(),
                    env.vectorized, env.cancel};
        if (!chain.opened) {
          chain.opened = true;
          core.dmem().Reset();
          for (size_t s = 0; s < resolved.size(); ++s) {
            const ResolvedStage& rs = resolved[s];
            if (rs.spec->kind == PipelineStageSpec::Kind::kFilterProject) {
              auto filter = std::make_unique<FilterOp>(
                  s == 0 ? stage0_predicates : rs.spec->predicates,
                  rs.pass_through, rs.in_binding, tile_rows,
                  s == 0 && use_rid_list_);
              auto project = std::make_unique<ProjectOp>(
                  rs.spec->projections, filter->OutputBinding(), tile_rows);
              chain.ops.push_back(std::move(filter));
              chain.ops.push_back(std::move(project));
            } else {
              ProbeOpSpec pspec = rs.probe;
              pspec.tile_rows = tile_rows;
              chain.ops.push_back(
                  std::make_unique<HashJoinProbeOp>(std::move(pspec)));
            }
          }
          for (size_t i = 0; i + 1 < chain.ops.size(); ++i) {
            chain.ops[i]->set_downstream(chain.ops[i + 1].get());
          }
          Status st = Status::OK();
          for (auto& op : chain.ops) {
            if (st.ok()) st = op->Open(ctx);
          }
          chain.open_status = st;
          chain.dmem_mark = core.dmem().used();
        }
        RAPID_RETURN_NOT_OK(chain.open_status);
        core.dmem().TruncateTo(chain.dmem_mark);

        MaterializeSink sink(&per_morsel[m]);
        chain.ops.back()->set_downstream(&sink);
        Status st = sink.Open(ctx);
        if (st.ok()) {
          if (table_source) {
            const std::vector<const storage::Chunk*> mine{all_chunks[m]};
            st = RelationAccessor::PushChunks(ctx, mine, col_indices,
                                              target_scales, tile_rows,
                                              chain.ops.front().get());
          } else if (ranges[m].begin < ranges[m].end) {
            st = RelationAccessor::PushColumnSet(ctx, *input_set, col_indices,
                                                 ranges[m].begin,
                                                 ranges[m].end, tile_rows,
                                                 chain.ops.front().get());
          }
        }
        // High-water mark: the slot holds this morsel's complete
        // output. Distinct workers write distinct bytes, so the bitmap
        // needs no synchronization beyond the phase barrier.
        if (st.ok()) morsel_done[m] = 1;
        return st;
      });
  if (!loop_status.ok()) {
    // Checkpoint the completed slots so a retry resumes after the
    // high-water mark instead of demoting the whole step. Morsels
    // in flight when the abort landed either finished (their done bit
    // is set, output complete) or never ran — partially written slots
    // are never marked done. Cancellation checkpoints nothing.
    if (sp != nullptr && !loop_status.IsCancellation()) {
      sp->per_morsel = std::move(per_morsel);
      sp->morsel_done = std::move(morsel_done);
      sp->has_morsels = true;
    }
    for (int c = 0; c < num_cores; ++c) env.dpu->core(c).dmem().Reset();
    return loop_status;
  }
  for (int c = 0; c < num_cores; ++c) env.dpu->core(c).dmem().Reset();

  // Probe statistics accumulate per chain; sums are
  // assignment-independent.
  JoinStats probe_stats;
  for (const CoreChain& chain : chains) {
    for (const auto& op : chain.ops) {
      if (const auto* probe =
              dynamic_cast<const HashJoinProbeOp*>(op.get())) {
        probe_stats += probe->stats();
      }
    }
  }
  env.counters.join_probe_rows += probe_stats.probe_rows;

  StepOutput& out = env.outputs[static_cast<size_t>(id_)];
  out.partitioned = false;
  out.set = ColumnSet(metas);
  for (const ColumnSet& cs : per_morsel) {
    for (size_t col = 0; col < metas.size(); ++col) {
      if (cs.num_rows() > 0) out.set.meta(col) = cs.meta(col);
    }
  }
  for (ColumnSet& cs : per_morsel) out.set.Append(cs);
  return Status::OK();
}

std::string PipelineStep::Describe() const {
  std::ostringstream os;
  os << "PIPELINE ";
  if (!table_.empty()) {
    os << "scan " << table_;
  } else {
    os << "#" << input_;
  }
  for (const PipelineStageSpec& s : stages_) {
    if (s.kind == PipelineStageSpec::Kind::kFilterProject) {
      os << " | filter+project preds=" << s.predicates.size()
         << " proj=" << s.projections.size();
      if (s.join_filter.enabled()) {
        os << " joinfilter=#" << s.join_filter.build_step << "("
           << s.join_filter.probe_column << ")";
      }
    } else {
      os << " | probe build=#" << s.build_input << " keys=(";
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
  }
  os << " tile=" << tile_rows_ << (use_rid_list_ ? " rid" : " bv");
  return os.str();
}

// ---- GroupByStep -----------------------------------------------------------

Status GroupByStep::ExecuteLowNdv(ExecEnv& env, const ColumnSet& input,
                                  ColumnSet* out) const {
  ColumnBinding binding;
  std::vector<size_t> col_indices;
  for (size_t c = 0; c < input.num_columns(); ++c) {
    binding[input.meta(c).name] = c;
    col_indices.push_back(c);
  }
  std::vector<ExprPtr> key_exprs;
  for (const auto& [name, expr] : keys_) key_exprs.push_back(expr);

  const int num_cores = env.dpu->num_cores();
  const size_t n = input.num_rows();
  const std::vector<RowRange> ranges = RowMorsels(n, num_cores);
  // One partial aggregate per morsel. Folding them in morsel order
  // reproduces global first-appearance group order: a group's slot is
  // fixed by the earliest range containing it, independent of range
  // boundaries or which core aggregated which range.
  std::vector<std::unique_ptr<GroupByOp>> ops(ranges.size());
  for (auto& op : ops) {
    op = std::make_unique<GroupByOp>(key_exprs, aggs_, binding);
  }
  const size_t bytes_per_row =
      8 * (2 * col_indices.size() + keys_.size() + aggs_.size());
  const size_t tile_rows = FitTileRows(
      tile_rows_, bytes_per_row, env.dpu->config().dmem_bytes);

  // On-the-fly aggregation over each morsel of the input.
  RAPID_RETURN_NOT_OK(env.dpu->ParallelForMorsels(
      RangeWeights(ranges), env.cancel,
      [&](dpu::DpCore& core, size_t m) -> Status {
        TraceSpan span(TraceMode::kFull, core.id(), "groupby.morsel",
                       &dpu::TraceClockNow, &core.cycles());
        span.Annotate("morsel", static_cast<int64_t>(m));
        const RowRange& range = ranges[m];
        core.dmem().Reset();
        ExecCtx ctx{&core, &env.dpu->dms(), &env.dpu->params(),
                    env.vectorized, env.cancel};
        Status st = ops[m]->Open(ctx);
        if (st.ok() && range.begin < range.end) {
          st = RelationAccessor::PushColumnSet(ctx, input, col_indices,
                                               range.begin, range.end,
                                               tile_rows, ops[m].get());
        }
        core.dmem().Reset();
        return st;
      }));

  // Merge operator: fold per-morsel tables (aggregated data, low
  // overhead) in morsel order, charged to core 0.
  const std::vector<AggFunc> funcs = ops[0]->funcs();
  for (size_t m = 1; m < ops.size(); ++m) {
    ops[0]->table().MergeFrom(ops[m]->table(), funcs);
    env.dpu->core(0).cycles().ChargeCompute(
        env.dpu->params().groupby_cycles_per_row *
        static_cast<double>(ops[m]->table().num_groups()));
  }
  return ops[0]->EmitInto(out);
}

Status GroupByStep::ExecuteHighNdv(ExecEnv& env, const PartitionedData& input,
                                   ColumnSet* out) const {
  if (input.partitions.empty()) {
    return Status::InvalidArgument("group-by input has no partitions");
  }
  const ColumnSet& proto = input.partitions[0];
  ColumnBinding binding;
  std::vector<size_t> col_indices;
  for (size_t c = 0; c < proto.num_columns(); ++c) {
    binding[proto.meta(c).name] = c;
    col_indices.push_back(c);
  }
  std::vector<ExprPtr> key_exprs;
  for (const auto& [name, expr] : keys_) key_exprs.push_back(expr);

  // Distinct groups live in disjoint partitions (partitioned on the
  // group keys), so per-partition tables concatenate with no merge.
  const size_t num_parts = input.partitions.size();
  std::vector<ColumnSet> partials(num_parts, ColumnSet(out->metas()));
  const size_t bytes_per_row =
      8 * (2 * col_indices.size() + keys_.size() + aggs_.size());
  const size_t tile_rows = FitTileRows(
      tile_rows_, bytes_per_row, env.dpu->config().dmem_bytes);
  // Key column indices, for runtime re-partitioning of oversized
  // partitions (keys are plain columns on the high-NDV path).
  std::vector<size_t> key_cols;
  bool keys_plain = !keys_.empty();
  for (const auto& [name, expr] : keys_) {
    if (expr->kind != Expr::Kind::kColumn) {
      keys_plain = false;
      break;
    }
    auto idx = proto.IndexOf(expr->column);
    if (!idx.ok()) {
      keys_plain = false;
      break;
    }
    key_cols.push_back(idx.value());
  }

  std::atomic<uint64_t> repartitions{0};
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
        TraceSpan span(TraceMode::kFull, core.id(), "groupby.partition",
                       &dpu::TraceClockNow, &core.cycles());
        span.Annotate("partition", static_cast<int64_t>(p));
        // Aggregates one ColumnSet into `agg_out` on this core.
        auto aggregate = [&](const ColumnSet& part,
                             ColumnSet* agg_out) -> Status {
          core.dmem().Reset();
          GroupByOp op(key_exprs, aggs_, binding);
          ExecCtx ctx{&core, &env.dpu->dms(), &env.dpu->params(),
                      env.vectorized, env.cancel};
          RAPID_RETURN_NOT_OK(op.Open(ctx));
          RAPID_RETURN_NOT_OK(RelationAccessor::PushColumnSet(
              ctx, part, col_indices, 0, part.num_rows(), tile_rows, &op));
          RAPID_RETURN_NOT_OK(op.EmitInto(agg_out));
          core.dmem().Reset();
          return Status::OK();
        };

        const ColumnSet& part = input.partitions[p];
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
              core, env.dpu->params(), part, key_cols,
              static_cast<int>(extra), input.bits_used, tile_rows);
          if (sub.ok()) {
            repartitions.fetch_add(1);
            for (const ColumnSet& sub_part : sub.value()) {
              RAPID_RETURN_NOT_OK(aggregate(sub_part, &partials[p]));
            }
            return Status::OK();
          }
        }
        return aggregate(part, &partials[p]);
      }));
  env.counters.groupby_repartitions += repartitions.load();
  for (ColumnSet& cs : partials) {
    for (size_t col = 0; col < out->num_columns(); ++col) {
      if (cs.num_rows() > 0) out->meta(col) = cs.meta(col);
    }
    out->Append(cs);
  }
  return Status::OK();
}

Status GroupByStep::Execute(ExecEnv& env) const {
  const StepOutput& in = env.outputs[static_cast<size_t>(input_)];

  std::vector<ColumnMeta> metas;
  const ColumnSet& meta_source =
      in.partitioned ? (in.parts.partitions.empty()
                            ? in.set
                            : in.parts.partitions[0])
                     : in.set;
  for (const auto& [name, expr] : keys_) {
    ColumnMeta m;
    m.name = name;
    if (expr->kind == Expr::Kind::kColumn) {
      auto idx = meta_source.IndexOf(expr->column);
      if (idx.ok()) {
        m.type = meta_source.meta(idx.value()).type;
        m.dict = meta_source.meta(idx.value()).dict;
      }
    }
    metas.push_back(m);
  }
  for (const AggSpec& a : aggs_) {
    ColumnMeta m;
    m.name = a.name;
    metas.push_back(m);
  }
  ColumnSet result(metas);

  if (in.partitioned) {
    for (const ColumnSet& p : in.parts.partitions) {
      env.counters.agg_rows += p.num_rows();
    }
  } else {
    env.counters.agg_rows += in.set.num_rows();
  }

  if (low_ndv_) {
    if (in.partitioned) {
      return Status::InvalidArgument("low-NDV group-by takes a flat input");
    }
    RAPID_RETURN_NOT_OK(ExecuteLowNdv(env, in.set, &result));
  } else {
    if (!in.partitioned) {
      return Status::InvalidArgument(
          "high-NDV group-by needs a partitioned input");
    }
    RAPID_RETURN_NOT_OK(ExecuteHighNdv(env, in.parts, &result));
  }

  StepOutput& out = env.outputs[static_cast<size_t>(id_)];
  out.partitioned = false;
  out.set = std::move(result);
  return Status::OK();
}

std::string GroupByStep::Describe() const {
  std::ostringstream os;
  os << "GROUPBY #" << input_ << (low_ndv_ ? " low-ndv" : " high-ndv")
     << " keys=" << keys_.size() << " aggs=" << aggs_.size();
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
