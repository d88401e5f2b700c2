#include "core/qcomp/planner.h"

#include <algorithm>
#include <cmath>

#include "common/config.h"
#include "common/trace.h"
#include "core/qcomp/cost_model.h"
#include "core/qcomp/partition_scheme.h"
#include "core/qcomp/pipeline_fusion.h"
#include "core/qcomp/task_formation.h"
#include "primitives/bloom.h"

namespace rapid::core {

namespace {

// Join kernel tile size (the Figures 11/12 parameter).
constexpr size_t kJoinTileRows = 256;

int AddStep(PhysicalPlan* plan, std::unique_ptr<PlanStep> step) {
  const int id = step->id();
  plan->steps.push_back(std::move(step));
  return id;
}

int NextId(const PhysicalPlan& plan) {
  return static_cast<int>(plan.steps.size());
}

// A lone filter/project over an intermediate: a one-stage pipeline at
// the executor's default tile size (its input width is only known at
// execution time, where the tile shrinks to fit DMEM).
int AddPipe(PhysicalPlan* plan, int input, std::vector<Predicate> predicates,
            std::vector<std::pair<std::string, ExprPtr>> projections) {
  PipelineSpec spec;
  spec.input = input;
  PipelineStageSpec& stage =
      spec.branches.emplace_back().stages.emplace_back();
  stage.predicates = std::move(predicates);
  stage.projections = std::move(projections);
  return AddStep(plan,
                 std::make_unique<PipelineStep>(NextId(*plan), std::move(spec)));
}

// Largest chunk's share of a base table's rows (0 when the table is
// unknown or derived): seeds the balanced-makespan cost of partition
// rounds, where the biggest chunk is the biggest morsel.
double LargestChunkFraction(const Catalog& catalog,
                            const std::string& base_table) {
  if (base_table.empty()) return 0.0;
  const auto it = catalog.find(base_table);
  if (it == catalog.end()) return 0.0;
  const storage::Table& t = it->second;
  size_t largest = 0;
  size_t total = 0;
  for (size_t p = 0; p < t.num_partitions(); ++p) {
    const storage::Partition& part = t.partition(p);
    for (size_t c = 0; c < part.num_chunks(); ++c) {
      const size_t rows = part.chunk(c).num_rows();
      largest = std::max(largest, rows);
      total += rows;
    }
  }
  return total == 0 ? 0.0
                    : static_cast<double>(largest) / static_cast<double>(total);
}

// Whether two one-stage table-source scans read and return the same
// rows the same way: table, base columns, tile, rid flag, predicates
// (in order) and projections.
bool SameScan(const PipelineSpec& a, const PipelineSpec& b) {
  const PipelineBranch& x = a.branches.front();
  const PipelineBranch& y = b.branches.front();
  const PipelineStageSpec& s = x.stages.front();
  const PipelineStageSpec& t = y.stages.front();
  if (a.table != b.table || a.base_columns != b.base_columns ||
      a.tile_rows != b.tile_rows || x.use_rid_list != y.use_rid_list ||
      s.predicates.size() != t.predicates.size() ||
      s.projections.size() != t.projections.size()) {
    return false;
  }
  for (size_t p = 0; p < s.predicates.size(); ++p) {
    if (!SamePredicate(s.predicates[p], t.predicates[p])) return false;
  }
  for (size_t p = 0; p < s.projections.size(); ++p) {
    if (s.projections[p].first != t.projections[p].first ||
        !SameExpr(s.projections[p].second, t.projections[p].second)) {
      return false;
    }
  }
  return true;
}

}  // namespace

double EstimateSelectivity(const storage::ColumnStats& stats,
                           const Predicate& pred) {
  const double range =
      static_cast<double>(stats.max) - static_cast<double>(stats.min) + 1.0;
  const double ndv = std::max<double>(1.0, static_cast<double>(stats.ndv));
  switch (pred.kind) {
    case Predicate::Kind::kCmpConst: {
      const double v = static_cast<double>(pred.value);
      const double lo = static_cast<double>(stats.min);
      const double hi = static_cast<double>(stats.max);
      switch (pred.op) {
        case primitives::CmpOp::kEq:
          return std::min(1.0, 1.0 / ndv);
        case primitives::CmpOp::kNe:
          return 1.0 - std::min(1.0, 1.0 / ndv);
        case primitives::CmpOp::kLt:
        case primitives::CmpOp::kLe:
          if (v <= lo) return 0.0;
          if (v >= hi) return 1.0;
          return (v - lo) / range;
        case primitives::CmpOp::kGt:
        case primitives::CmpOp::kGe:
          if (v >= hi) return 0.0;
          if (v <= lo) return 1.0;
          return (hi - v) / range;
      }
      return 0.5;
    }
    case Predicate::Kind::kBetween: {
      const double lo = std::max(static_cast<double>(pred.value),
                                 static_cast<double>(stats.min));
      const double hi = std::min(static_cast<double>(pred.value2),
                                 static_cast<double>(stats.max));
      if (hi < lo) return 0.0;
      return std::min(1.0, (hi - lo + 1.0) / range);
    }
    case Predicate::Kind::kInSet:
      return std::min(1.0,
                      static_cast<double>(pred.in_set.CountOnes()) / ndv);
    case Predicate::Kind::kCmpCol:
      return pred.op == primitives::CmpOp::kEq ? 1.0 / ndv : 0.3;
    case Predicate::Kind::kBloom:
      return pred.selectivity;
  }
  return 0.5;
}

Result<Planner::Lowered> Planner::LowerScan(
    const LogicalNode& node, const Catalog& catalog, PhysicalPlan* plan,
    std::vector<std::pair<std::string, ExprPtr>> projections) {
  auto it = catalog.find(node.table);
  if (it == catalog.end()) {
    return Status::NotFound("table '" + node.table + "' not in catalog");
  }
  const storage::Table& table = it->second;

  // Code-space rewrite: a dictionary membership set whose qualifying
  // codes form one contiguous range becomes a native range (or
  // equality) predicate on the code column. The rewritten predicate is
  // exactly equivalent to the bitmap probe but runs as a width-typed
  // comparison kernel — and, under encoded scans, short-circuits at
  // run level — so string columns never decode on the scan path.
  std::vector<Predicate> preds = node.predicates;
  for (Predicate& p : preds) {
    if (p.kind != Predicate::Kind::kInSet) continue;
    auto col = table.schema().IndexOf(p.column);
    if (!col.ok() || table.schema().field(col.value()).type !=
                         storage::DataType::kDictCode) {
      continue;
    }
    int64_t lo = -1;
    int64_t hi = -1;
    bool contiguous = true;
    for (size_t i = 0; i < p.in_set.size() && contiguous; ++i) {
      if (!p.in_set.Test(i)) continue;
      if (lo < 0) {
        lo = static_cast<int64_t>(i);
        hi = lo;
      } else if (static_cast<int64_t>(i) == hi + 1) {
        hi = static_cast<int64_t>(i);
      } else {
        contiguous = false;
      }
    }
    if (!contiguous || lo < 0) continue;
    p = lo == hi ? Predicate::CmpConst(p.column, primitives::CmpOp::kEq, lo,
                                       p.selectivity)
                 : Predicate::Between(p.column, lo, hi, p.selectivity);
  }

  // Estimate and order predicates most-selective-first.
  double combined = 1.0;
  for (Predicate& p : preds) {
    auto col = table.schema().IndexOf(p.column);
    if (col.ok()) {
      p.selectivity = EstimateSelectivity(table.stats(col.value()), p);
    }
    combined *= p.selectivity;
  }
  std::stable_sort(preds.begin(), preds.end(),
                   [](const Predicate& a, const Predicate& b) {
                     return a.selectivity < b.selectivity;
                   });
  const bool use_rid = combined < 1.0 / 32.0;

  // Base columns: everything the predicates and projections touch.
  std::vector<std::string> base_cols;
  auto add_col = [&base_cols](const std::string& name) {
    if (std::find(base_cols.begin(), base_cols.end(), name) ==
        base_cols.end()) {
      base_cols.push_back(name);
    }
  };
  for (const Predicate& p : preds) {
    add_col(p.column);
    if (p.kind == Predicate::Kind::kCmpCol) add_col(p.column2);
  }
  for (const auto& [name, expr] : projections) {
    std::vector<std::string> refs;
    expr->CollectColumns(&refs);
    for (const auto& r : refs) add_col(r);
  }
  if (base_cols.empty()) {
    // Degenerate COUNT(*)-style scan still needs one column to drive.
    add_col(table.schema().field(0).name);
  }

  // Task formation: accessor + filter + project share DMEM; pick the
  // largest tile the 32 KiB budget allows. Under encoded scans,
  // compressed base columns add their double-buffered run staging
  // (values + lengths, ~2 x width / ratio bytes per row) to the
  // accessor's DMEM footprint and an RLE-expansion term to its
  // per-row compute.
  const bool encoded = GetConfig().encoded_scan ==
                       EncodedScanMode::kAuto;
  size_t in_width = 0;
  size_t staging_width = 0;
  double decode_rate = 0.0;
  for (const std::string& c : base_cols) {
    RAPID_ASSIGN_OR_RETURN(size_t idx, table.schema().IndexOf(c));
    const size_t w = storage::WidthOf(table.schema().field(idx).type);
    in_width += w;
    const double ratio = table.stats(idx).compression_ratio;
    if (encoded && ratio > 1.05) {
      staging_width += static_cast<size_t>(
          std::ceil(2.0 * static_cast<double>(w) / ratio));
      decode_rate += params_.rle_decode_cycles_per_row;
    }
  }
  std::vector<OpProfile> profiles;
  profiles.push_back(OpProfile{"accessor", 64, 2 * in_width + staging_width,
                               1.0, in_width, decode_rate});
  profiles.push_back(OpProfile{
      "filter", 64, 8 * base_cols.size() + 8 /*selection*/, combined,
      8 * base_cols.size(),
      params_.filter_cycles_per_row *
          static_cast<double>(std::max<size_t>(1, preds.size()))});
  profiles.push_back(OpProfile{"project", 64, 8 * projections.size(), 1.0,
                               8 * projections.size(),
                               params_.arith_cycles_per_row});
  RAPID_ASSIGN_OR_RETURN(size_t tile_rows,
                         MaxTileRows(profiles, 0, profiles.size() - 1,
                                     config_.dmem_bytes));

  std::vector<std::string> out_names;
  for (const auto& [name, expr] : projections) out_names.push_back(name);
  // A one-stage pipeline: relation accessor -> filter -> project.
  PipelineSpec spec;
  spec.table = node.table;
  spec.base_columns = std::move(base_cols);
  spec.tile_rows = tile_rows;
  PipelineBranch& branch = spec.branches.emplace_back();
  branch.use_rid_list = use_rid;
  PipelineStageSpec& stage = branch.stages.emplace_back();
  stage.predicates = std::move(preds);
  stage.projections = std::move(projections);

  // Scan memo: a scan identical to one this plan already lowered reuses
  // its step, so one pass over the table serves both consumers. The
  // memo compares lowered specs, so Filter(Scan) meets a scan carrying
  // the same predicates. A scan with a pushed join filter is never
  // reused: the filter prunes rows only its own join may drop.
  for (MemoScan& memo : scans_) {
    const PipelineSpec& prior =
        static_cast<const PipelineStep&>(
            *plan->steps[static_cast<size_t>(memo.lowered.step)])
            .spec();
    if (!prior.branches.front().stages.front().join_filter.enabled() &&
        SameScan(prior, spec)) {
      memo.shared = true;
      return memo.lowered;
    }
  }
  Lowered out;
  out.step = AddStep(
      plan, std::make_unique<PipelineStep>(NextId(*plan), std::move(spec)));
  out.est_rows = static_cast<double>(table.num_rows()) * combined;
  out.base_table = node.table;
  out.columns = std::move(out_names);
  scans_.push_back(MemoScan{out, false});
  return out;
}

int Planner::AddPartition(PhysicalPlan* plan, int input,
                          const std::vector<std::string>& keys,
                          const PartitionScheme& scheme, int fanout) {
  for (const PlannedPartition& p : partitions_) {
    if (p.input == input && p.keys == keys &&
        p.scheme.rounds == scheme.rounds) {
      return p.step;
    }
  }
  const int id = AddStep(plan, std::make_unique<PartitionStep>(
                                   NextId(*plan), input, keys, scheme, 1024));
  partitions_.push_back(PlannedPartition{id, input, keys, scheme, fanout});
  return id;
}

Result<Planner::Lowered> Planner::Lower(const LogicalNode& node,
                                        const Catalog& catalog,
                                        PhysicalPlan* plan,
                                        const std::string& path) {
  RAPID_ASSIGN_OR_RETURN(Lowered out, LowerImpl(node, catalog, plan, path));
  // Record which step materializes this logical subtree's full result
  // (fused cases recurse at the same path; the inner recursion already
  // recorded the same step, so skip duplicates).
  bool recorded = false;
  for (const auto& [existing, step] : plan->subtree_steps) {
    if (existing == path) {
      recorded = true;
      break;
    }
  }
  if (!recorded && out.step >= 0) {
    plan->subtree_steps.emplace_back(path, out.step);
  }
  return out;
}

Result<Planner::Lowered> Planner::LowerImpl(const LogicalNode& node,
                                            const Catalog& catalog,
                                            PhysicalPlan* plan,
                                            const std::string& path) {
  switch (node.kind) {
    case LogicalNode::Kind::kScan: {
      // Identity projections for the scanned columns.
      std::vector<std::pair<std::string, ExprPtr>> projections;
      for (const std::string& c : node.columns) {
        projections.emplace_back(c, Expr::Col(c));
      }
      return LowerScan(node, catalog, plan, std::move(projections));
    }

    case LogicalNode::Kind::kProject: {
      // Fuse Project(Scan) into a single task (task formation prefers
      // maximal pipelines; the projection rides the scan's pipeline).
      if (node.input->kind == LogicalNode::Kind::kScan) {
        return LowerScan(*node.input, catalog, plan, node.projections);
      }
      RAPID_ASSIGN_OR_RETURN(Lowered in, Lower(*node.input, catalog, plan, path + "0"));
      Lowered out;
      out.step = AddPipe(plan, in.step, {}, node.projections);
      out.est_rows = in.est_rows;
      for (const auto& [name, expr] : node.projections) {
        out.columns.push_back(name);
      }
      return out;
    }

    case LogicalNode::Kind::kFilter: {
      // The host's logical optimizer pushes filters down; a standalone
      // filter over a scan still fuses into the scan task.
      if (node.input->kind == LogicalNode::Kind::kScan) {
        LogicalNode fused = *node.input;
        fused.predicates.insert(fused.predicates.end(),
                                node.predicates.begin(),
                                node.predicates.end());
        if (!node.columns.empty()) fused.columns = node.columns;
        return Lower(fused, catalog, plan, path);
      }
      RAPID_ASSIGN_OR_RETURN(Lowered in, Lower(*node.input, catalog, plan, path + "0"));
      const std::vector<std::string>& keep =
          node.columns.empty() ? in.columns : node.columns;
      std::vector<std::pair<std::string, ExprPtr>> identity;
      for (const std::string& c : keep) {
        identity.emplace_back(c, Expr::Col(c));
      }
      double sel = 1.0;
      for (const Predicate& p : node.predicates) sel *= p.selectivity;
      Lowered out;
      out.step = AddPipe(plan, in.step, node.predicates, std::move(identity));
      out.est_rows = in.est_rows * sel;
      out.columns = keep;
      return out;
    }

    case LogicalNode::Kind::kJoin: {
      RAPID_ASSIGN_OR_RETURN(Lowered left, Lower(*node.input, catalog, plan, path + "0"));
      RAPID_ASSIGN_OR_RETURN(Lowered right, Lower(*node.right, catalog, plan, path + "1"));

      // Build on the smaller estimated side. For semi/anti/outer
      // joins the right side is semantically the probe (preserved)
      // side, so only inner joins may swap.
      bool build_is_left = left.est_rows <= right.est_rows;
      if (node.join_type != JoinType::kInner) build_is_left = true;
      const Lowered& build = build_is_left ? left : right;
      const Lowered& probe = build_is_left ? right : left;
      const std::vector<std::string>& build_keys =
          build_is_left ? node.left_keys : node.right_keys;
      const std::vector<std::string>& probe_keys =
          build_is_left ? node.right_keys : node.left_keys;

      // Partition-scheme optimization over the build side.
      PartitionPlanInput pin;
      pin.total_rows = static_cast<size_t>(std::max(1.0, build.est_rows));
      pin.row_bytes = 8 * std::max<size_t>(1, node.output_columns.size());
      pin.num_columns = std::max<size_t>(1, node.output_columns.size());
      pin.dmem_budget_bytes = config_.dmem_bytes / 2;
      // Fan-out must be a real split (>= 2) even on a one-core DPU.
      pin.min_partitions = std::max(2, config_.num_cores);
      pin.num_cores = config_.num_cores;
      pin.largest_morsel_fraction =
          LargestChunkFraction(catalog, build.base_table);
      int fanout;
      PartitionScheme scheme;
      if (options_.force_join_fanout > 0) {
        fanout = options_.force_join_fanout;
        PartitionRound round;
        round.fanout = fanout;
        round.hw_fanout = std::min(32, fanout);
        scheme.rounds.push_back(round);
      } else {
        RAPID_ASSIGN_OR_RETURN(SchemeChoice choice,
                               OptimizePartitionScheme(pin, params_));
        scheme = choice.scheme;
        fanout = choice.target_fanout;
      }
      {
        TraceSpan span(TraceMode::kSummary, TraceCollector::kTrackPlanner,
                       "planner.partition_scheme");
        span.Annotate("build_rows", static_cast<int64_t>(pin.total_rows));
        span.Annotate("fanout", static_cast<int64_t>(fanout));
        span.Annotate("rounds", static_cast<int64_t>(scheme.rounds.size()));
        span.Annotate("forced",
                      options_.force_join_fanout > 0 ? int64_t{1}
                                                     : int64_t{0});
      }

      // Partition reuse (§5.3 plans schemes across operators): when a
      // side already has a partition on exactly this join's keys, with
      // at least the fan-out the join needs, the join reads it and
      // partitions the other side with the same scheme, provided the
      // pass it drops saves more cycles than the other side's wider or
      // extra rounds add. A forced fan-out keeps its own scheme.
      if (options_.force_join_fanout == 0) {
        const PlannedPartition* reuse = nullptr;
        for (const bool probe_side : {true, false}) {
          const Lowered& side = probe_side ? probe : build;
          const Lowered& other = probe_side ? build : probe;
          const std::vector<std::string>& keys =
              probe_side ? probe_keys : build_keys;
          for (const PlannedPartition& existing : partitions_) {
            if (reuse != nullptr || existing.input != side.step ||
                existing.keys != keys) {
              continue;
            }
            PartitionPlanInput side_in = pin;
            side_in.total_rows =
                static_cast<size_t>(std::max(1.0, side.est_rows));
            side_in.largest_morsel_fraction =
                LargestChunkFraction(catalog, side.base_table);
            PartitionPlanInput other_in = pin;
            other_in.total_rows =
                static_cast<size_t>(std::max(1.0, other.est_rows));
            other_in.largest_morsel_fraction =
                LargestChunkFraction(catalog, other.base_table);
            const double saved = SchemeCycles(scheme, side_in, params_);
            const double added =
                SchemeCycles(existing.scheme, other_in, params_) -
                SchemeCycles(scheme, other_in, params_);
            if (existing.fanout >= fanout && saved > added) reuse = &existing;
            TraceSpan span(TraceMode::kSummary, TraceCollector::kTrackPlanner,
                           "planner.partition_reuse");
            span.Annotate("side", probe_side ? "probe" : "build");
            span.Annotate("existing_fanout",
                          static_cast<int64_t>(existing.fanout));
            span.Annotate("required_fanout", static_cast<int64_t>(fanout));
            span.Annotate("saved_cycles", saved);
            span.Annotate("added_cycles", added);
            span.Annotate("reuse",
                          reuse != nullptr ? int64_t{1} : int64_t{0});
          }
        }
        if (reuse != nullptr) {
          scheme = reuse->scheme;
          fanout = reuse->fanout;
        }
      }
      const int build_part_id =
          AddPartition(plan, build.step, build_keys, scheme, fanout);
      const int probe_part_id =
          AddPartition(plan, probe.step, probe_keys, scheme, fanout);
      // Partition addresses: the rounds over subtree X checkpoint
      // under "X#p" so a retry or demotion replan can restore them
      // (fusion drops the entries when it absorbs the steps). A reused
      // partition answers to the address of every subtree it serves.
      plan->subtree_steps.emplace_back(
          path + (build_is_left ? "0" : "1") + "#p", build_part_id);
      plan->subtree_steps.emplace_back(
          path + (build_is_left ? "1" : "0") + "#p", probe_part_id);

      JoinSpec spec;
      spec.tile_rows = kJoinTileRows;
      spec.est_rows_per_partition = std::max<size_t>(
          1, static_cast<size_t>(build.est_rows / fanout));
      spec.bucket_reduction = 4.0;
      if (options_.join_dmem_capacity_rows > 0) {
        spec.dmem_capacity_rows = options_.join_dmem_capacity_rows;
      } else {
        // Keys (8 B) + compact bucket/link arrays (~2 x 2 B at DMEM
        // scale) per build row within half the scratchpad.
        spec.dmem_capacity_rows = std::max<size_t>(
            1024, 2 * spec.est_rows_per_partition);
      }
      spec.large_skew_factor = options_.large_skew_factor;
      spec.heavy_hitter_threshold = options_.heavy_hitter_threshold;
      // Cardinality estimates for the pipeline-fusion pass.
      spec.est_build_rows =
          static_cast<size_t>(std::max(1.0, build.est_rows));
      spec.est_probe_rows =
          static_cast<size_t>(std::max(1.0, probe.est_rows));

      // Sideways information passing: when the probe side terminates
      // in a base-table scan, push a Bloom filter over the build keys
      // into that scan so pruned rows never reach the probe-side
      // partition step. Attached whenever structurally eligible and
      // the cost gate passes — INDEPENDENT of the RAPID_JOIN_FILTER
      // runtime gate, so the plan shape is identical off/on.
      //
      // Eligible join types: inner and semi emit only probe rows with
      // a build match, which a (false-negative-free) Bloom prune never
      // drops. Anti and left-outer joins emit probe rows *without* a
      // match — anti emits them alone, left-outer null-extends them —
      // so a probe-side prune would wrongly drop their output; those
      // types rely on the join kernel's internal filter, which keeps
      // the row and only skips the hash probe. The build
      // step must also precede the scan in execution order, or its
      // output would not exist when the scan builds the filter.
      bool scan_ref_attached = false;
      if (build_keys.size() == 1 &&
          (node.join_type == JoinType::kInner ||
           node.join_type == JoinType::kSemi) &&
          build.step < probe.step) {
        auto* scan = dynamic_cast<PipelineStep*>(
            plan->steps[static_cast<size_t>(probe.step)].get());
        // A scan the memo shares never takes a join filter: it would
        // prune rows its other consumer needs.
        bool memo_shared = false;
        for (const MemoScan& memo : scans_) {
          memo_shared = memo_shared ||
                        (memo.shared && memo.lowered.step == probe.step);
        }
        if (scan != nullptr && !scan->spec().table.empty() && !memo_shared &&
            !scan->spec().branches.front().stages.front().join_filter
                 .enabled()) {
          // The predicate evaluates before projection, so resolve the
          // probe key back to the scan's base column.
          std::string probe_col;
          for (const auto& [name, expr] :
               scan->spec().branches.front().stages.front().projections) {
            if (name == probe_keys[0] && expr->kind == Expr::Kind::kColumn) {
              probe_col = expr->column;
              break;
            }
          }
          bool probe_bound = false;
          for (const std::string& c : scan->spec().base_columns) {
            probe_bound = probe_bound || c == probe_col;
          }
          bool build_key_out = false;
          for (const std::string& c : build.columns) {
            build_key_out = build_key_out || c == build_keys[0];
          }
          if (!probe_col.empty() && probe_bound && build_key_out) {
            // Estimated pass rate: the fraction of the build base
            // table surviving its filters (FK probe rows referencing
            // pruned build rows drop with it), plus the sized
            // filter's false-positive rate.
            double sel = 1.0;
            if (!build.base_table.empty()) {
              auto bt = catalog.find(build.base_table);
              if (bt != catalog.end() && bt->second.num_rows() > 0) {
                sel = std::min(1.0, build.est_rows /
                                        static_cast<double>(
                                            bt->second.num_rows()));
              }
            }
            const auto brows =
                static_cast<size_t>(std::max(1.0, build.est_rows));
            const uint32_t blocks =
                primitives::BlockedBloomFilter::BlocksForNdv(
                    brows, config_.dmem_bytes / 4);
            const double fpr =
                primitives::BlockedBloomFilter::EstimatedFpr(brows, blocks);
            CostEstimator est(config_, params_);
            est.set_largest_morsel_fraction(
                LargestChunkFraction(catalog, probe.base_table));
            const double saved = est.JoinFilterSeconds(
                brows, static_cast<size_t>(std::max(1.0, probe.est_rows)),
                8 * std::max<size_t>(1, node.output_columns.size()),
                scheme.rounds.size(), sel, fpr);
            if (blocks > 0 && saved > 0) {
              JoinFilterRef ref;
              ref.build_step = build.step;
              ref.build_key = build_keys[0];
              ref.probe_column = probe_col;
              ref.est_build_ndv = build.est_rows;
              ref.selectivity = std::min(1.0, sel + fpr);
              scan->set_join_filter(std::move(ref));
              scan_ref_attached = true;
            }
            // The cost-gate numbers that made (or rejected) the
            // pushdown, on the planner track.
            TraceSpan span(TraceMode::kSummary,
                           TraceCollector::kTrackPlanner,
                           "planner.join_filter_gate");
            span.Annotate("build_rows", static_cast<int64_t>(brows));
            span.Annotate("blocks", static_cast<int64_t>(blocks));
            span.Annotate("selectivity", sel);
            span.Annotate("fpr", fpr);
            span.Annotate("saved_seconds", saved);
            span.Annotate("attached",
                          scan_ref_attached ? int64_t{1} : int64_t{0});
          }
        }
      }

      // No scan to push into — a non-scan probe subtree, anti/
      // left-outer semantics that forbid dropping probe rows upstream,
      // or a cost-negative pushdown: let the join kernel build the
      // same filter per partition pair ahead of its probe loop. The
      // kernel runs after partitioning, so its gate nets the probe
      // savings alone (rounds = 0) against the filter cost.
      if (!scan_ref_attached && build_keys.size() == 1) {
        double sel = 1.0;
        if (!build.base_table.empty()) {
          auto bt = catalog.find(build.base_table);
          if (bt != catalog.end() && bt->second.num_rows() > 0) {
            sel = std::min(1.0, build.est_rows /
                                    static_cast<double>(
                                        bt->second.num_rows()));
          }
        }
        const auto brows = static_cast<size_t>(std::max(1.0, build.est_rows));
        const size_t blocks = primitives::BlockedBloomFilter::BlocksForNdv(
            brows, config_.dmem_bytes / 4);
        const double fpr =
            primitives::BlockedBloomFilter::EstimatedFpr(brows, blocks);
        CostEstimator est(config_, params_);
        const double saved = est.JoinFilterSeconds(
            brows, static_cast<size_t>(std::max(1.0, probe.est_rows)),
            8 * std::max<size_t>(1, node.output_columns.size()),
            /*rounds=*/0, sel, fpr);
        if (blocks > 0 && saved > 0) spec.build_join_filter = true;
      }

      const int id = NextId(*plan);
      AddStep(plan, std::make_unique<JoinStep>(
                        id, build_part_id, probe_part_id, build_keys,
                        probe_keys, node.output_columns, node.join_type,
                        spec));
      Lowered out;
      out.step = id;
      // FK-join heuristic: output cardinality tracks the probe side.
      out.est_rows = probe.est_rows;
      out.columns = node.output_columns;
      return out;
    }

    case LogicalNode::Kind::kGroupBy: {
      RAPID_ASSIGN_OR_RETURN(Lowered in, Lower(*node.input, catalog, plan, path + "0"));

      // Group count estimate: one group without keys, NDV statistics
      // when keys are plain base columns, a fraction of the input
      // otherwise.
      double est_groups = node.group_keys.empty()
                              ? 1.0
                              : std::max(1.0, in.est_rows / 10.0);
      bool keys_are_plain = true;
      for (const auto& [name, expr] : node.group_keys) {
        if (expr->kind != Expr::Kind::kColumn) keys_are_plain = false;
      }
      if (keys_are_plain && !in.base_table.empty()) {
        auto t = catalog.find(in.base_table);
        if (t != catalog.end()) {
          double product = 1.0;
          for (const auto& [name, expr] : node.group_keys) {
            auto idx = t->second.schema().IndexOf(expr->column);
            if (idx.ok()) {
              product *= std::max<double>(
                  1.0, static_cast<double>(t->second.stats(idx.value()).ndv));
            }
          }
          est_groups = std::min(product, in.est_rows);
        }
      }

      const bool low_ndv =
          est_groups <= static_cast<double>(options_.low_ndv_threshold) ||
          !keys_are_plain;
      Lowered out;
      out.est_rows = est_groups;
      for (const auto& [name, expr] : node.group_keys) {
        out.columns.push_back(name);
      }
      for (const AggSpec& a : node.aggregates) out.columns.push_back(a.name);

      if (low_ndv) {
        // Low NDV: on-the-fly aggregation, one table per dpCore, then a
        // merge: a one-stage pipeline whose stage is the aggregate sink.
        PipelineSpec spec;
        spec.input = in.step;
        PipelineStageSpec& stage =
            spec.branches.emplace_back().stages.emplace_back();
        stage.kind = PipelineStageSpec::Kind::kAggregate;
        stage.group_keys = node.group_keys;
        stage.aggregates = node.aggregates;
        stage.est_groups = static_cast<size_t>(std::ceil(est_groups));
        out.step = AddStep(plan, std::make_unique<PipelineStep>(
                                     NextId(*plan), std::move(spec)));
        return out;
      }

      // High NDV: distribute distinct groups over dpCores by
      // partitioning on the group-key columns.
      std::vector<std::string> key_cols;
      for (const auto& [name, expr] : node.group_keys) {
        key_cols.push_back(expr->column);
      }
      PartitionPlanInput pin;
      pin.total_rows = static_cast<size_t>(std::max(1.0, in.est_rows));
      pin.row_bytes = 8 * (node.group_keys.size() + node.aggregates.size());
      pin.num_columns = node.group_keys.size() + node.aggregates.size();
      pin.dmem_budget_bytes = config_.dmem_bytes / 2;
      pin.min_partitions = std::max(2, config_.num_cores);
      pin.num_cores = config_.num_cores;
      pin.largest_morsel_fraction =
          LargestChunkFraction(catalog, in.base_table);
      RAPID_ASSIGN_OR_RETURN(SchemeChoice choice,
                             OptimizePartitionScheme(pin, params_));
      const int part_id = AddPartition(plan, in.step, key_cols, choice.scheme,
                                       choice.target_fanout);
      // Checkpoint address of the group-by input's partition rounds.
      plan->subtree_steps.emplace_back(path + "0#p", part_id);

      size_t max_rows = options_.groupby_max_partition_rows;
      if (max_rows == 0) {
        // A partition's hash table (keys + states, ~16 B per group per
        // column) must fit half the scratchpad; allow 4x slack before
        // re-partitioning kicks in.
        const size_t row_bytes =
            16 * (node.group_keys.size() + node.aggregates.size());
        max_rows = 4 * (config_.dmem_bytes / 2) / std::max<size_t>(
                                                      1, row_bytes);
      }
      out.step = NextId(*plan);
      AddStep(plan, std::make_unique<GroupByStep>(
                        out.step, part_id, node.group_keys, node.aggregates,
                        1024, max_rows));
      return out;
    }

    case LogicalNode::Kind::kSort: {
      RAPID_ASSIGN_OR_RETURN(Lowered in, Lower(*node.input, catalog, plan, path + "0"));
      const int id = NextId(*plan);
      AddStep(plan, std::make_unique<SortStep>(id, in.step, node.sort_keys));
      Lowered out;
      out.step = id;
      out.est_rows = in.est_rows;
      out.columns = in.columns;
      return out;
    }

    case LogicalNode::Kind::kTopK: {
      RAPID_ASSIGN_OR_RETURN(Lowered in, Lower(*node.input, catalog, plan, path + "0"));
      const int id = NextId(*plan);
      AddStep(plan, std::make_unique<TopKStep>(id, in.step, node.sort_keys,
                                               node.limit));
      Lowered out;
      out.step = id;
      out.est_rows = static_cast<double>(node.limit);
      out.columns = in.columns;
      return out;
    }

    case LogicalNode::Kind::kSetOp: {
      RAPID_ASSIGN_OR_RETURN(Lowered l, Lower(*node.input, catalog, plan, path + "0"));
      RAPID_ASSIGN_OR_RETURN(Lowered r, Lower(*node.right, catalog, plan, path + "1"));
      const int id = NextId(*plan);
      AddStep(plan, std::make_unique<SetOpStep>(id, node.setop, l.step,
                                                r.step));
      Lowered out;
      out.step = id;
      out.est_rows = l.est_rows + r.est_rows;
      out.columns = l.columns;
      return out;
    }

    case LogicalNode::Kind::kWindow: {
      RAPID_ASSIGN_OR_RETURN(Lowered in, Lower(*node.input, catalog, plan, path + "0"));
      const int id = NextId(*plan);
      AddStep(plan, std::make_unique<WindowStep>(id, in.step, node.windows));
      Lowered out;
      out.step = id;
      out.est_rows = in.est_rows;
      out.columns = in.columns;
      for (const LogicalWindow& w : node.windows) {
        out.columns.push_back(w.output_name);
      }
      return out;
    }
  }
  return Status::Internal("unreachable logical node kind");
}

Result<PhysicalPlan> Planner::Plan(const LogicalPtr& root,
                                   const Catalog& catalog) {
  if (root == nullptr) {
    return Status::InvalidArgument("logical plan is null");
  }
  PhysicalPlan plan;
  scans_.clear();
  partitions_.clear();
  RAPID_ASSIGN_OR_RETURN(Lowered lowered, Lower(*root, catalog, &plan, ""));
  plan.root = lowered.step;
  // Tile-pipeline fusion pass. Skew/capacity overrides force the
  // partitioned join machinery, so fusion stands down for them.
  if (options_.enable_fusion && options_.force_join_fanout == 0 &&
      options_.heavy_hitter_threshold == 0 &&
      options_.join_dmem_capacity_rows == 0) {
    RAPID_ASSIGN_OR_RETURN(
        plan, FusePipelines(std::move(plan), config_,
                            options_.fusion_max_build_rows, params_,
                            &catalog));
  }
  return plan;
}

}  // namespace rapid::core
