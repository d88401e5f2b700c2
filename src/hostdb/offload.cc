#include "hostdb/offload.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>

#include "common/config.h"
#include "common/trace.h"
#include "core/qcomp/plan_serde.h"

namespace rapid::hostdb {

void OffloadPlanner::CollectTables(const core::LogicalPtr& plan,
                                   std::vector<std::string>* out) {
  if (plan == nullptr) return;
  if (plan->kind == core::LogicalNode::Kind::kScan) {
    if (std::find(out->begin(), out->end(), plan->table) == out->end()) {
      out->push_back(plan->table);
    }
  }
  CollectTables(plan->input, out);
  CollectTables(plan->right, out);
}

bool OffloadPlanner::Offloadable(const core::LogicalPtr& plan,
                                 const core::RapidEngine& engine) {
  if (plan == nullptr) return false;
  // All relational operators in this reproduction are supported by
  // RAPID (scan/filter/project/join/group-by/sort/top-k/set-op/
  // window); the binding condition is table residency.
  std::vector<std::string> tables;
  CollectTables(plan, &tables);
  for (const std::string& t : tables) {
    if (engine.GetTable(t) == nullptr) return false;
  }
  return true;
}

double OffloadPlanner::EstimateRapidSeconds(
    const core::LogicalPtr& plan, const core::Catalog& catalog) const {
  if (plan == nullptr) return 0;
  double cost = EstimateRapidSeconds(plan->input, catalog) +
                EstimateRapidSeconds(plan->right, catalog);
  using Kind = core::LogicalNode::Kind;
  switch (plan->kind) {
    case Kind::kScan: {
      auto it = catalog.find(plan->table);
      const size_t rows = it == catalog.end() ? 0 : it->second.num_rows();
      // Width-weighted compression ratio of the scanned table: under
      // encoded scans the DMS moves the encoded bytes, so the offload
      // comparison credits RAPID with the smaller transfer.
      double ratio = 1.0;
      if (it != catalog.end() &&
          GetConfig().encoded_scan == EncodedScanMode::kAuto) {
        const storage::Table& t = it->second;
        double plain = 0.0;
        double enc = 0.0;
        for (size_t c = 0; c < t.schema().num_fields(); ++c) {
          const auto w = static_cast<double>(
              storage::WidthOf(t.schema().field(c).type));
          plain += w;
          enc += w / std::max(1.0, t.stats(c).compression_ratio);
        }
        if (enc > 0) ratio = plain / enc;
      }
      cost += estimator_.ScanSeconds(rows, 8 * std::max<size_t>(
                                               1, plan->columns.size()),
                                     plan->predicates.size(), 0.5, ratio);
      break;
    }
    case Kind::kJoin: {
      // Child sizes approximated by the scanned base tables.
      std::vector<std::string> lt;
      std::vector<std::string> rt;
      CollectTables(plan->input, &lt);
      CollectTables(plan->right, &rt);
      size_t lrows = 0;
      size_t rrows = 0;
      for (const auto& t : lt) {
        auto it = catalog.find(t);
        if (it != catalog.end()) lrows += it->second.num_rows();
      }
      for (const auto& t : rt) {
        auto it = catalog.find(t);
        if (it != catalog.end()) rrows += it->second.num_rows();
      }
      cost += estimator_.JoinSeconds(std::min(lrows, rrows),
                                     std::max(lrows, rrows), 16, 1);
      break;
    }
    case Kind::kGroupBy:
      cost += estimator_.GroupBySeconds(1 << 16, 64,
                                        plan->aggregates.size(), true);
      break;
    case Kind::kSort:
    case Kind::kTopK:
      cost += estimator_.SortSeconds(1 << 16, 8);
      break;
    default:
      break;
  }
  return cost;
}

double OffloadPlanner::EstimateLocalSeconds(
    const core::LogicalPtr& plan, const core::Catalog& catalog) const {
  // System X interprets tuple-at-a-time: ~100 ns per row per operator
  // on the host CPU — the cost model the host compiler uses when
  // comparing against the RAPID offload estimate.
  if (plan == nullptr) return 0;
  double cost = EstimateLocalSeconds(plan->input, catalog) +
                EstimateLocalSeconds(plan->right, catalog);
  if (plan->kind == core::LogicalNode::Kind::kScan) {
    auto it = catalog.find(plan->table);
    const size_t rows = it == catalog.end() ? 0 : it->second.num_rows();
    cost += static_cast<double>(rows) *
            (1.0 + static_cast<double>(plan->predicates.size())) * 100e-9;
  } else {
    cost += 1e-6;  // per-operator overhead
  }
  return cost;
}

OffloadDecision OffloadPlanner::Decide(const core::LogicalPtr& plan,
                                       const core::RapidEngine& engine,
                                       const core::Catalog& host_catalog) const {
  OffloadDecision decision;
  decision.local_seconds = EstimateLocalSeconds(plan, host_catalog);

  if (Offloadable(plan, engine)) {
    decision.rapid_seconds = EstimateRapidSeconds(plan, host_catalog);
    // Network transfer + post-processing of the (small) root result is
    // folded into a fixed term; full offload wins unless RAPID costs
    // more outright.
    if (decision.rapid_seconds + 1e-6 < decision.local_seconds) {
      decision.kind = OffloadDecision::Kind::kFull;
      decision.fragments = {plan};
      decision.reason = "all operators supported, tables resident";
      return decision;
    }
    decision.kind = OffloadDecision::Kind::kNone;
    decision.reason = "RAPID estimate not cheaper than local";
    return decision;
  }

  // Partial offload: every *maximal* offloadable subtree becomes a
  // placeholder (bottom-up fragment search, Section 3.1).
  std::function<void(const core::LogicalPtr&)> visit =
      [&](const core::LogicalPtr& node) {
        if (node == nullptr) return;
        if (Offloadable(node, engine)) {
          decision.fragments.push_back(node);
          decision.rapid_seconds +=
              EstimateRapidSeconds(node, host_catalog);
          return;  // children are included already
        }
        visit(node->input);
        visit(node->right);
      };
  visit(plan->input);
  visit(plan->right);

  if (!decision.fragments.empty()) {
    decision.kind = OffloadDecision::Kind::kPartial;
    decision.reason =
        "fragment offload: " + std::to_string(decision.fragments.size()) +
        " resident subtree(s)";
  } else {
    decision.kind = OffloadDecision::Kind::kNone;
    decision.reason = "no offloadable fragment (tables not loaded)";
  }
  return decision;
}

void QueryReport::Merge(const RapidOperator& op) {
  offloaded = offloaded && !op.fell_back();
  fell_back = fell_back || op.fell_back();
  if (op.fell_back()) {
    if (!fallback_reason.empty()) fallback_reason += "; ";
    fallback_reason += op.fallback_reason().ToString();
  }
  rapid_wall_seconds += op.rapid_wall_seconds();
  reused_fragments += op.reused_fragments();
  rapid_stats.Accumulate(op.stats());
}

std::string QueryReport::Summary() const {
  const char* kind = decision == OffloadDecision::Kind::kFull      ? "full"
                     : decision == OffloadDecision::Kind::kPartial ? "partial"
                                                                   : "none";
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "rows=%zu offload=%s offloaded=%d fell_back=%d modeled_ms=%.3f "
      "rapid_wall_ms=%.3f host_wall_ms=%.3f encoded_bytes=%llu "
      "plain_bytes=%llu pruned=%llu reused_rounds=%llu retries=%llu",
      rows.num_rows(), kind, offloaded ? 1 : 0, fell_back ? 1 : 0,
      rapid_stats.modeled_seconds * 1e3, rapid_wall_seconds * 1e3,
      host_wall_seconds * 1e3,
      static_cast<unsigned long long>(rapid_stats.encoded_bytes_moved),
      static_cast<unsigned long long>(rapid_stats.plain_bytes_moved),
      static_cast<unsigned long long>(rapid_stats.rows_pruned_by_join_filter),
      static_cast<unsigned long long>(rapid_stats.reused_rounds),
      static_cast<unsigned long long>(rapid_stats.dpu_retries));
  return std::string(buf);
}

namespace {

// Walks the fragment to the logical node at `path` ('0' descends into
// input/left, '1' into right — the planner's subtree addressing).
// Returns nullptr when the path does not exist in this tree.
const core::LogicalNode* ResolvePath(const core::LogicalPtr& root,
                                     const std::string& path) {
  const core::LogicalNode* node = root.get();
  for (const char edge : path) {
    if (node == nullptr) return nullptr;
    node = edge == '0' ? node->input.get() : node->right.get();
  }
  return node;
}

}  // namespace

RapidOperator::RapidOperator(core::LogicalPtr fragment,
                             core::RapidEngine* engine,
                             const ScnJournal* journal, uint64_t query_scn,
                             const core::Catalog* host_catalog,
                             const core::ExecOptions& options)
    : fragment_(std::move(fragment)),
      engine_(engine),
      journal_(journal),
      query_scn_(query_scn),
      host_catalog_(host_catalog),
      options_(options) {}

Status RapidOperator::Start() {
  fallback_reason_ = Status::OK();
  fallback_info_ = core::FallbackInfo{};
  reused_fragments_ = 0;
  // Admissibility: every table the fragment touches must have all
  // changes visible at the query SCN already propagated.
  std::vector<std::string> tables;
  OffloadPlanner::CollectTables(fragment_, &tables);
  bool admissible = true;
  for (const std::string& t : tables) {
    if (!journal_->Admissible(t, query_scn_)) {
      admissible = false;
      fallback_reason_ = Status::AdmissionDenied(
          "table '" + t + "' has unpropagated changes at SCN " +
          std::to_string(query_scn_));
      break;
    }
  }

  if (admissible) {
    // Section 3.1/3.2: the compiler serializes the QEP into the
    // placeholder; the RAPID node instantiates the received plan. The
    // fragment round-trips through the wire format here so every
    // offloaded query exercises that path.
    const std::string wire = core::SerializePlan(fragment_);
    auto received = core::ParsePlan(wire);
    const auto start = std::chrono::steady_clock::now();
    auto result =
        received.ok()
            ? engine_->Execute(received.value(), options_, &fallback_info_)
            : Result<core::QueryResult>(received.status());
    const auto end = std::chrono::steady_clock::now();
    if (result.ok()) {
      buffered_ = std::move(result.value().rows);
      rapid_stats_ = result.value().stats;
      rapid_wall_seconds_ =
          std::chrono::duration<double>(end - start).count();
      schema_ = buffered_.metas();
      cursor_ = 0;
      fell_back_ = false;
      return Status::OK();
    }
    // Cancellation-class statuses are terminal for the *query*, not
    // evidence of DPU trouble: re-running the fragment on the host
    // would silently resurrect a query the user killed. Propagate.
    if (result.status().IsCancellation()) return result.status();
    // Any other mid-fragment DPU failure (descriptor retry exhaustion,
    // capacity faults, OOM that survived demotion, ...) falls back to
    // host execution (Section 3.2), with the reason recorded for the
    // offload decision stats.
    fallback_reason_ = result.status();
  }

  // Fallback: System-X-only execution of the fragment. Subtrees the
  // DPU run did complete before failing (up to and including its
  // in-place checkpoint retries) are injected as materialized node
  // overrides so the host resumes from them instead of recomputing
  // (admission denials harvested nothing, so those still re-execute
  // from scratch).
  fell_back_ = true;
  TraceSpan graft(TraceMode::kSummary, TraceCollector::kTrackHost,
                  "offload.fallback_graft");
  if (graft.active()) {
    graft.Annotate("reason", TraceCollector::Instance().Intern(
                                 fallback_reason_.ToString()));
  }
  std::vector<core::PartialResult>& partials = fallback_info_.partials;
  std::stable_sort(partials.begin(), partials.end(),
                   [](const core::PartialResult& a,
                      const core::PartialResult& b) {
                     return a.path.size() < b.path.size();
                   });
  std::vector<core::PartialResult> kept;
  kept.reserve(partials.size());
  for (auto& pr : partials) {
    // Shallowest-first: a subtree under an already-kept ancestor is
    // shadowed by it — the Volcano walk never reaches the deeper node.
    const auto covered = [&kept](const std::string& path) {
      for (const auto& k : kept) {
        if (path.compare(0, k.path.size(), k.path) == 0) return true;
      }
      return false;
    };
    // Checkpoint addresses carrying a '#' marker are partition-round
    // fragments; the engine flattens reusable ones to plain paths, so
    // anything still marked has no Volcano counterpart here.
    if (pr.path.find('#') != std::string::npos) continue;
    if (covered(pr.path)) continue;
    if (ResolvePath(fragment_, pr.path) == nullptr) continue;
    kept.push_back(std::move(pr));
  }
  partials = std::move(kept);
  NodeOverrides overrides;
  for (const auto& pr : partials) {
    overrides[ResolvePath(fragment_, pr.path)] = &pr.rows;
  }
  reused_fragments_ = overrides.size();
  graft.Annotate("reused_fragments", static_cast<int64_t>(reused_fragments_));
  RAPID_ASSIGN_OR_RETURN(
      buffered_,
      VolcanoExecutor::Execute(fragment_, *host_catalog_, overrides));
  schema_ = buffered_.metas();
  cursor_ = 0;
  return Status::OK();
}

Result<bool> RapidOperator::Fetch(Row* row) {
  if (cursor_ >= buffered_.num_rows()) return false;
  row->resize(buffered_.num_columns());
  for (size_t c = 0; c < buffered_.num_columns(); ++c) {
    (*row)[c] = buffered_.Value(cursor_, c);
  }
  ++cursor_;
  return true;
}

void RapidOperator::Close() {}

}  // namespace rapid::hostdb
