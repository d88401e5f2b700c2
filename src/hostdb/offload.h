// Offload planning and the RAPID operator (Sections 3.1 and 3.2).
//
// The host's plan generator considers (i) full offload, (ii) partial
// offload of fragments, and (iii) no offload, based on operator
// support, table residency in RAPID, and the RAPID cost model. The
// chosen fragment is wrapped in a placeholder — the *RAPID operator* —
// which at start() checks SCN admissibility, triggers RAPID execution
// and buffers results; on admission failure it falls back to the
// System-X-only plan.

#ifndef RAPID_HOSTDB_OFFLOAD_H_
#define RAPID_HOSTDB_OFFLOAD_H_

#include <string>
#include <vector>

#include "core/engine.h"
#include "core/qcomp/cost_model.h"
#include "hostdb/journal.h"
#include "hostdb/volcano.h"

namespace rapid::hostdb {

struct OffloadDecision {
  enum class Kind { kFull, kPartial, kNone };
  Kind kind = Kind::kNone;
  // kFull: the whole plan (one fragment). kPartial: every maximal
  // offloadable subtree — the logical tree "typically contains one or
  // many place holder node(s)" (Section 3.1).
  std::vector<core::LogicalPtr> fragments;
  double rapid_seconds = 0;   // estimated fragment cost on RAPID
  double local_seconds = 0;   // estimated System-X-only cost
  std::string reason;
};

class OffloadPlanner {
 public:
  OffloadPlanner(const dpu::DpuConfig& config, const dpu::CostParams& params)
      : estimator_(config, params) {}

  // Decides how much of `plan` to offload given what is loaded into
  // the RAPID engine.
  OffloadDecision Decide(const core::LogicalPtr& plan,
                         const core::RapidEngine& engine,
                         const core::Catalog& host_catalog) const;

  // Tables referenced by the subtree.
  static void CollectTables(const core::LogicalPtr& plan,
                            std::vector<std::string>* out);

  // True if every operator of the subtree is supported by RAPID and
  // every referenced table is loaded.
  static bool Offloadable(const core::LogicalPtr& plan,
                          const core::RapidEngine& engine);

 private:
  // Rough cost estimates driving the cost-based decision.
  double EstimateRapidSeconds(const core::LogicalPtr& plan,
                              const core::Catalog& catalog) const;
  double EstimateLocalSeconds(const core::LogicalPtr& plan,
                              const core::Catalog& catalog) const;

  core::CostEstimator estimator_;
};

class RapidOperator;

// Result of executing a query through the host with offload.
struct QueryReport {
  core::ColumnSet rows;
  bool offloaded = false;
  bool fell_back = false;  // admission or DPU failure -> local plan
  // Human-readable reason(s) the query (or fragments of it) left the
  // RAPID path; empty when nothing fell back.
  std::string fallback_reason;
  OffloadDecision::Kind decision = OffloadDecision::Kind::kNone;
  double rapid_wall_seconds = 0;  // time spent executing in RAPID
  double host_wall_seconds = 0;   // host-side execution + post-processing
  // The query's counters summed over every RAPID placeholder, whether
  // or not it fell back: modeled time, DMS and join-filter traffic
  // from the fragments that ran on RAPID, checkpoint reuse and retries
  // from all of them.
  core::ExecutionStats rapid_stats;
  // Completed DPU subtree results the host fallback resumed from
  // instead of recomputing (0 when nothing fell back or nothing had
  // completed).
  uint64_t reused_fragments = 0;

  // Folds one placeholder into the report: fallback bookkeeping, wall
  // time and its stats. Called once per fragment by ExecuteQuery.
  void Merge(const RapidOperator& op);

  // Stable one-line key=value summary for logs and examples. Keys and
  // their order are part of the format; values in fixed units
  // (milliseconds, bytes, counts).
  std::string Summary() const;
};

// The RAPID placeholder operator: checks admissibility, triggers
// RAPID execution of the fragment and serves its buffered rows; falls
// back to local execution when admission is denied.
class RapidOperator : public Iterator {
 public:
  RapidOperator(core::LogicalPtr fragment, core::RapidEngine* engine,
                const ScnJournal* journal, uint64_t query_scn,
                const core::Catalog* host_catalog,
                const core::ExecOptions& options);

  Status Start() override;
  Result<bool> Fetch(Row* row) override;
  void Close() override;

  bool fell_back() const { return fell_back_; }
  // Why the fragment left the RAPID path: kAdmissionDenied, or the DPU
  // execution status that triggered host re-execution. OK when the
  // fragment ran on RAPID.
  const Status& fallback_reason() const { return fallback_reason_; }
  double rapid_wall_seconds() const { return rapid_wall_seconds_; }
  // The fragment's counters: the engine's stats when it ran on RAPID;
  // when it fell back, only the checkpoint reuse and retries the
  // failed DPU attempts spent (the host re-execution moves no DMS
  // bytes and builds no Bloom filters).
  const core::ExecutionStats& stats() const {
    return fell_back_ ? fallback_info_.stats : rapid_stats_;
  }
  // Completed DPU subtree results the host fallback resumed from
  // (materialized-node overrides) instead of recomputing.
  size_t reused_fragments() const { return reused_fragments_; }

 private:
  core::LogicalPtr fragment_;
  core::RapidEngine* engine_;
  const ScnJournal* journal_;
  uint64_t query_scn_;
  const core::Catalog* host_catalog_;
  core::ExecOptions options_;

  core::ColumnSet buffered_;
  size_t cursor_ = 0;
  bool fell_back_ = false;
  Status fallback_reason_ = Status::OK();
  double rapid_wall_seconds_ = 0;
  core::ExecutionStats rapid_stats_;
  // Checkpoint harvest of the failed DPU run: completed subtree
  // results (kept alive while the Volcano fallback reads them through
  // node overrides) plus its stats.
  core::FallbackInfo fallback_info_;
  size_t reused_fragments_ = 0;
};

}  // namespace rapid::hostdb

#endif  // RAPID_HOSTDB_OFFLOAD_H_
