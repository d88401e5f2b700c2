// HostDatabase: the System X facade (Section 3).
//
// Owns the authoritative tables, the SCN journal, and the offload
// machinery. Queries enter here: the plan generator decides
// full/partial/no offload; offloaded fragments execute in RAPID via
// the RapidOperator placeholder; everything else (and fallbacks) runs
// on the pull-based Volcano engine.

#ifndef RAPID_HOSTDB_DATABASE_H_
#define RAPID_HOSTDB_DATABASE_H_

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "hostdb/journal.h"
#include "hostdb/offload.h"
#include "hostdb/volcano.h"
#include "storage/loader.h"

namespace rapid::hostdb {

class HostDatabase {
 public:
  HostDatabase() = default;

  // DDL + initial load into the host (source of truth).
  Status CreateTable(const std::string& name,
                     const std::vector<storage::ColumnSpec>& specs,
                     const std::vector<storage::ColumnData>& data,
                     const storage::LoadOptions& options =
                         storage::LoadOptions{});

  // The LOAD command (Sections 3.1, 4.4): ships a copy of the host
  // table's already-encoded chunks into RAPID, consistent as of the
  // current SCN.
  Status LoadToRapid(const std::string& name, core::RapidEngine* engine);

  // DML: applies `changes` to the host table at a fresh SCN and
  // records them in the journal for later propagation.
  Status Update(const std::string& name,
                std::vector<storage::RowChange> changes);

  // Runs the periodic checkpointing (journal -> RAPID trackers).
  Status Checkpoint(core::RapidEngine* engine) {
    std::lock_guard<std::mutex> lock(checkpoint_mu_);
    return journal_.CheckpointAll(engine);
  }

  // Starts the periodic background checkpointer of Section 3.3
  // ("periodic background threads for scanning and propagating the
  // changes from the journals"), avoiding long query checkpoints at
  // admission time. Stops automatically at destruction.
  void StartBackgroundCheckpointer(core::RapidEngine* engine,
                                   std::chrono::milliseconds interval);
  void StopBackgroundCheckpointer();

  ~HostDatabase() { StopBackgroundCheckpointer(); }

  // Executes a query: offload decision, RAPID execution (with
  // admissibility check and fallback), host post-processing.
  Result<QueryReport> ExecuteQuery(
      const core::LogicalPtr& plan, core::RapidEngine* engine,
      const core::ExecOptions& options = core::ExecOptions{});

  // EXPLAIN ANALYZE: renders the offload decision, then executes each
  // offloadable fragment on RAPID and appends its physical plan tree
  // with per-node actuals (rows, modeled time, cycles).
  Result<std::string> ExplainAnalyze(
      const core::LogicalPtr& plan, core::RapidEngine* engine,
      const core::ExecOptions& options = core::ExecOptions{});

  // System-X-only execution (the Figure 16 baseline).
  Result<core::ColumnSet> ExecuteLocal(const core::LogicalPtr& plan) {
    return VolcanoExecutor::Execute(plan, catalog_);
  }

  const core::Catalog& catalog() const { return catalog_; }
  ScnJournal& journal() { return journal_; }
  const storage::Table* GetTable(const std::string& name) const {
    auto it = catalog_.find(name);
    return it == catalog_.end() ? nullptr : &it->second;
  }
  storage::Table* GetMutableTable(const std::string& name) {
    auto it = catalog_.find(name);
    return it == catalog_.end() ? nullptr : &it->second;
  }

 private:
  core::Catalog catalog_;
  ScnJournal journal_;
  std::mutex checkpoint_mu_;

  // Background checkpointer state.
  std::thread checkpointer_;
  std::mutex bg_mu_;
  std::condition_variable bg_cv_;
  bool bg_stop_ = false;
};

}  // namespace rapid::hostdb

#endif  // RAPID_HOSTDB_DATABASE_H_
