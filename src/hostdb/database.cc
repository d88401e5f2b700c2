#include "hostdb/database.h"

#include <chrono>
#include <memory>

#include "common/metrics.h"
#include "common/trace.h"
#include "storage/encoding_stack.h"

namespace rapid::hostdb {

namespace {

const char* DecisionName(OffloadDecision::Kind kind) {
  switch (kind) {
    case OffloadDecision::Kind::kFull:
      return "full";
    case OffloadDecision::Kind::kPartial:
      return "partial";
    case OffloadDecision::Kind::kNone:
      return "none";
  }
  return "none";
}

void CountQuery(bool offloaded, bool fell_back) {
  auto& reg = MetricsRegistry::Instance();
  static MetricCounter* queries = reg.Counter("hostdb.queries");
  static MetricCounter* off = reg.Counter("hostdb.queries.offloaded");
  static MetricCounter* fb = reg.Counter("hostdb.queries.fell_back");
  queries->Increment();
  if (offloaded) off->Increment();
  if (fell_back) fb->Increment();
}

}  // namespace

void HostDatabase::StartBackgroundCheckpointer(
    core::RapidEngine* engine, std::chrono::milliseconds interval) {
  StopBackgroundCheckpointer();
  {
    std::lock_guard<std::mutex> lock(bg_mu_);
    bg_stop_ = false;
  }
  checkpointer_ = std::thread([this, engine, interval] {
    std::unique_lock<std::mutex> lock(bg_mu_);
    while (!bg_stop_) {
      bg_cv_.wait_for(lock, interval, [this] { return bg_stop_; });
      if (bg_stop_) return;
      lock.unlock();
      // Failures leave entries pending; the next tick retries.
      (void)Checkpoint(engine);
      lock.lock();
    }
  });
}

void HostDatabase::StopBackgroundCheckpointer() {
  {
    std::lock_guard<std::mutex> lock(bg_mu_);
    bg_stop_ = true;
  }
  bg_cv_.notify_all();
  if (checkpointer_.joinable()) checkpointer_.join();
}

Status HostDatabase::CreateTable(const std::string& name,
                                 const std::vector<storage::ColumnSpec>& specs,
                                 const std::vector<storage::ColumnData>& data,
                                 const storage::LoadOptions& options) {
  storage::LoadOptions opts = options;
  opts.scn = journal_.current_scn();
  RAPID_ASSIGN_OR_RETURN(storage::Table table,
                         storage::LoadTable(name, specs, data, opts));
  catalog_.erase(name);
  catalog_.emplace(name, std::move(table));
  return Status::OK();
}

Status HostDatabase::LoadToRapid(const std::string& name,
                                 core::RapidEngine* engine) {
  const storage::Table* host = GetTable(name);
  if (host == nullptr) {
    return Status::NotFound("table '" + name + "' does not exist");
  }
  // The LOAD command ships the host's encoded chunks to the RAPID node,
  // consistent as of the current SCN. Journal entries created after
  // this point are propagated by checkpointing.
  storage::Table copy = host->Clone();
  copy.set_scn(journal_.current_scn());
  // Host updates leave min/max/ndv and compression ratios as of
  // CreateTable and clear the encodings of the chunks they touch: the
  // cleared ones are rebuilt here, the rest are current and summed.
  copy.RecomputeStats();
  for (size_t p = 0; p < copy.num_partitions(); ++p) {
    storage::Partition& part = copy.partition(p);
    for (size_t ch = 0; ch < part.num_chunks(); ++ch) {
      if (!part.chunk(ch).has_encodings()) {
        storage::BuildChunkEncodings(&part.chunk(ch));
      }
    }
  }
  (void)storage::SummarizeTableEncodings(&copy);
  return engine->Load(std::move(copy));
}

Status HostDatabase::Update(const std::string& name,
                            std::vector<storage::RowChange> changes) {
  storage::Table* table = GetMutableTable(name);
  if (table == nullptr) {
    return Status::NotFound("table '" + name + "' does not exist");
  }
  // A rejected batch writes no cell and consumes no SCN. The host copy
  // never scans encodings, so the touched chunks' encodings are
  // cleared, not rebuilt; LoadToRapid rebuilds them on its copy.
  RAPID_ASSIGN_OR_RETURN(std::vector<storage::Chunk*> touched,
                         storage::ApplyRowChanges(table, changes));
  for (storage::Chunk* chunk : touched) chunk->ClearEncodings();
  const uint64_t scn = journal_.NextScn();
  table->set_scn(scn);
  journal_.Record(name, scn, std::move(changes));
  return Status::OK();
}

Result<QueryReport> HostDatabase::ExecuteQuery(
    const core::LogicalPtr& plan, core::RapidEngine* engine,
    const core::ExecOptions& options) {
  QueryReport report;
  // Outermost trace scope: the offload decision, the RAPID fragment
  // runs, and any fallback graft all land in one exported trace.
  TraceQueryScope trace_scope(engine->dpu().num_cores(),
                              engine->dpu().params().clock_hz);
  OffloadPlanner planner(engine->dpu().config(), engine->dpu().params());
  const OffloadDecision decision = [&] {
    TraceSpan span(TraceMode::kSummary, TraceCollector::kTrackHost,
                   "offload.decide");
    OffloadDecision d = planner.Decide(plan, *engine, catalog_);
    if (span.active()) {
      span.Annotate("kind", DecisionName(d.kind));
      span.Annotate("reason", TraceCollector::Instance().Intern(d.reason));
      span.Annotate("rapid_seconds", d.rapid_seconds);
      span.Annotate("local_seconds", d.local_seconds);
      span.Annotate("fragments", static_cast<int64_t>(d.fragments.size()));
    }
    return d;
  }();
  report.decision = decision.kind;

  const uint64_t query_scn = journal_.current_scn();
  const auto host_start = std::chrono::steady_clock::now();

  if (decision.kind == OffloadDecision::Kind::kNone) {
    RAPID_ASSIGN_OR_RETURN(report.rows,
                           VolcanoExecutor::Execute(plan, catalog_));
    report.host_wall_seconds = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() -
                                   host_start)
                                   .count();
    CountQuery(/*offloaded=*/false, /*fell_back=*/false);
    return report;
  }

  // Execute every fragment through its own RAPID placeholder operator
  // ("one or many place holder node(s)", Section 3.1).
  std::vector<std::unique_ptr<RapidOperator>> placeholders;
  std::vector<core::ColumnSet> fragment_rows(decision.fragments.size());
  report.offloaded = true;
  for (size_t f = 0; f < decision.fragments.size(); ++f) {
    placeholders.push_back(std::make_unique<RapidOperator>(
        decision.fragments[f], engine, &journal_, query_scn, &catalog_,
        options));
    RAPID_ASSIGN_OR_RETURN(fragment_rows[f],
                           DrainToColumnSet(placeholders[f].get()));
    report.Merge(*placeholders[f]);
  }

  if (decision.kind == OffloadDecision::Kind::kFull) {
    // The whole plan was the single fragment.
    report.rows = std::move(fragment_rows[0]);
  } else {
    // The rest of the plan runs on the Volcano engine with fragment
    // rows materialized behind their placeholders.
    NodeOverrides overrides;
    for (size_t f = 0; f < decision.fragments.size(); ++f) {
      overrides[decision.fragments[f].get()] = &fragment_rows[f];
    }
    RAPID_ASSIGN_OR_RETURN(
        report.rows, VolcanoExecutor::Execute(plan, catalog_, overrides));
  }

  report.host_wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    host_start)
          .count() -
      report.rapid_wall_seconds;
  if (report.host_wall_seconds < 0) report.host_wall_seconds = 0;
  CountQuery(report.offloaded, report.fell_back);
  return report;
}

Result<std::string> HostDatabase::ExplainAnalyze(
    const core::LogicalPtr& plan, core::RapidEngine* engine,
    const core::ExecOptions& options) {
  OffloadPlanner planner(engine->dpu().config(), engine->dpu().params());
  const OffloadDecision decision = planner.Decide(plan, *engine, catalog_);
  std::string out = "offload: ";
  out += DecisionName(decision.kind);
  out += " (" + decision.reason + ")\n";
  if (decision.kind == OffloadDecision::Kind::kNone) {
    out += "plan executes on host; no RAPID per-node actuals\n";
    return out;
  }
  for (size_t f = 0; f < decision.fragments.size(); ++f) {
    if (decision.fragments.size() > 1) {
      out += "fragment " + std::to_string(f) + ":\n";
    }
    RAPID_ASSIGN_OR_RETURN(
        std::string tree,
        engine->ExplainAnalyze(decision.fragments[f], options));
    out += tree;
  }
  return out;
}

}  // namespace rapid::hostdb
