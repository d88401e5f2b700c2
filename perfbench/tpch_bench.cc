// Standing TPC-H benchmark on both clocks.
//
// Loads TPC-H at SF 0.1 from a seeded generator, then runs one
// workload for a fixed number of seconds from a single thread (the
// DPU's per-core work runs inline) and reports:
//   * host wall-clock time of RAPID's x86 engine against the Volcano
//     engine (Figure 16's clock), and
//   * the deterministic modeled DPU time and the Figure 14 perf/watt
//     ratio derived from it (the modeled clock).
// Every RAPID result is checked against the Volcano oracle outside the
// timed regions. With --trace 1 the benchmark also records wall-clock
// spans around each public engine call it makes and reports per-layer
// numbers; spans are written as Chrome trace-event JSON at exit.
//
// The benchmark drives the engine only through public functions and
// counters (ExecutionStats, QueryReport, Tracker). See README.md in
// this directory for the workloads and the metric catalogue.
//
// Usage:
//   tpch_bench --workload tpch_scan|tpch_join|tpch_refresh --seed N
//              --seconds S --trace 0|1 [--query Q6] [--spans PATH]
// The last stdout line is "RESULT {json}" holding every metric the
// run produced; perfbench/run.py selects the ones BENCHMARK.json
// lists. Exit status is nonzero when any operation failed or returned
// a wrong result.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/simd.h"
#include "core/engine.h"
#include "core/qcomp/planner.h"
#include "dpu/power_model.h"
#include "hostdb/database.h"
#include "hostdb/offload.h"
#include "storage/encoding_stack.h"
#include "storage/loader.h"
#include "tpch/queries.h"
#include "tpch/tpch_gen.h"

namespace {

using namespace rapid;
using Clock = std::chrono::steady_clock;

constexpr double kScaleFactor = 0.1;
constexpr int kSetups = 5;              // timed set-ups; the median is reported
constexpr size_t kRowsPerChunk = 2048;  // tpch::LoadTpch's default
constexpr size_t kBatchRows = 256;      // lineitem rows per update batch
constexpr int kMinPasses = 3;
constexpr double kWarmupSeconds = 5;  // tpch_scan / tpch_join
constexpr int kRefreshWarmups = 8;    // fixed, so the data state is seeded

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

// ---- Host-speed probe --------------------------------------------------------

// Other tenants share the benchmark host's cores, caches and memory
// bandwidth, so its speed drifts: on a 4-vCPU Xeon VM, one pass of
// tpch_scan took 225 ms in one period and 138 ms ten minutes later,
// with CPU time equal to wall time (no steal). Each timed measurement
// is therefore paired with a run of this fixed probe, and the gated
// wall-clock metrics are reported at the host speed where the probe
// takes kProbeReferenceMs: normalized = measured * reference / probe.
// Raw wall times are printed beside them.
//
// The drift slows different kinds of work unevenly, so the probe
// mixes hash-table probes, a partitioning scatter and small-object
// allocation. Over 17 runs of 45 s spread across drift, normalizing
// by this mix cut the run-to-run IQR/median of both engines' pass
// times from 17-30% to 1-8%; a probe of dependent random loads alone
// left 11-22%.
constexpr double kProbeReferenceMs = 25;

class HostProbe {
 public:
  HostProbe()
      : keys_(size_t{1} << 21),     // 16 MiB of random keys
        scatter_(size_t{1} << 23),  // 64 MiB, 256 partitions
        table_(size_t{1} << 15) {   // 256 KiB hash table
    uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (uint64_t& v : keys_) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = x;
    }
    std::copy(keys_.begin(), keys_.begin() + table_.size(), table_.begin());
  }

  // Runs the mix once; returns its wall time in ms.
  double RunMs() {
    const Clock::time_point start = Clock::now();
    uint64_t acc = 0;
    for (uint64_t i = 0; i < keys_.size(); ++i) {
      const uint64_t v = table_[(i * 0x9E3779B97F4A7C15ULL) >> 49];
      acc = (v & 1) ? acc + v : acc ^ (v >> 3);
    }
    std::vector<uint32_t> fill(256);
    const size_t per_partition = scatter_.size() / fill.size();
    for (uint64_t v : keys_) {
      const size_t p = v >> 56;
      scatter_[p * per_partition + fill[p]++ % per_partition] = v;
    }
    for (int round = 0; round < 2; ++round) {
      std::vector<std::string> names;
      names.reserve(100000);
      for (int i = 0; i < 100000; ++i) {
        names.push_back("item-" + std::to_string(i * 7919));
      }
      acc += names[acc % names.size()].size();
    }
    sink_ = acc + scatter_[acc % scatter_.size()];
    return Since(start) * 1e3;
  }

  // Scales a wall time measured next to a probe run of `probe_ms` to
  // the reference host speed.
  static double Normalize(double measured, double probe_ms) {
    return measured * kProbeReferenceMs / probe_ms;
  }

  // Bytes the probe keeps resident for the whole run (every buffer is
  // written at construction), so peak RSS can leave them out.
  size_t ResidentBytes() const {
    return (keys_.size() + scatter_.size() + table_.size()) * sizeof(uint64_t);
  }

 private:
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> scatter_;
  std::vector<uint64_t> table_;
  volatile uint64_t sink_ = 0;  // keeps the probe's work observable
};

// ---- Spans -----------------------------------------------------------------

// Wall-clock spans around the engine calls the benchmark makes: name,
// start, end, parent span and the id of the query execution they
// belong to. Kept in memory; written as Chrome trace-event JSON.
class SpanLog {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }

  int Begin(std::string name, int query) {
    if (!enabled_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(Span{std::move(name), id,
                          stack_.empty() ? -1 : stack_.back(), query, Now(),
                          0});
    stack_.push_back(id);
    return id;
  }
  void End(int id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end_us = Now();
    stack_.pop_back();
  }
  int NewQueryId() { return next_query_++; }
  size_t size() const { return spans_.size(); }

  bool Write(const std::string& path, const std::string& header) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"otherData\": {\"config\": \"%s\"},\n", header.c_str());
    std::fprintf(f, " \"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %d, \"parent\": %d, \"query\": %d}}%s\n",
                   s.name.c_str(), s.start_us, s.end_us - s.start_us, s.id,
                   s.parent, s.query, i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, " ]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    int id;
    int parent;
    int query;
    double start_us;
    double end_us;
  };
  double Now() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int next_query_ = 0;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, int query = -1)
      : log_(log), id_(log.Begin(std::move(name), query)) {}
  ~ScopedSpan() { log_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

// ---- Metrics ---------------------------------------------------------------

class Metrics {
 public:
  void Add(std::string name, double value, std::string unit) {
    entries_.push_back(Entry{std::move(name), value, std::move(unit)});
  }

  void Print(const char* title) const {
    std::printf("\n%s\n", title);
    for (const Entry& e : entries_) {
      std::printf("  %-36s %16.6f %s\n", e.name.c_str(), e.value,
                  e.unit.c_str());
    }
  }

  std::string Json() const {
    std::string out = "{";
    char buf[64];
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      std::snprintf(buf, sizeof(buf), "%.17g", e.value);
      out += (i ? ", \"" : "\"") + e.name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + e.unit + "\"}";
    }
    return out + "}";
  }

  void Append(const Metrics& other) {
    entries_.insert(entries_.end(), other.entries_.begin(),
                    other.entries_.end());
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// ---- Engine counters -------------------------------------------------------

// Step kinds, bucketed from StepTiming descriptions (the first word of
// each PlanStep::Describe()).
enum Kind { kScan, kPipeline, kPartition, kHashJoin, kGroupBy, kSort,
            kOther, kNumKinds };
const char* const kKindNames[kNumKinds] = {
    "scan", "pipeline", "partition", "hashjoin", "groupby", "sort", "other"};

Kind KindOf(const std::string& description) {
  auto starts = [&](const char* prefix) {
    return description.rfind(prefix, 0) == 0;
  };
  if (starts("SCAN")) return kScan;
  if (starts("PIPE")) return kPipeline;  // PIPE and PIPELINE
  if (starts("PARTITION")) return kPartition;
  if (starts("HASHJOIN")) return kHashJoin;
  if (starts("GROUPBY")) return kGroupBy;
  if (starts("SORT") || starts("TOPK")) return kSort;
  return kOther;
}

// Counters the engine reports through ExecutionStats, summed over the
// fragments of one query or the queries of one pass.
struct EngineCounters {
  double modeled_s = 0;
  double compute_cycles = 0;
  double dms_cycles = 0;
  double kind_modeled_s[kNumKinds] = {};
  double kind_rows[kNumKinds] = {};
  core::WorkloadCounters work;
  double imbalance_max = 0;
  double imbalance_mean = 0;
  double steals = 0;
  double encoded_bytes = 0;
  double plain_bytes = 0;
  double runs_filtered = 0;
  double join_filter_built = 0;
  double join_filter_pruned = 0;
  double dpu_retries = 0;
  double demoted = 0;
  double tile_pool_misses = 0;
  double arena_high_water = 0;  // bytes, max over the stats folded in
  double plan_steps = 0;
  double plan_pipelines = 0;

  static EngineCounters Of(const core::ExecutionStats& s) {
    EngineCounters c;
    c.modeled_s = s.modeled_seconds;
    c.compute_cycles = s.total_compute_cycles;
    c.dms_cycles = s.total_dms_cycles;
    for (const core::StepTiming& step : s.steps) {
      const Kind k = KindOf(step.description);
      c.kind_modeled_s[k] += step.modeled_seconds;
      c.kind_rows[k] += static_cast<double>(step.rows_out);
    }
    c.work = s.workload;
    c.imbalance_max = s.imbalance.max_core_cycles;
    c.imbalance_mean = s.imbalance.mean_core_cycles;
    c.steals = static_cast<double>(s.imbalance.steal_count);
    c.encoded_bytes = static_cast<double>(s.encoded_bytes_moved);
    c.plain_bytes = static_cast<double>(s.plain_bytes_moved);
    c.runs_filtered = static_cast<double>(s.runs_filtered);
    c.join_filter_built = static_cast<double>(s.join_filter_built);
    c.join_filter_pruned = static_cast<double>(s.rows_pruned_by_join_filter);
    c.dpu_retries = static_cast<double>(s.dpu_retries);
    c.demoted = s.demoted_to_unfused ? 1 : 0;
    c.tile_pool_misses = static_cast<double>(s.tile_pool.misses);
    c.arena_high_water = static_cast<double>(s.arena.high_water);
    return c;
  }

  void Add(const core::ExecutionStats& s) { Merge(Of(s)); }

  void AddPlan(const core::PhysicalPlan& plan) {
    plan_steps += static_cast<double>(plan.steps.size());
    for (const auto& step : plan.steps) {
      if (dynamic_cast<const core::PipelineStep*>(step.get()) != nullptr) {
        ++plan_pipelines;
      }
    }
  }

  void Merge(const EngineCounters& o) {
    modeled_s += o.modeled_s;
    compute_cycles += o.compute_cycles;
    dms_cycles += o.dms_cycles;
    for (int k = 0; k < kNumKinds; ++k) {
      kind_modeled_s[k] += o.kind_modeled_s[k];
      kind_rows[k] += o.kind_rows[k];
    }
    work.scanned_rows += o.work.scanned_rows;
    work.groupby_repartitions += o.work.groupby_repartitions;
    work.scanned_bytes += o.work.scanned_bytes;
    work.partitioned_rows += o.work.partitioned_rows;
    work.join_build_rows += o.work.join_build_rows;
    work.join_probe_rows += o.work.join_probe_rows;
    work.agg_rows += o.work.agg_rows;
    work.sorted_rows += o.work.sorted_rows;
    imbalance_max += o.imbalance_max;
    imbalance_mean += o.imbalance_mean;
    steals += o.steals;
    encoded_bytes += o.encoded_bytes;
    plain_bytes += o.plain_bytes;
    runs_filtered += o.runs_filtered;
    join_filter_built += o.join_filter_built;
    join_filter_pruned += o.join_filter_pruned;
    dpu_retries += o.dpu_retries;
    demoted += o.demoted;
    tile_pool_misses += o.tile_pool_misses;
    arena_high_water = std::max(arena_high_water, o.arena_high_water);
    plan_steps += o.plan_steps;
    plan_pipelines += o.plan_pipelines;
  }
};

// Figure 14 perf/watt advantage of one query, as bench_tpch_perfwatt
// computes it: System X's analytical Xeon time over the modeled DPU
// time.
double PerfPerWatt(const EngineCounters& q) {
  const dpu::PowerModel power;
  return power.PerfPerWattRatio(bench::XeonModel().Seconds(q.work) / q.modeled_s,
                                1.0);
}

// ---- Result checking -------------------------------------------------------

// Order-insensitive canonical form of a result: column names plus the
// sorted bag of rows.
struct Canonical {
  std::vector<std::string> names;
  std::vector<std::vector<int64_t>> rows;
  bool operator==(const Canonical&) const = default;
};

Canonical Canonicalize(const core::ColumnSet& set) {
  Canonical c;
  for (size_t col = 0; col < set.num_columns(); ++col) {
    c.names.push_back(set.meta(col).name);
  }
  c.rows.resize(set.num_rows());
  for (size_t r = 0; r < set.num_rows(); ++r) {
    c.rows[r].reserve(set.num_columns());
    for (size_t col = 0; col < set.num_columns(); ++col) {
      c.rows[r].push_back(set.Value(r, col));
    }
  }
  std::sort(c.rows.begin(), c.rows.end());
  return c;
}

// Tallies attempted and failed operations; a failure is a non-OK
// status or a result that differs from the oracle.
struct Outcomes {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Fail(const std::string& what) {
    ++failed;
    if (failed <= 5) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
  // Counts one operation; returns true when it succeeded.
  bool Check(const Status& status, const std::string& what) {
    ++attempted;
    if (status.ok()) return true;
    Fail(what + ": " + status.ToString());
    return false;
  }
  void Compare(const core::ColumnSet& got, const core::ColumnSet& want,
               const std::string& what) {
    if (!(Canonicalize(got) == Canonicalize(want))) {
      Fail(what + ": result differs from the Volcano oracle");
    }
  }
};

// ---- Query paths -----------------------------------------------------------

// Per-call layer timings the benchmark measures around public calls.
struct CallTimes {
  double plan_s = 0;     // Planner::Plan
  double execute_s = 0;  // RapidEngine::ExecutePhysical
};

// RAPID path. Untraced passes call tpch::RunOnRapid, which runs every
// fragment through RapidEngine::Execute, the path programs use; only
// the modeled time and workload volumes are kept. Traced passes split
// each fragment into Planner::Plan and RapidEngine::ExecutePhysical
// (what Execute does on a fault-free run) so the two layers can be
// timed apart, and keep every ExecutionStats counter; `plans` receives
// the fragments' logical plans. Both apply the host post step.
Result<core::ColumnSet> RunRapid(core::RapidEngine& engine,
                                 const tpch::TpchQuery& query, bool traced,
                                 SpanLog& spans, int qid,
                                 EngineCounters* counters, CallTimes* times,
                                 std::vector<core::LogicalPtr>* plans) {
  if (!traced) {
    RAPID_ASSIGN_OR_RETURN(tpch::QueryRun run, tpch::RunOnRapid(engine, query));
    EngineCounters c;
    c.modeled_s = run.modeled_dpu_seconds;
    c.work = run.workload;
    counters->Merge(c);
    return std::move(run.result);
  }
  const core::ExecOptions options;
  std::vector<core::ColumnSet> results;
  for (const auto& fragment : query.fragments) {
    RAPID_ASSIGN_OR_RETURN(core::LogicalPtr plan,
                           fragment(engine.catalog(), results));
    Clock::time_point start = Clock::now();
    Result<core::PhysicalPlan> physical = [&] {
      ScopedSpan span(spans, "qcomp.plan", qid);
      core::Planner planner(engine.dpu().config(), engine.dpu().params(),
                            options.planner);
      return planner.Plan(plan, engine.catalog());
    }();
    times->plan_s += Since(start);
    RAPID_RETURN_NOT_OK(physical.status());
    start = Clock::now();
    Result<core::QueryResult> result = [&] {
      ScopedSpan span(spans, "core.execute_physical", qid);
      return engine.ExecutePhysical(physical.value(), options);
    }();
    times->execute_s += Since(start);
    RAPID_RETURN_NOT_OK(result.status());
    counters->Add(result.value().stats);
    counters->AddPlan(physical.value());
    plans->push_back(std::move(plan));
    results.push_back(std::move(result.value().rows));
  }
  ScopedSpan span(spans, "tpch.post", qid);
  return query.post ? query.post(results) : std::move(results.back());
}

// Volcano path (System X only): tpch::RunOnHost, every fragment through
// HostDatabase::ExecuteLocal, then the host post step.
Result<core::ColumnSet> RunVolcano(hostdb::HostDatabase& host,
                                   const tpch::TpchQuery& query) {
  RAPID_ASSIGN_OR_RETURN(tpch::QueryRun run, tpch::RunOnHost(host, query));
  return std::move(run.result);
}

// What one query through HostDatabase::ExecuteQuery reported.
struct OffloadTally {
  double rapid_wall_s = 0;
  double host_wall_s = 0;
  double fell_back = 0;
  double not_offloaded = 0;
};

// Offload path: every fragment through HostDatabase::ExecuteQuery (the
// offload decision, RapidOperator and the host post-processing), then
// the query's post step.
Result<core::ColumnSet> RunOffload(hostdb::HostDatabase& host,
                                   core::RapidEngine& engine,
                                   const tpch::TpchQuery& query,
                                   SpanLog& spans, int qid,
                                   OffloadTally* tally,
                                   EngineCounters* counters,
                                   std::vector<core::LogicalPtr>* plans) {
  std::vector<core::ColumnSet> results;
  for (const auto& fragment : query.fragments) {
    RAPID_ASSIGN_OR_RETURN(core::LogicalPtr plan,
                           fragment(host.catalog(), results));
    Result<hostdb::QueryReport> report = [&] {
      ScopedSpan span(spans, "hostdb.execute_query", qid);
      return host.ExecuteQuery(plan, &engine);
    }();
    RAPID_RETURN_NOT_OK(report.status());
    hostdb::QueryReport& r = report.value();
    tally->rapid_wall_s += r.rapid_wall_seconds;
    tally->host_wall_s += r.host_wall_seconds;
    tally->fell_back += r.fell_back ? 1 : 0;
    tally->not_offloaded += r.offloaded ? 0 : 1;
    if (r.offloaded && !r.fell_back) counters->Add(r.rapid_stats);
    plans->push_back(std::move(plan));
    results.push_back(std::move(r.rows));
  }
  ScopedSpan span(spans, "tpch.post", qid);
  return query.post ? query.post(results) : std::move(results.back());
}

// Traced-only probes of the planning layers, on plans the timed path
// already built: OffloadPlanner::Decide (always) and Planner::Plan
// (when `times` and `plan_counters` are non-null). Runs outside every
// timed region.
void ProbePlanning(hostdb::HostDatabase& host, core::RapidEngine& engine,
                   const std::vector<core::LogicalPtr>& plans, SpanLog& spans,
                   int qid, std::vector<double>* decide_ms,
                   CallTimes* times, EngineCounters* plan_counters,
                   Outcomes* outcomes) {
  const hostdb::OffloadPlanner offload(engine.dpu().config(),
                                       engine.dpu().params());
  for (const core::LogicalPtr& plan : plans) {
    Clock::time_point start = Clock::now();
    {
      ScopedSpan span(spans, "hostdb.offload_decide", qid);
      (void)offload.Decide(plan, engine, host.catalog());
    }
    decide_ms->push_back(Since(start) * 1e3);
    if (plan_counters == nullptr) continue;
    start = Clock::now();
    Result<core::PhysicalPlan> physical = [&] {
      ScopedSpan span(spans, "qcomp.plan", qid);
      core::Planner planner(engine.dpu().config(), engine.dpu().params());
      return planner.Plan(plan, engine.catalog());
    }();
    times->plan_s += Since(start);
    if (outcomes->Check(physical.status(), "Planner::Plan")) {
      plan_counters->AddPlan(physical.value());
    }
  }
}

// ---- Set-up ----------------------------------------------------------------

struct Loaded {
  std::unique_ptr<core::RapidEngine> engine;
  std::unique_ptr<hostdb::HostDatabase> host;  // destroyed first
};

struct SetupTimes {
  double total_s = 0;
  double generate_s = 0;
  double create_table_s = 0;
  double load_to_rapid_s = 0;
};

void Fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

// tpch::LoadTpch, phase by phase: generate, host CreateTable and
// LoadToRapid for all eight tables. `keep` (optional) receives the
// generated tables.
Loaded Setup(double sf, uint64_t seed, SpanLog& spans, SetupTimes* t,
             std::vector<tpch::TableData>* keep) {
  ScopedSpan setup_span(spans, "setup");
  const Clock::time_point start = Clock::now();
  Loaded env;
  env.engine = std::make_unique<core::RapidEngine>();
  env.engine->dpu().SetInlineExecution(true);
  env.host = std::make_unique<hostdb::HostDatabase>();

  Clock::time_point phase = Clock::now();
  std::vector<tpch::TableData> tables;
  {
    ScopedSpan span(spans, "tpch.generate");
    tables = tpch::TpchGenerator(sf, seed).AllTables();
  }
  t->generate_s = Since(phase);
  storage::LoadOptions options;
  options.rows_per_chunk = kRowsPerChunk;
  for (const tpch::TableData& table : tables) {
    phase = Clock::now();
    Status st = [&] {
      ScopedSpan span(spans, "hostdb.create_table");
      return env.host->CreateTable(table.name, table.specs, table.data,
                                   options);
    }();
    t->create_table_s += Since(phase);
    if (!st.ok()) Fatal("CreateTable " + table.name + ": " + st.ToString());
    phase = Clock::now();
    st = [&] {
      ScopedSpan span(spans, "hostdb.load_to_rapid");
      return env.host->LoadToRapid(table.name, env.engine.get());
    }();
    t->load_to_rapid_s += Since(phase);
    if (!st.ok()) Fatal("LoadToRapid " + table.name + ": " + st.ToString());
  }
  t->total_s = Since(start);
  if (keep != nullptr) *keep = std::move(tables);
  return env;
}

// Times the storage layer's public load phases on the generated tables:
// LoadTable, Table::RecomputeStats and BuildTableEncodings.
void ProbeStorage(const std::vector<tpch::TableData>& tables, SpanLog& spans,
                  Metrics* layers) {
  double load_s = 0;
  double stats_s = 0;
  double encode_s = 0;
  storage::LoadOptions options;
  options.rows_per_chunk = kRowsPerChunk;
  for (const tpch::TableData& data : tables) {
    Clock::time_point start = Clock::now();
    Result<storage::Table> loaded = [&] {
      ScopedSpan span(spans, "storage.load_table");
      return storage::LoadTable(data.name, data.specs, data.data, options);
    }();
    load_s += Since(start);
    if (!loaded.ok()) Fatal("LoadTable: " + loaded.status().ToString());
    storage::Table& table = loaded.value();
    start = Clock::now();
    {
      ScopedSpan span(spans, "storage.recompute_stats");
      table.RecomputeStats();
    }
    stats_s += Since(start);
    start = Clock::now();
    {
      ScopedSpan span(spans, "storage.build_encodings");
      (void)storage::BuildTableEncodings(&table);
    }
    encode_s += Since(start);
  }
  layers->Add("storage.load_table_s", load_s, "s");
  layers->Add("storage.recompute_stats_s", stats_s, "s");
  layers->Add("storage.build_encodings_s", encode_s, "s");
}

// ---- Workloads -------------------------------------------------------------

struct Workload {
  const char* name;
  std::vector<std::string> queries;
  bool refresh;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> all = {
      {"tpch_scan", {"Q1", "Q6", "Q11", "Q12", "Q14", "Q19"}, false},
      {"tpch_join", {"Q3", "Q4", "Q5", "Q10", "Q18"}, false},
      {"tpch_refresh", {"Q6", "Q14"}, true},
  };
  return all;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string query;  // single-query mode ("" = whole workload)
  std::string spans_path;
};

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

// Per-query samples and first-recorded-pass counters.
struct QueryStats {
  std::string name;
  tpch::TpchQuery query;
  std::vector<double> rapid_ms;
  std::vector<double> volcano_ms;
  EngineCounters first;
  bool have_first = false;
};

// Samples every workload records per recorded pass (iteration on
// refresh): the wall time of its RAPID side and of its Volcano side.
struct PassSamples {
  std::vector<double> rapid_ms[2];  // [traced]
  std::vector<double> volcano_ms;
  std::vector<double> rapid_norm_ms;  // at the reference host speed
  std::vector<double> volcano_norm_ms;
  std::vector<double> probe_ms;
  // Traced passes: the share of the RAPID side's query time spent inside
  // the engine calls. At most 1, since those intervals nest in it.
  std::vector<double> engine_share;
  double first_modeled_s = 0;  // modeled DPU time of the first pass

  void Record(bool traced, double rapid_s, double volcano_s, double probe) {
    rapid_ms[traced ? 1 : 0].push_back(rapid_s * 1e3);
    volcano_ms.push_back(volcano_s * 1e3);
    rapid_norm_ms.push_back(HostProbe::Normalize(rapid_s * 1e3, probe));
    volcano_norm_ms.push_back(HostProbe::Normalize(volcano_s * 1e3, probe));
    probe_ms.push_back(probe);
  }

  std::vector<double> AllRapidMs() const {
    std::vector<double> all = rapid_ms[0];
    all.insert(all.end(), rapid_ms[1].begin(), rapid_ms[1].end());
    return all;
  }
};

// Reports what every workload shares: the wall-clock and modeled
// end-to-end metrics, the per-query layer metrics and, on traced runs,
// the tracing overhead (traced minus untraced median RAPID-side pass).
void ReportPasses(const PassSamples& p, const std::vector<QueryStats>& qs,
                  bool trace, Metrics* e2e, Metrics* layers) {
  const std::vector<double> all_rapid = p.AllRapidMs();
  std::vector<double> speedups;
  double ppw_sum = 0;
  for (const QueryStats& q : qs) {
    if (q.rapid_ms.empty() || q.volcano_ms.empty() || !q.have_first) continue;
    speedups.push_back(Median(q.volcano_ms) / Median(q.rapid_ms));
    ppw_sum += PerfPerWatt(q.first);
  }
  e2e->Add("rapid_pass_norm_ms_p50", Median(p.rapid_norm_ms), "ms");
  e2e->Add("volcano_pass_norm_ms_p50", Median(p.volcano_norm_ms), "ms");
  e2e->Add("rapid_pass_ms_p50", Median(all_rapid), "ms");
  e2e->Add("rapid_pass_ms_p90", Quantile(all_rapid, 0.9), "ms");
  e2e->Add("volcano_pass_ms_p50", Median(p.volcano_ms), "ms");
  e2e->Add("volcano_pass_ms_p90", Quantile(p.volcano_ms, 0.9), "ms");
  e2e->Add("x86_speedup_geomean", GeoMean(speedups), "ratio");
  e2e->Add("modeled_dpu_ms", p.first_modeled_s * 1e3, "ms");
  e2e->Add("perf_per_watt_x",
           speedups.empty() ? 0 : ppw_sum / static_cast<double>(speedups.size()),
           "ratio");
  e2e->Add("probe_ms_p50", Median(p.probe_ms), "ms");
  e2e->Add("passes", static_cast<double>(all_rapid.size()), "count");

  for (const QueryStats& q : qs) {
    const std::string prefix = "tpch." + Lower(q.name);
    layers->Add(prefix + ".rapid_ms_p50", Median(q.rapid_ms), "ms");
    layers->Add(prefix + ".volcano_ms_p50", Median(q.volcano_ms), "ms");
    layers->Add(prefix + ".modeled_ms", q.first.modeled_s * 1e3, "ms");
  }
  if (trace) {
    const double untraced = Median(p.rapid_ms[0]);
    const double traced = Median(p.rapid_ms[1]);
    layers->Add("bench.engine_share", Median(p.engine_share), "ratio");
    layers->Add("trace.untraced_pass_ms_p50", untraced, "ms");
    layers->Add("trace.traced_pass_ms_p50", traced, "ms");
    layers->Add("trace.overhead_ms", traced - untraced, "ms");
  }
}

// Adds the engine-counter metrics shared by every workload; `per_pass`
// holds one pass's (or iteration's) counters and `run` the whole run's.
void AddCounterLayers(const EngineCounters& per_pass,
                      const EngineCounters& run, double passes,
                      Metrics* layers) {
  layers->Add("qcomp.steps", per_pass.plan_steps, "count");
  layers->Add("qcomp.pipelines", per_pass.plan_pipelines, "count");
  for (int k = 0; k < kNumKinds; ++k) {
    const std::string kind = kKindNames[k];
    layers->Add("core." + kind + ".modeled_ms",
                per_pass.kind_modeled_s[k] * 1e3, "ms");
    layers->Add("core." + kind + ".rows_out", per_pass.kind_rows[k], "count");
  }
  const core::WorkloadCounters& w = per_pass.work;
  layers->Add("core.scanned_rows", static_cast<double>(w.scanned_rows),
              "count");
  layers->Add("core.partitioned_rows",
              static_cast<double>(w.partitioned_rows), "count");
  layers->Add("core.join_build_rows", static_cast<double>(w.join_build_rows),
              "count");
  layers->Add("core.join_probe_rows", static_cast<double>(w.join_probe_rows),
              "count");
  layers->Add("core.agg_rows", static_cast<double>(w.agg_rows), "count");
  layers->Add("core.sorted_rows", static_cast<double>(w.sorted_rows),
              "count");
  layers->Add("core.groupby_repartitions",
              static_cast<double>(w.groupby_repartitions), "count");
  layers->Add("core.join_filter.rows_pruned", per_pass.join_filter_pruned,
              "count");
  layers->Add("core.join_filter.built", per_pass.join_filter_built, "count");
  layers->Add("core.dpu_retries", run.dpu_retries, "count");
  layers->Add("core.demoted_to_unfused", run.demoted, "count");
  layers->Add("dpu.compute_cycles", per_pass.compute_cycles, "cycles");
  layers->Add("dpu.dms_cycles", per_pass.dms_cycles, "cycles");
  layers->Add("dpu.imbalance_ratio",
              per_pass.imbalance_mean > 0
                  ? per_pass.imbalance_max / per_pass.imbalance_mean
                  : 1.0,
              "ratio");
  layers->Add("dpu.steals", per_pass.steals, "count");
  layers->Add("dpu.encoded_bytes_moved", per_pass.encoded_bytes, "bytes");
  layers->Add("dpu.plain_bytes_moved", per_pass.plain_bytes, "bytes");
  layers->Add("dpu.runs_filtered", per_pass.runs_filtered, "count");
  layers->Add("common.tile_pool.misses",
              passes > 0 ? run.tile_pool_misses / passes : 0, "count");
  layers->Add("common.arena.high_water_mib",
              run.arena_high_water / (1024.0 * 1024.0), "MiB");
}

// Shared state of one measured run.
struct Run {
  const Args& args;
  Loaded& env;
  SpanLog& spans;
  Outcomes outcomes;
  Metrics e2e;
  Metrics layers;
  HostProbe& probe;
};

// tpch_scan / tpch_join: passes of the workload's queries, back to back
// on RAPID and then on Volcano, checked after each pass.
void RunQueryWorkload(Run& run, std::vector<QueryStats>& qs) {
  core::RapidEngine& engine = *run.env.engine;
  hostdb::HostDatabase& host = *run.env.host;
  PassSamples samples;
  std::vector<double> op_pass_ms;  // RAPID + Volcano time of each pass
  // Traced passes only: the layer split and the full engine counters.
  std::vector<double> plan_ms;
  std::vector<double> execute_ms;
  std::vector<double> decide_ms;
  EngineCounters first_traced;
  EngineCounters all_traced;
  int traced_passes = 0;
  int recorded = 0;
  int warmups = 0;
  const Clock::time_point warm_start = Clock::now();
  Clock::time_point loop_start = warm_start;
  while (run.outcomes.failed == 0) {
    // Unrecorded warm-up passes first: the first seconds after set-up
    // run up to 2x slower on tpch_join while the process's memory
    // settles.
    const bool record = warmups > 0 && Since(warm_start) >= kWarmupSeconds;
    if (!record) {
      ++warmups;
    } else if (recorded == 0) {
      loop_start = Clock::now();
    } else if (recorded >= kMinPasses &&
               Since(loop_start) >= run.args.seconds) {
      break;
    }
    // Traced runs alternate untraced and traced passes; the difference
    // of their medians is the tracing overhead.
    const bool traced = run.args.trace && record && recorded % 2 == 1;
    run.spans.set_enabled(traced);
    std::vector<core::ColumnSet> rapid_rows(qs.size());
    std::vector<bool> rapid_ok(qs.size());
    std::vector<std::vector<core::LogicalPtr>> plans(qs.size());
    std::vector<int> qids(qs.size());
    EngineCounters pass_counters;
    CallTimes times;
    double rapid_s = 0;
    double volcano_s = 0;
    const double probe = run.probe.RunMs();
    for (size_t i = 0; i < qs.size(); ++i) {
      qids[i] = run.spans.NewQueryId();
      EngineCounters counters;
      const Clock::time_point start = Clock::now();
      Result<core::ColumnSet> rows = [&] {
        ScopedSpan span(run.spans, "tpch." + qs[i].name + ".rapid", qids[i]);
        return RunRapid(engine, qs[i].query, traced, run.spans, qids[i],
                        &counters, &times, &plans[i]);
      }();
      const double seconds = Since(start);
      rapid_s += seconds;
      rapid_ok[i] =
          run.outcomes.Check(rows.status(), qs[i].name + " on RAPID");
      if (!rapid_ok[i]) continue;
      rapid_rows[i] = std::move(rows.value());
      pass_counters.Merge(counters);
      if (!record) continue;
      qs[i].rapid_ms.push_back(seconds * 1e3);
      if (!qs[i].have_first) {
        qs[i].first = counters;
        qs[i].have_first = true;
      }
    }
    for (size_t i = 0; i < qs.size(); ++i) {
      const Clock::time_point start = Clock::now();
      Result<core::ColumnSet> rows = [&] {
        ScopedSpan span(run.spans, "tpch." + qs[i].name + ".volcano",
                        qids[i]);
        return RunVolcano(host, qs[i].query);
      }();
      const double seconds = Since(start);
      volcano_s += seconds;
      if (!run.outcomes.Check(rows.status(), qs[i].name + " on Volcano")) {
        continue;
      }
      if (record) qs[i].volcano_ms.push_back(seconds * 1e3);
      // Correctness, outside the timed region.
      if (rapid_ok[i]) {
        run.outcomes.Compare(rapid_rows[i], rows.value(), qs[i].name);
      }
    }
    if (traced) {
      for (size_t i = 0; i < qs.size(); ++i) {
        ProbePlanning(host, engine, plans[i], run.spans, qids[i], &decide_ms,
                      nullptr, nullptr, &run.outcomes);
      }
    }
    if (!record) continue;
    ++recorded;
    samples.Record(traced, rapid_s, volcano_s, probe);
    op_pass_ms.push_back((rapid_s + volcano_s) * 1e3);
    if (recorded == 1) samples.first_modeled_s = pass_counters.modeled_s;
    if (traced) {
      plan_ms.push_back(times.plan_s * 1e3);
      execute_ms.push_back(times.execute_s * 1e3);
      samples.engine_share.push_back((times.plan_s + times.execute_s) /
                                     rapid_s);
      if (traced_passes++ == 0) first_traced = pass_counters;
      all_traced.Merge(pass_counters);
    }
  }
  run.spans.set_enabled(false);

  ReportPasses(samples, qs, run.args.trace, &run.e2e, &run.layers);
  // Queries on both engines per second of a median pass.
  run.e2e.Add("ops_per_s",
              2e3 * static_cast<double>(qs.size()) / Median(op_pass_ms),
              "1/s");
  run.e2e.Add("warmup_passes", warmups, "count");

  Metrics& layers = run.layers;
  layers.Add("hostdb.offload_decide_ms_p50", Median(decide_ms), "ms");
  layers.Add("qcomp.plan_ms", Median(plan_ms), "ms");
  layers.Add("core.execute_ms", Median(execute_ms), "ms");
  AddCounterLayers(first_traced, all_traced, traced_passes, &layers);
}

// Reads one cell of `table` by global row number (the loader's
// round-robin chunk geometry; see storage::Table::rows_per_chunk).
int64_t CellAt(const storage::Table& table, uint64_t row, size_t col) {
  const size_t chunk_index = static_cast<size_t>(row) / table.rows_per_chunk();
  const size_t partition = chunk_index % table.num_partitions();
  const size_t chunk = chunk_index / table.num_partitions();
  return table.partition(partition)
      .chunk(chunk)
      .column(col)
      .GetInt(static_cast<size_t>(row) % table.rows_per_chunk());
}

// Seeded lineitem update stream. Every batch names distinct rows
// (Tracker::ApplyUpdate cannot take a row twice in one batch), and
// every new value is copied from another row of the same column, so
// dictionary codes, DSB scales and min/max statistics stay valid.
class UpdateStream {
 public:
  explicit UpdateStream(uint64_t seed) : rng_(seed * 0x9E3779B97F4A7C15ULL) {}

  std::vector<storage::RowChange> Next(const storage::Table& table,
                                       size_t batch) {
    const uint64_t rows = table.num_rows();
    const size_t cols = table.schema().num_fields();
    std::uniform_int_distribution<uint64_t> pick(0, rows - 1);
    std::unordered_set<uint64_t> seen;
    std::vector<storage::RowChange> changes;
    while (changes.size() < batch && changes.size() < rows) {
      const uint64_t id = pick(rng_);
      if (!seen.insert(id).second) continue;
      storage::RowChange change;
      change.row_id = id;
      change.values.resize(cols);
      for (size_t c = 0; c < cols; ++c) {
        change.values[c] = CellAt(table, pick(rng_), c);
      }
      changes.push_back(std::move(change));
    }
    return changes;
  }

 private:
  std::mt19937_64 rng_;
};

// tpch_refresh: a single-client closed loop. Each iteration applies one
// lineitem batch (Update, Checkpoint, VacuumTrackers), then runs the
// workload's queries through ExecuteQuery and, as the oracle,
// ExecuteLocal at the same SCN.
void RunRefreshWorkload(Run& run, std::vector<QueryStats>& qs) {
  core::RapidEngine& engine = *run.env.engine;
  hostdb::HostDatabase& host = *run.env.host;
  const storage::Table* lineitem = host.GetTable("lineitem");
  if (lineitem == nullptr) Fatal("lineitem is not loaded");
  UpdateStream stream(run.args.seed);

  PassSamples samples;
  std::vector<double> update_ms;          // Update + Checkpoint
  std::vector<double> host_update_ms;     // Update alone
  std::vector<double> checkpoint_ms;
  std::vector<double> query_ms;           // every ExecuteQuery-path query
  std::vector<double> rapid_wall_ms;
  std::vector<double> host_wall_ms;
  std::vector<double> plan_ms;
  std::vector<double> decide_ms;
  // Counters of the first measured iteration (deterministic for a seed:
  // the warm-up count is fixed) and of the whole run.
  EngineCounters first_iteration;
  EngineCounters all_iterations;
  EngineCounters first_plans;  // traced Planner::Plan probe, one iteration
  double fell_back = 0;
  double not_offloaded = 0;
  double reclaimed = 0;
  int recorded = 0;
  Clock::time_point loop_start = Clock::now();
  for (int iter = -kRefreshWarmups; run.outcomes.failed == 0; ++iter) {
    const bool record = iter >= 0;  // negative iterations warm up
    if (iter == 0) {
      loop_start = Clock::now();
    } else if (record && recorded >= kMinPasses &&
               Since(loop_start) >= run.args.seconds) {
      break;
    }
    const bool traced = run.args.trace && record && recorded % 2 == 1;
    run.spans.set_enabled(traced);
    std::vector<storage::RowChange> batch = stream.Next(*lineitem, kBatchRows);
    const double probe = run.probe.RunMs();

    const Clock::time_point write_start = Clock::now();
    Status st = [&] {
      ScopedSpan span(run.spans, "hostdb.update");
      return host.Update("lineitem", std::move(batch));
    }();
    const double update_s = Since(write_start);
    if (!run.outcomes.Check(st, "Update")) continue;
    Clock::time_point start = Clock::now();
    st = [&] {
      ScopedSpan span(run.spans, "hostdb.checkpoint");
      return host.Checkpoint(&engine);
    }();
    const double checkpoint_s = Since(start);
    if (!run.outcomes.Check(st, "Checkpoint")) continue;
    {
      ScopedSpan span(run.spans, "core.vacuum_trackers");
      reclaimed += static_cast<double>(
          engine.VacuumTrackers(host.journal().current_scn()));
    }
    const double write_s = Since(write_start);

    double offload_s = 0;
    double local_s = 0;
    OffloadTally tally;
    EngineCounters iteration;
    std::vector<std::vector<core::LogicalPtr>> plans(qs.size());
    std::vector<core::ColumnSet> rows(qs.size());
    std::vector<bool> ok(qs.size());
    std::vector<int> qids(qs.size());
    for (size_t i = 0; i < qs.size(); ++i) {
      qids[i] = run.spans.NewQueryId();
      EngineCounters counters;
      start = Clock::now();
      Result<core::ColumnSet> result = [&] {
        ScopedSpan span(run.spans, "tpch." + qs[i].name + ".offload",
                        qids[i]);
        return RunOffload(host, engine, qs[i].query, run.spans, qids[i],
                          &tally, &counters, &plans[i]);
      }();
      const double seconds = Since(start);
      offload_s += seconds;
      ok[i] = run.outcomes.Check(result.status(),
                                 qs[i].name + " through ExecuteQuery");
      if (!ok[i]) continue;
      rows[i] = std::move(result.value());
      iteration.Merge(counters);
      if (!record) continue;
      qs[i].rapid_ms.push_back(seconds * 1e3);
      query_ms.push_back(seconds * 1e3);
      if (!qs[i].have_first) {
        qs[i].first = counters;
        qs[i].have_first = true;
      }
    }
    for (size_t i = 0; i < qs.size(); ++i) {
      start = Clock::now();
      Result<core::ColumnSet> oracle = [&] {
        ScopedSpan span(run.spans, "tpch." + qs[i].name + ".volcano",
                        qids[i]);
        return RunVolcano(host, qs[i].query);
      }();
      const double seconds = Since(start);
      local_s += seconds;
      if (!run.outcomes.Check(oracle.status(),
                              qs[i].name + " through ExecuteLocal")) {
        continue;
      }
      if (record) qs[i].volcano_ms.push_back(seconds * 1e3);
      if (ok[i]) {
        run.outcomes.Compare(rows[i], oracle.value(),
                             qs[i].name + " at SCN " +
                                 std::to_string(host.journal().current_scn()));
      }
    }
    if (traced) {
      CallTimes probe_times;
      EngineCounters iteration_plans;
      for (size_t i = 0; i < qs.size(); ++i) {
        ProbePlanning(host, engine, plans[i], run.spans, qids[i], &decide_ms,
                      &probe_times, &iteration_plans, &run.outcomes);
      }
      plan_ms.push_back(probe_times.plan_s * 1e3);
      if (plan_ms.size() == 1) first_plans = iteration_plans;
    }
    if (!record) continue;
    ++recorded;
    samples.Record(traced, write_s + offload_s, update_s + local_s, probe);
    if (traced) samples.engine_share.push_back(tally.rapid_wall_s / offload_s);
    update_ms.push_back((update_s + checkpoint_s) * 1e3);
    host_update_ms.push_back(update_s * 1e3);
    checkpoint_ms.push_back(checkpoint_s * 1e3);
    rapid_wall_ms.push_back(tally.rapid_wall_s * 1e3);
    host_wall_ms.push_back(tally.host_wall_s * 1e3);
    fell_back += tally.fell_back;
    not_offloaded += tally.not_offloaded;
    if (recorded == 1) {
      first_iteration = iteration;
      samples.first_modeled_s = iteration.modeled_s;
    }
    all_iterations.Merge(iteration);
  }
  run.spans.set_enabled(false);

  ReportPasses(samples, qs, run.args.trace, &run.e2e, &run.layers);
  const double queries_run = static_cast<double>(recorded * qs.size());
  Metrics& e2e = run.e2e;
  // One update batch plus the queries, per second of a median iteration.
  e2e.Add("ops_per_s",
          1e3 * (1.0 + static_cast<double>(qs.size())) /
              Median(samples.AllRapidMs()),
          "1/s");
  e2e.Add("update_ms_p50", Median(update_ms), "ms");
  e2e.Add("update_ms_p90", Quantile(update_ms, 0.9), "ms");
  e2e.Add("refresh_query_ms_p50", Median(query_ms), "ms");
  e2e.Add("refresh_query_ms_p90", Quantile(query_ms, 0.9), "ms");
  e2e.Add("fallback_frac", queries_run > 0 ? fell_back / queries_run : 0,
          "ratio");
  e2e.Add("not_offloaded_frac",
          queries_run > 0 ? not_offloaded / queries_run : 0, "ratio");

  Metrics& layers = run.layers;
  const storage::Tracker* tracker = engine.tracker("lineitem");
  layers.Add("storage.tracker_units",
             tracker != nullptr ? static_cast<double>(tracker->num_units()) : 0,
             "count");
  layers.Add("storage.vacuum_reclaimed", reclaimed, "count");
  layers.Add("hostdb.update_ms_p50", Median(host_update_ms), "ms");
  layers.Add("hostdb.checkpoint_ms_p50", Median(checkpoint_ms), "ms");
  layers.Add("hostdb.offload_decide_ms_p50", Median(decide_ms), "ms");
  layers.Add("hostdb.rapid_wall_ms_p50", Median(rapid_wall_ms), "ms");
  layers.Add("hostdb.host_wall_ms_p50", Median(host_wall_ms), "ms");
  layers.Add("hostdb.fell_back", fell_back, "count");
  layers.Add("qcomp.plan_ms", Median(plan_ms), "ms");
  // ExecuteQuery runs the engine behind RapidOperator; QueryReport's
  // rapid_wall_seconds is the time spent there.
  layers.Add("core.execute_ms", Median(rapid_wall_ms), "ms");
  first_iteration.plan_steps = first_plans.plan_steps;
  first_iteration.plan_pipelines = first_plans.plan_pipelines;
  AddCounterLayers(first_iteration, all_iterations, recorded, &layers);
}

// ---- Driver ----------------------------------------------------------------

void Usage() {
  std::fprintf(stderr,
               "usage: tpch_bench --workload tpch_scan|tpch_join|tpch_refresh"
               " --seed N --seconds S --trace 0|1 [--query QN]"
               " [--spans PATH]\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage();
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(v);
    } else if (flag == "--trace") {
      a.trace = std::atoi(v) != 0;
    } else if (flag == "--query") {
      a.query = v;
    } else if (flag == "--spans") {
      a.spans_path = v;
    } else {
      Usage();
    }
  }
  if (a.workload.empty()) Usage();
  return a;
}

// Accepts "Q5", "q5" or "5" (the `pragma tpch(5)` form).
std::string QueryName(const std::string& s) {
  if (!s.empty() && (s[0] == 'Q' || s[0] == 'q')) return "Q" + s.substr(1);
  return "Q" + s;
}

std::string EnvOr(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && *v ? v : "unset";
}

std::string ConfigHeader(const Args& a, const Workload& w) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "workload=%s query=%s sf=%g seed=%llu seconds=%g trace=%d setups=%d "
      "simd=%s RAPID_ENCODED_SCAN=%s RAPID_JOIN_FILTER=%s RAPID_SCHED=%s "
      "RAPID_CORES=%s dpcores=%d inline=1 checkpointer=off",
      w.name, a.query.empty() ? "all" : QueryName(a.query).c_str(),
      kScaleFactor, static_cast<unsigned long long>(a.seed), a.seconds,
      a.trace ? 1 : 0, kSetups, SimdLevelName(SimdLevelActive()),
      EnvOr("RAPID_ENCODED_SCAN").c_str(), EnvOr("RAPID_JOIN_FILTER").c_str(),
      EnvOr("RAPID_SCHED").c_str(), EnvOr("RAPID_CORES").c_str(),
      dpu::DpuConfig::Default().num_cores);
  return buf;
}

// getrusage max RSS, less what the host-speed probe keeps resident.
double PeakRssMiB(const HostProbe& probe) {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  const double kib = static_cast<double>(usage.ru_maxrss);  // KiB on Linux
  return (kib - static_cast<double>(probe.ResidentBytes()) / 1024.0) / 1024.0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload* workload = nullptr;
  for (const Workload& w : Workloads()) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) Fatal("unknown workload '" + args.workload + "'");
  std::vector<QueryStats> qs;
  for (const std::string& name : workload->queries) {
    if (!args.query.empty() && QueryName(args.query) != name) continue;
    Result<tpch::TpchQuery> query = tpch::BuildQuery(name);
    if (!query.ok()) Fatal(name + ": " + query.status().ToString());
    qs.push_back(QueryStats{name, std::move(query.value()), {}, {}, {}, false});
  }
  if (qs.empty()) {
    Fatal("query '" + args.query + "' is not part of " + args.workload);
  }
  const std::string header = ConfigHeader(args, *workload);
  std::printf("# perfbench tpch: %s\n", header.c_str());
  std::fflush(stdout);

  SpanLog spans;
  spans.set_enabled(args.trace);
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::vector<double> create_s;
  std::vector<double> load_s;
  std::vector<tpch::TableData> tables;
  Loaded env;
  std::vector<double> setup_norm_s;
  HostProbe probe;
  for (int i = 0; i < kSetups; ++i) {
    // Release the previous copy, and hand its pages back to the OS so
    // peak RSS reflects one copy rather than allocator fragmentation.
    env = Loaded{};
    malloc_trim(0);
    SetupTimes t;
    const bool last = i + 1 == kSetups;
    const double probe_ms = probe.RunMs();
    env = Setup(kScaleFactor, args.seed, spans, &t,
                args.trace && last ? &tables : nullptr);
    setup_s.push_back(t.total_s);
    setup_norm_s.push_back(HostProbe::Normalize(t.total_s, probe_ms));
    generate_s.push_back(t.generate_s);
    create_s.push_back(t.create_table_s);
    load_s.push_back(t.load_to_rapid_s);
  }
  Metrics setup_layers;
  setup_layers.Add("tpch.generate_s", Median(generate_s), "s");
  setup_layers.Add("hostdb.create_table_s", Median(create_s), "s");
  setup_layers.Add("hostdb.load_to_rapid_s", Median(load_s), "s");
  if (args.trace) {
    ProbeStorage(tables, spans, &setup_layers);
    tables = {};
  }

  Run run{args, env, spans, {}, {}, {}, probe};
  run.e2e.Add("setup_s", Median(setup_norm_s), "s");
  run.e2e.Add("setup_wall_s", Median(setup_s), "s");
  if (workload->refresh) {
    RunRefreshWorkload(run, qs);
  } else {
    RunQueryWorkload(run, qs);
  }
  run.e2e.Add("peak_rss_mib", PeakRssMiB(probe), "MiB");
  run.e2e.Add("error_frac",
              run.outcomes.attempted > 0
                  ? static_cast<double>(run.outcomes.failed) /
                        static_cast<double>(run.outcomes.attempted)
                  : 0,
              "ratio");
  run.layers.Append(setup_layers);

  run.e2e.Print("end-to-end (host wall clock unless modeled):");
  if (args.trace) run.layers.Print("per-layer (traced run):");
  if (args.trace && !args.spans_path.empty()) {
    if (spans.Write(args.spans_path, header)) {
      std::printf("\nspans: %zu written to %s\n", spans.size(),
                  args.spans_path.c_str());
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.spans_path.c_str());
    }
  }
  const bool correct = run.outcomes.failed == 0;
  std::printf("RESULT {\"correct\": %s, \"attempted\": %llu, \"failed\": "
              "%llu, \"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(run.outcomes.attempted),
              static_cast<unsigned long long>(run.outcomes.failed),
              (args.trace ? run.layers : run.e2e).Json().c_str());
  return correct ? 0 : 1;
}
