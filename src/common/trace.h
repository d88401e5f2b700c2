// Unified query tracing in modeled virtual time.
//
// The engine's accounting is cycle-accurate (dpu::CycleCounter), so a
// trace recorded in *modeled* time is deterministic and jitter-free:
// two runs of the same query produce the same span durations no matter
// how the host machine schedules the simulator's worker threads. The
// TraceCollector records spans on a set of tracks:
//
//   - one track per dpCore, clocked by that core's accumulated
//     compute+DMS cycles (monotone: cycles only increase, and a core's
//     track is only ever written by the worker thread driving it);
//   - a "steps" track carrying the engine's per-step timeline, clocked
//     by accumulated modeled query time (span durations reconcile
//     exactly with ExecutionStats::modeled_seconds);
//   - a "dms" track serializing every DMS transfer, matching the cost
//     model's rule that all transfers share one DRAM interface;
//   - ordinal "planner" and "host" tracks for decisions that happen
//     outside modeled time (plan choices, offload decisions). Their
//     clock is an event ordinal, not cycles.
//
// The mode is the config's `trace` field (RAPID_TRACE=off|summary|full,
// default off; common/config.h). When tracing is off every
// instrumentation site costs one atomic load of the config and a
// predicted-not-taken branch — the same discipline as the fault
// injector (see bench_trace_overhead).
//
// Ordinal-safety rules (same contract PR 9 established for the join
// filter): recording a span never polls a fault site, never acquires a
// tile-pool buffer and never allocates DMEM — span storage lives in
// collector-owned heap vectors — so enabling tracing cannot shift
// fault-injection ordinals or DMEM layouts, and results stay
// bit-identical across off|summary|full.

#ifndef RAPID_COMMON_TRACE_H_
#define RAPID_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "common/config.h"

namespace rapid {

class TraceCollector {
 public:
  // One typed key/value annotation on a span. Keys and string values
  // must be static-lifetime strings (literals, or Intern()ed).
  struct Arg {
    enum class Kind { kInt, kDouble, kStr };
    const char* key = "";
    Kind kind = Kind::kInt;
    int64_t i = 0;
    double d = 0;
    const char* s = "";

    static Arg I(const char* key, int64_t value) {
      Arg a;
      a.key = key;
      a.kind = Kind::kInt;
      a.i = value;
      return a;
    }
    static Arg U(const char* key, uint64_t value) {
      return I(key, static_cast<int64_t>(value));
    }
    static Arg D(const char* key, double value) {
      Arg a;
      a.key = key;
      a.kind = Kind::kDouble;
      a.d = value;
      return a;
    }
    static Arg S(const char* key, const char* value) {
      Arg a;
      a.key = key;
      a.kind = Kind::kStr;
      a.s = value;
      return a;
    }
  };

  struct Event {
    const char* name = "";
    double begin = 0;  // track-local virtual time (cycles, or ordinals)
    double end = 0;
    int depth = 0;     // nesting depth at begin (well-formedness checks)
    bool instant = false;
    std::vector<Arg> args;
  };

  struct Track {
    std::string name;
    bool cycle_time = true;  // false: ordinal units (planner/host)
    std::vector<Event> events;
    // Writer-owned state (single writer per track, see header comment).
    int open_depth = 0;
    double clock = 0;
  };

  // Pseudo-track ids accepted wherever a track id is taken; dpCore
  // tracks use the core id (>= 0) directly.
  static constexpr int kTrackSteps = -1;
  static constexpr int kTrackPlanner = -2;
  static constexpr int kTrackDms = -3;
  static constexpr int kTrackHost = -4;

  static TraceCollector& Instance();

  // True while a query scope is open AND the active mode reaches
  // `level`. The single hot-path gate for every instrumentation site.
  static bool Recording(TraceMode level) {
    return static_cast<int>(GetConfig().trace) >=
               static_cast<int>(level) &&
           active_.load(std::memory_order_relaxed);
  }

  // Opens/closes a query scope. Scopes nest (HostDatabase::ExecuteQuery
  // wraps RapidEngine::Execute wraps ExecutePhysical); only the
  // outermost Begin resets the buffers and only the matching End
  // finalizes the trace — exporting Chrome trace-event JSON to the
  // config's trace_path (if set) and retaining it for last_trace_json().
  // Must be called from the orchestration thread.
  void BeginQuery(int num_cores, double clock_hz);
  void EndQuery();

  // Steps-track recording: a span of `cycles` modeled cycles appended
  // at the current steps cursor (durations sum to the query's modeled
  // time), or an instant pinned at the cursor.
  void AddStepSpan(const char* name, double cycles, std::vector<Arg> args);
  void AddStepInstant(const char* name, std::vector<Arg> args);

  // DMS-track recording: transfers serialize on the shared DRAM
  // interface, so each event occupies [cursor, cursor + cycles) of an
  // atomically-advanced cycle cursor. Events stage in thread-local
  // buffers (lock-free on the hot path; cores transfer concurrently)
  // and merge into the dms track, sorted by begin, at EndQuery.
  // Placement order follows thread interleaving but every duration is
  // modeled, hence deterministic.
  void RecordDms(const char* name, double cycles, std::vector<Arg> args);

  // Interns a dynamic name (step descriptions); returns a pointer that
  // stays valid for the process lifetime.
  const char* Intern(const std::string& name);

  // Structured copy for tests (call only while no parallel phase is
  // recording).
  struct Snapshot {
    std::vector<Track> tracks;
    double clock_hz = 0;
  };
  Snapshot TakeSnapshot() const;

  // Chrome trace-event JSON of the current buffers.
  std::string ExportJson() const;

  // JSON of the last completed outermost query scope ("" if tracing
  // was off). Serialization is deferred to this call — EndQuery only
  // marks the buffers final (unless a trace_path forces an eager
  // file write), so untraced consumers never pay for the export.
  const std::string& last_trace_json();

  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

 private:
  friend class TraceSpan;

  TraceCollector() = default;

  // Maps a track id (core id or pseudo id) to the tracks_ slot;
  // nullptr when out of range or inactive.
  Track* ResolveTrack(int track);

  int num_cores_ = 0;
  double clock_hz_ = 1;
  int nest_ = 0;  // query-scope nesting depth (orchestration thread)
  TraceMode query_mode_ = TraceMode::kOff;  // mode pinned at outer Begin
  std::vector<Track> tracks_;
  // DMS cursor (double bits, CAS-advanced) and per-thread staging
  // buffers. The deque gives staged vectors stable addresses; the
  // generation counter makes persistent worker threads re-register
  // each query. The mutex guards registration and merge only.
  std::atomic<uint64_t> dms_clock_bits_{0};
  std::atomic<uint64_t> dms_generation_{0};
  std::mutex dms_stage_mu_;
  std::deque<std::vector<Event>> dms_stages_;
  std::string last_json_;
  bool pending_export_ = false;  // buffers final but not yet serialized

  // Interned dynamic names: stable storage + lookup, mutex-guarded
  // (cold path: step descriptions, once per step).
  std::mutex intern_mu_;
  std::deque<std::string> interned_;

  static std::atomic<bool> active_;
};

// RAII query scope: BeginQuery on construction, EndQuery on
// destruction. Safe to nest (hostdb wraps engine wraps
// ExecutePhysical); only the outermost pair resets and finalizes.
class TraceQueryScope {
 public:
  TraceQueryScope(int num_cores, double clock_hz) {
    TraceCollector::Instance().BeginQuery(num_cores, clock_hz);
  }
  ~TraceQueryScope() { TraceCollector::Instance().EndQuery(); }
  TraceQueryScope(const TraceQueryScope&) = delete;
  TraceQueryScope& operator=(const TraceQueryScope&) = delete;
};

// RAII span. Inactive (and free apart from the Recording() gate) when
// tracing is off, the level is not reached, or no query scope is open.
//
// Core-track spans sample a monotone virtual clock through `clock`
// (use dpu::TraceClockNow with &core.cycles()); ordinal tracks
// (planner/host) pass no clock and advance the track's event ordinal.
class TraceSpan {
 public:
  using ClockFn = double (*)(const void*);

  TraceSpan(TraceMode level, int track, const char* name,
            ClockFn clock = nullptr, const void* clock_arg = nullptr);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  bool active() const { return track_ != nullptr; }

  void Annotate(const char* key, int64_t value) {
    if (track_ != nullptr) args_.push_back(TraceCollector::Arg::I(key, value));
  }
  void Annotate(const char* key, uint64_t value) {
    if (track_ != nullptr) args_.push_back(TraceCollector::Arg::U(key, value));
  }
  void Annotate(const char* key, double value) {
    if (track_ != nullptr) args_.push_back(TraceCollector::Arg::D(key, value));
  }
  void Annotate(const char* key, const char* value) {
    if (track_ != nullptr) args_.push_back(TraceCollector::Arg::S(key, value));
  }

 private:
  TraceCollector::Track* track_ = nullptr;
  const char* name_ = nullptr;
  ClockFn clock_ = nullptr;
  const void* clock_arg_ = nullptr;
  double begin_ = 0;
  int depth_ = 0;
  std::vector<TraceCollector::Arg> args_;
};

}  // namespace rapid

#endif  // RAPID_COMMON_TRACE_H_
