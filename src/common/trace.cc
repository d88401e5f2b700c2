#include "common/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/logging.h"

namespace rapid {
namespace {

// Per-thread DMS staging slot: points into TraceCollector::dms_stages_
// while its generation matches the current query's.
struct ThreadDmsStage {
  uint64_t generation = 0;
  std::vector<TraceCollector::Event>* events = nullptr;
};
thread_local ThreadDmsStage t_dms_stage;

// fetch_add for a double carried in an atomic<uint64_t> (C++17 has no
// floating-point fetch_add); returns the previous value.
double FetchAddDouble(std::atomic<uint64_t>* bits, double delta) {
  uint64_t cur = bits->load(std::memory_order_relaxed);
  while (true) {
    double value;
    std::memcpy(&value, &cur, sizeof(value));
    const double next = value + delta;
    uint64_t next_bits;
    std::memcpy(&next_bits, &next, sizeof(next_bits));
    if (bits->compare_exchange_weak(cur, next_bits,
                                    std::memory_order_relaxed)) {
      return value;
    }
  }
}

void AppendJsonEscaped(std::string* out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

void AppendArgs(std::string* out, const std::vector<TraceCollector::Arg>& args) {
  *out += ",\"args\":{";
  for (size_t i = 0; i < args.size(); ++i) {
    const TraceCollector::Arg& a = args[i];
    if (i > 0) *out += ',';
    *out += '"';
    AppendJsonEscaped(out, a.key);
    *out += "\":";
    char buf[64];
    switch (a.kind) {
      case TraceCollector::Arg::Kind::kInt:
        std::snprintf(buf, sizeof(buf), "%" PRId64, a.i);
        *out += buf;
        break;
      case TraceCollector::Arg::Kind::kDouble:
        std::snprintf(buf, sizeof(buf), "%.6g", a.d);
        *out += buf;
        break;
      case TraceCollector::Arg::Kind::kStr:
        *out += '"';
        AppendJsonEscaped(out, a.s);
        *out += '"';
        break;
    }
  }
  *out += '}';
}

}  // namespace

std::atomic<bool> TraceCollector::active_{false};

TraceCollector& TraceCollector::Instance() {
  static TraceCollector* collector = new TraceCollector();
  return *collector;
}

void TraceCollector::BeginQuery(int num_cores, double clock_hz) {
  if (nest_++ > 0) return;
  query_mode_ = GetConfig().trace;
  if (query_mode_ == TraceMode::kOff) return;
  num_cores_ = num_cores;
  clock_hz_ = clock_hz > 0 ? clock_hz : 1;
  pending_export_ = false;  // the previous trace is superseded
  // Recycle track storage across queries: events.clear() keeps the
  // event vectors' capacity, so steady-state tracing does not reallocate.
  tracks_.resize(num_cores_ + 4);
  for (Track& t : tracks_) {
    t.events.clear();
    t.open_depth = 0;
    t.clock = 0;
  }
  for (int c = 0; c < num_cores_; ++c) {
    tracks_[c].name = "dpCore " + std::to_string(c);
    tracks_[c].cycle_time = true;
  }
  tracks_[num_cores_ + 0].name = "steps";
  tracks_[num_cores_ + 0].cycle_time = true;
  tracks_[num_cores_ + 1].name = "planner";
  tracks_[num_cores_ + 1].cycle_time = false;
  tracks_[num_cores_ + 2].name = "dms";
  tracks_[num_cores_ + 2].cycle_time = true;
  tracks_[num_cores_ + 3].name = "host";
  tracks_[num_cores_ + 3].cycle_time = false;
  dms_clock_bits_.store(0, std::memory_order_relaxed);
  dms_generation_.fetch_add(1, std::memory_order_relaxed);
  dms_stages_.clear();
  // Publish the track storage to worker threads before they can record
  // (the dpu's phase barrier also orders this, but be explicit).
  active_.store(true, std::memory_order_release);
}

void TraceCollector::EndQuery() {
  if (nest_ <= 0) return;
  if (--nest_ > 0) return;
  if (query_mode_ == TraceMode::kOff) return;
  active_.store(false, std::memory_order_release);
  // Fold the per-thread DMS staging buffers into the dms track,
  // ordered by their cursor positions (workers are quiescent here; the
  // lock only fences late registrations).
  if (Track* dms = ResolveTrack(kTrackDms); dms != nullptr) {
    std::lock_guard<std::mutex> lock(dms_stage_mu_);
    for (std::vector<Event>& stage : dms_stages_) {
      for (Event& e : stage) dms->events.push_back(std::move(e));
    }
    dms_stages_.clear();
    std::stable_sort(
        dms->events.begin(), dms->events.end(),
        [](const Event& a, const Event& b) { return a.begin < b.begin; });
  }
  // Serialization is deferred to last_trace_json(): the buffers stay
  // intact until the next outermost BeginQuery, so an unread trace
  // costs nothing. A configured trace_path forces the export now.
  pending_export_ = true;
  const std::string& path = GetConfig().trace_path;
  if (!path.empty()) {
    last_json_ = ExportJson();
    pending_export_ = false;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f != nullptr) {
      std::fwrite(last_json_.data(), 1, last_json_.size(), f);
      std::fclose(f);
    } else {
      RAPID_LOG(kWarn, "cannot write RAPID_TRACE_PATH '%s'", path.c_str());
    }
  }
}

const std::string& TraceCollector::last_trace_json() {
  // Never serialize while a query is recording into the buffers; the
  // cached JSON (possibly from an earlier query) is the stable answer.
  if (pending_export_ && !active_.load(std::memory_order_relaxed)) {
    last_json_ = ExportJson();
    pending_export_ = false;
  }
  return last_json_;
}

TraceCollector::Track* TraceCollector::ResolveTrack(int track) {
  int index;
  switch (track) {
    case kTrackSteps:
      index = num_cores_ + 0;
      break;
    case kTrackPlanner:
      index = num_cores_ + 1;
      break;
    case kTrackDms:
      index = num_cores_ + 2;
      break;
    case kTrackHost:
      index = num_cores_ + 3;
      break;
    default:
      index = track;
  }
  if (index < 0 || index >= static_cast<int>(tracks_.size())) return nullptr;
  return &tracks_[index];
}

void TraceCollector::AddStepSpan(const char* name, double cycles,
                                 std::vector<Arg> args) {
  Track* t = ResolveTrack(kTrackSteps);
  if (t == nullptr) return;
  Event e;
  e.name = name;
  e.begin = t->clock;
  e.end = t->clock + cycles;
  e.args = std::move(args);
  t->clock = e.end;
  t->events.push_back(std::move(e));
}

void TraceCollector::AddStepInstant(const char* name, std::vector<Arg> args) {
  Track* t = ResolveTrack(kTrackSteps);
  if (t == nullptr) return;
  Event e;
  e.name = name;
  e.begin = t->clock;
  e.end = t->clock;
  e.instant = true;
  e.args = std::move(args);
  t->events.push_back(std::move(e));
}

void TraceCollector::RecordDms(const char* name, double cycles,
                               std::vector<Arg> args) {
  if (!active_.load(std::memory_order_relaxed)) return;
  const uint64_t generation = dms_generation_.load(std::memory_order_relaxed);
  if (t_dms_stage.events == nullptr || t_dms_stage.generation != generation) {
    std::lock_guard<std::mutex> lock(dms_stage_mu_);
    dms_stages_.emplace_back();
    dms_stages_.back().reserve(64);
    t_dms_stage.events = &dms_stages_.back();
    t_dms_stage.generation = generation;
  }
  Event e;
  e.name = name;
  e.begin = FetchAddDouble(&dms_clock_bits_, cycles);
  e.end = e.begin + cycles;
  e.args = std::move(args);
  t_dms_stage.events->push_back(std::move(e));
}

const char* TraceCollector::Intern(const std::string& name) {
  std::lock_guard<std::mutex> lock(intern_mu_);
  for (const std::string& s : interned_) {
    if (s == name) return s.c_str();
  }
  interned_.push_back(name);
  return interned_.back().c_str();
}

TraceCollector::Snapshot TraceCollector::TakeSnapshot() const {
  Snapshot snap;
  snap.tracks = tracks_;
  snap.clock_hz = clock_hz_;
  return snap;
}

std::string TraceCollector::ExportJson() const {
  // Chrome trace-event format: pid 1, one tid per track, "X" complete
  // events with ts/dur in microseconds. Cycle tracks convert through
  // the modeled clock; ordinal tracks use 1 unit = 1 us.
  const double us_per_cycle = 1e6 / clock_hz_;
  std::string out;
  out.reserve(4096);
  out += "{\"traceEvents\":[\n";
  bool first = true;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
                "\"args\":{\"name\":\"rapid\"}}");
  out += buf;
  first = false;
  for (size_t t = 0; t < tracks_.size(); ++t) {
    const Track& track = tracks_[t];
    out += ",\n";
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(t) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    AppendJsonEscaped(&out, track.name.c_str());
    out += "\"}}";
    const double scale = track.cycle_time ? us_per_cycle : 1.0;
    for (const Event& e : track.events) {
      out += ",\n";
      if (e.instant) {
        std::snprintf(buf, sizeof(buf),
                      "{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":%zu,"
                      "\"ts\":%.4f,\"name\":\"",
                      t, e.begin * scale);
        out += buf;
        AppendJsonEscaped(&out, e.name);
        out += "\"";
      } else {
        std::snprintf(buf, sizeof(buf),
                      "{\"ph\":\"X\",\"pid\":1,\"tid\":%zu,\"ts\":%.4f,"
                      "\"dur\":%.4f,\"name\":\"",
                      t, e.begin * scale, (e.end - e.begin) * scale);
        out += buf;
        AppendJsonEscaped(&out, e.name);
        out += "\"";
      }
      if (!e.args.empty()) AppendArgs(&out, e.args);
      out += "}";
    }
  }
  (void)first;
  out += "\n]}\n";
  return out;
}

TraceSpan::TraceSpan(TraceMode level, int track, const char* name,
                     ClockFn clock, const void* clock_arg) {
  if (!TraceCollector::Recording(level)) return;
  TraceCollector::Track* t = TraceCollector::Instance().ResolveTrack(track);
  if (t == nullptr) return;
  track_ = t;
  name_ = name;
  clock_ = clock;
  clock_arg_ = clock_arg;
  args_.reserve(4);  // one allocation for the typical annotation count
  depth_ = t->open_depth++;
  if (clock_ != nullptr) {
    begin_ = clock_(clock_arg_);
  } else {
    begin_ = t->clock;
    t->clock += 1;
  }
}

TraceSpan::~TraceSpan() {
  if (track_ == nullptr) return;
  double end;
  if (clock_ != nullptr) {
    end = clock_(clock_arg_);
  } else {
    end = track_->clock;
    track_->clock += 1;
  }
  TraceCollector::Event e;
  e.name = name_;
  e.begin = begin_;
  e.end = end;
  e.depth = depth_;
  e.args = std::move(args_);
  track_->events.push_back(std::move(e));
  track_->open_depth--;
}

}  // namespace rapid
