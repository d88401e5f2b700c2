#include "common/config.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>

#include "common/logging.h"
#include "common/simd.h"

namespace rapid {
namespace {

template <typename E>
struct Spelling {
  const char* text;
  E value;
};

// Accepted spellings per enum field; the first spelling of each value
// is its canonical name.
constexpr Spelling<SimdLevel> kSimdSpellings[] = {
    {"scalar", SimdLevel::kScalar},
    {"off", SimdLevel::kScalar},
    {"avx2", SimdLevel::kAvx2},
    {"auto", SimdLevel::kAvx2},  // clamped to the CPU like every request
};
constexpr Spelling<EncodedScanMode> kEncodedScanSpellings[] = {
    {"off", EncodedScanMode::kOff},
    {"auto", EncodedScanMode::kAuto},
};
constexpr Spelling<JoinFilterMode> kJoinFilterSpellings[] = {
    {"off", JoinFilterMode::kOff},
    {"auto", JoinFilterMode::kAuto},
};
constexpr Spelling<TraceMode> kTraceSpellings[] = {
    {"off", TraceMode::kOff},
    {"summary", TraceMode::kSummary},
    {"full", TraceMode::kFull},
};
constexpr Spelling<LogLevel> kLogSpellings[] = {
    {"error", LogLevel::kError},
    {"warn", LogLevel::kWarn},
    {"info", LogLevel::kInfo},
    {"debug", LogLevel::kDebug},
};

template <typename E, size_t N>
const char* NameOf(const Spelling<E> (&table)[N], E value) {
  for (const Spelling<E>& s : table) {
    if (s.value == value) return s.text;
  }
  return "unknown";
}

// Reads variables through the injected lookup. A rejected value leaves
// the field at its default and records one warning.
class EnvReader {
 public:
  EnvReader(const Config::EnvLookup& lookup,
            std::vector<std::string>* warnings)
      : lookup_(lookup), warnings_(warnings) {}

  // The variable's value, or nullptr when unset or empty.
  const char* Get(const char* name) const {
    const char* value = lookup_ ? lookup_(name) : std::getenv(name);
    return value != nullptr && *value != '\0' ? value : nullptr;
  }

  template <typename E, size_t N>
  void Enum(const char* name, const Spelling<E> (&table)[N], E* field) {
    const char* value = Get(name);
    if (value == nullptr) return;
    std::string want;
    for (const Spelling<E>& s : table) {
      if (std::strcmp(value, s.text) == 0) {
        *field = s.value;
        return;
      }
      if (!want.empty()) want += '|';
      want += s.text;
    }
    Warn(name, value, want.c_str(), NameOf(table, *field));
  }

  void Cores(const char* name, int* field) {
    const char* value = Get(name);
    if (value == nullptr) return;
    char* end = nullptr;
    const long parsed = std::strtol(value, &end, 10);
    if (end != value && *end == '\0' && parsed >= 1) {
      *field = static_cast<int>(
          std::min(parsed, static_cast<long>(Config::kMaxCores)));
      return;
    }
    Warn(name, value, "an integer >= 1", std::to_string(*field).c_str());
  }

  void String(const char* name, std::string* field) {
    if (const char* value = Get(name); value != nullptr) *field = value;
  }

 private:
  void Warn(const char* name, const char* value, const char* want,
            const char* fallback) {
    if (warnings_ == nullptr) return;
    warnings_->push_back(std::string("unknown ") + name + " value '" + value +
                         "' (want " + want + "); using " + fallback);
  }

  const Config::EnvLookup& lookup_;
  std::vector<std::string>* warnings_;
};

Config Normalize(Config config) {
  config.simd = std::min(config.simd, SimdLevelSupported());
  config.cores = std::clamp(config.cores, 1, Config::kMaxCores);
  return config;
}

// Every snapshot ever published, deduplicated. A reader may still hold
// a reference to an old snapshot, so none is ever freed; tests and
// benchmarks flip between a handful of distinct configs, so the set
// stays tiny.
const Config* Intern(const Config& config) {
  static std::mutex mu;
  static auto* published = new std::deque<Config>();
  std::lock_guard<std::mutex> lock(mu);
  for (const Config& c : *published) {
    if (c == config) return &c;
  }
  published->push_back(config);
  return &published->back();
}

}  // namespace

const char* SimdLevelName(SimdLevel level) {
  return NameOf(kSimdSpellings, level);
}
const char* TraceModeName(TraceMode mode) {
  return NameOf(kTraceSpellings, mode);
}
const char* LogLevelName(LogLevel level) {
  return NameOf(kLogSpellings, level);
}

Config Config::FromEnv(const EnvLookup& lookup,
                       std::vector<std::string>* warnings) {
  Config config;
  config.simd = SimdLevelSupported();
  EnvReader env(lookup, warnings);
  env.Enum("RAPID_SIMD", kSimdSpellings, &config.simd);
  env.Enum("RAPID_ENCODED_SCAN", kEncodedScanSpellings, &config.encoded_scan);
  env.Enum("RAPID_JOIN_FILTER", kJoinFilterSpellings, &config.join_filter);
  env.Enum("RAPID_TRACE", kTraceSpellings, &config.trace);
  env.String("RAPID_TRACE_PATH", &config.trace_path);
  env.Enum("RAPID_LOG_LEVEL", kLogSpellings, &config.log_level);
  env.Cores("RAPID_CORES", &config.cores);
  return Normalize(config);
}

namespace internal {

std::atomic<const Config*> g_config{nullptr};

const Config& ResolveConfig() {
  // Every field is resolved and published before anything is logged:
  // RAPID_LOG reads the log level through GetConfig().
  static const Config* const resolved = [] {
    std::vector<std::string> warnings;
    const Config* config = Intern(Config::FromEnv({}, &warnings));
    g_config.store(config, std::memory_order_release);
    for (const std::string& w : warnings) RAPID_LOG(kWarn, "%s", w.c_str());
    RAPID_LOG(kInfo,
              "config: simd=%s (cpu max %s) encoded_scan=%s "
              "join_filter=%s trace=%s trace_path='%s' log_level=%s cores=%d "
              "tile_pool_bypass=%d",
              SimdLevelName(config->simd),
              SimdLevelName(SimdLevelSupported()),
              NameOf(kEncodedScanSpellings, config->encoded_scan),
              NameOf(kJoinFilterSpellings, config->join_filter),
              TraceModeName(config->trace), config->trace_path.c_str(),
              LogLevelName(config->log_level), config->cores,
              config->tile_pool_bypass ? 1 : 0);
    return config;
  }();
  (void)resolved;
  return *g_config.load(std::memory_order_acquire);
}

}  // namespace internal

Config SetConfig(const Config& config) {
  GetConfig();  // the environment resolves (and logs) first
  const Config* previous = internal::g_config.exchange(
      Intern(Normalize(config)), std::memory_order_acq_rel);
  return *previous;
}

}  // namespace rapid
