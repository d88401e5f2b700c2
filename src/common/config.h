// One process-wide configuration for every feature gate.
//
// The engine's ablation switches (the SIMD tier the primitive kernels
// dispatch to, encoded scans (§4.2), the join filter pushdown, tracing,
// the log level, the dpCore count and the tile-pool bypass) are the
// fields of one plain Config struct. The first GetConfig() resolves it
// from the environment (Config::FromEnv) and publishes it as an
// immutable snapshot behind one atomic pointer, so every read on a hot
// path (kernel dispatch, trace sites, pool acquires) is one acquire
// load. SetConfig() publishes a replacement and returns the previous
// config; ScopedConfig restores it on scope exit. Every gate is bit-identical by construction: flipping one
// changes throughput, modeled cost or observability output, never
// query results.
//
// Environment variables, read once at the first GetConfig():
//
//   RAPID_SIMD          off|scalar|sse42|avx2|auto     default auto
//   RAPID_ENCODED_SCAN  off|auto                       default auto
//   RAPID_JOIN_FILTER   off|auto                       default auto
//   RAPID_TRACE         off|summary|full               default off
//   RAPID_TRACE_PATH    file for the Chrome trace JSON default none
//   RAPID_LOG_LEVEL     error|warn|info|debug          default warn
//   RAPID_CORES         integer >= 1 (max 1024)        default 32
//
// An empty value means the default; an unknown value means the default
// plus one warning. The resolved config is logged once at info level.
//
// The config is process-wide, not per engine: the SIMD dispatch tables,
// the logger and the tile pools are process-wide by construction.

#ifndef RAPID_COMMON_CONFIG_H_
#define RAPID_COMMON_CONFIG_H_

#include <atomic>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace rapid {

// Instruction-set tier of the primitive kernels (common/simd.h).
enum class SimdLevel : int { kScalar = 0, kSse42 = 1, kAvx2 = 2 };

// Whether the relation accessor ships RLE-topped vectors over the DMS
// and filters on compressed data. Changes bytes moved and modeled
// cycles, never results.
enum class EncodedScanMode : int { kOff = 0, kAuto = 1 };

// Join-filter pushdown (sideways information passing). The gate is
// consulted only at *runtime*: the planner attaches filter references
// and the fusion pass shapes pipelines identically in both modes, so
// toggling it never changes plan shape, DMEM allocation counts or
// fault-poll ordinals; it only decides whether the referenced filter is
// actually built and evaluated.
enum class JoinFilterMode { kOff = 0, kAuto = 1 };

// Query tracing in modeled time (common/trace.h).
enum class TraceMode { kOff = 0, kSummary = 1, kFull = 2 };

// RAPID_LOG threshold (common/logging.h).
enum class LogLevel { kError = 0, kWarn = 1, kInfo = 2, kDebug = 3 };

// Canonical spelling of each value, as accepted by the environment.
const char* SimdLevelName(SimdLevel level);
const char* TraceModeName(TraceMode mode);
const char* LogLevelName(LogLevel level);

struct Config {
  static constexpr int kMaxCores = 1024;

  // Published snapshots clamp this to SimdLevelSupported().
  SimdLevel simd = SimdLevel::kAvx2;
  EncodedScanMode encoded_scan = EncodedScanMode::kAuto;
  JoinFilterMode join_filter = JoinFilterMode::kAuto;
  TraceMode trace = TraceMode::kOff;
  // When set, every finished trace is also written here as JSON.
  std::string trace_path;
  LogLevel log_level = LogLevel::kWarn;
  // dpCore count of DpuConfig::Default(), clamped to [1, kMaxCores].
  int cores = 32;
  // Tile-pool acquires go straight to the heap (the pre-pool per-tile
  // allocation pattern); no env var, set in-process by the allocation
  // benchmark and tests.
  bool tile_pool_bypass = false;

  bool operator==(const Config&) const = default;

  // Returns the value of an environment variable, or nullptr if unset.
  using EnvLookup = std::function<const char*(const char* name)>;

  // Resolves every field from `lookup` (the process environment when
  // empty). Each rejected value keeps the field's default and appends
  // one message to `warnings` (if non-null).
  static Config FromEnv(const EnvLookup& lookup = {},
                        std::vector<std::string>* warnings = nullptr);
};

namespace internal {
extern std::atomic<const Config*> g_config;
// First use: resolves the environment, publishes it, then logs it.
const Config& ResolveConfig();
}  // namespace internal

// The config in effect. The reference stays valid for the process
// lifetime (published snapshots are never freed).
inline const Config& GetConfig() {
  const Config* config = internal::g_config.load(std::memory_order_acquire);
  return config != nullptr ? *config : internal::ResolveConfig();
}

// Publishes `config` (simd and cores clamped) and returns the previous.
Config SetConfig(const Config& config);

// Restores the config in effect at construction when it goes out of
// scope. Set() overrides one field in between:
//
//   ScopedConfig config(&Config::simd, SimdLevel::kScalar);
//   ...
//   config.Set(&Config::encoded_scan, EncodedScanMode::kOff);
class ScopedConfig {
 public:
  ScopedConfig() : previous_(GetConfig()) {}
  template <typename T>
  ScopedConfig(T Config::*field, std::type_identity_t<T> value)
      : ScopedConfig() {
    Set(field, std::move(value));
  }
  ~ScopedConfig() { SetConfig(previous_); }

  ScopedConfig(const ScopedConfig&) = delete;
  ScopedConfig& operator=(const ScopedConfig&) = delete;

  template <typename T>
  void Set(T Config::*field, std::type_identity_t<T> value) {
    Config next = GetConfig();
    next.*field = std::move(value);
    SetConfig(next);
  }

 private:
  Config previous_;
};

}  // namespace rapid

#endif  // RAPID_COMMON_CONFIG_H_
