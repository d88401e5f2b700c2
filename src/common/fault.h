// Deterministic fault injection for the offload pipeline.
//
// The host integration (Section 3) is only safe if every error path of
// the simulated DPU — DMS descriptor failures, DMEM exhaustion, hash
// table overflow, ATE delivery loss — can be exercised on demand. The
// FaultInjector is a process-wide registry of *named fault sites*:
// production code polls a site on its hot error path, tests arm sites
// with a seeded RNG and probability/count triggers, and everything in
// between (retry, repartition, demotion, host fallback) becomes
// testable without touching the happy path.
//
// Cost discipline: when nothing is armed, a fault point is one relaxed
// atomic load and a predicted-not-taken branch (see
// bench_fault_overhead). The mutex-protected slow path only runs while
// a test has armed at least one site.

#ifndef RAPID_COMMON_FAULT_H_
#define RAPID_COMMON_FAULT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/rng.h"
#include "common/status.h"

namespace rapid {

class FaultInjector {
 public:
  // Trigger spec for one armed site.
  struct SiteSpec {
    // Status code injected failures carry (the site's recovery policy
    // keys off this: e.g. kCapacityExceeded at "join.build" triggers
    // repartitioning, anything at "dms.transfer" is transient).
    StatusCode code = StatusCode::kInternal;
    // Per-hit firing probability in [0, 1]; 1.0 fires on every hit.
    double probability = 1.0;
    // Hits to let through before the site may fire (ordinal targeting:
    // "fail the 3rd descriptor").
    uint64_t skip_first = 0;
    // Total failures to inject; < 0 means unlimited. Lets tests model
    // transient faults that heal ("fail twice, then succeed").
    int64_t max_failures = -1;
    // Message of the injected Status ("" derives one from the site).
    std::string message;
  };

  static FaultInjector& Instance();

  // True while any site is armed. The single hot-path check.
  static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }

  // Arms `site` (enables the injector if this is the first armed
  // site). Re-arming replaces the spec and resets the site counters.
  void Arm(const std::string& site, SiteSpec spec);
  void Disarm(const std::string& site);

  // Disarms everything, clears all counters, reseeds to `seed`.
  void Reset(uint64_t seed = 0x5eed5eedULL);

  // Slow path of RAPID_FAULT_POINT: records the hit and decides (via
  // the seeded RNG and the spec's triggers) whether this hit fails.
  // Returns OK for unarmed sites. Thread-safe; trigger decisions are a
  // deterministic function of (seed, per-site hit ordinal).
  Status Poll(const char* site);

  // One retried operation's attempts at `site`: polls up to
  // `max_attempts` consecutive hits under one lock, stopping at the
  // first hit that passes or fails with a cancellation-class status
  // (not transient, so not worth retrying). Holding the lock keeps
  // another thread's poll from landing between two attempts, so a
  // spec's failures exhaust one operation's budget before the next
  // operation sees any. Each attempt is an ordinary Poll: hit
  // ordinals and RNG draws are unchanged.
  struct Attempts {
    int transient_failures = 0;  // failed attempts that may be retried
    Status last;                 // OK, or the final attempt's fault
  };
  Attempts PollAttempts(const char* site, int max_attempts);

  // Like Poll but also cheap-checks enabled(): usable directly from
  // code that wants a Status without the early-return macro (retry
  // loops).
  Status PollIfEnabled(const char* site) {
    if (!enabled()) return Status::OK();
    return Poll(site);
  }

  // Observability for tests: total hits / injected failures per site
  // (counted even after Disarm, until Reset).
  uint64_t hits(const std::string& site) const;
  uint64_t failures(const std::string& site) const;

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

 private:
  FaultInjector() : rng_(0x5eed5eedULL) {}

  Status PollLocked(const char* site);  // callers hold mu_

  struct SiteState {
    SiteSpec spec;
    bool armed = false;
    uint64_t hits = 0;
    uint64_t failures = 0;
  };

  mutable std::mutex mu_;
  std::unordered_map<std::string, SiteState> sites_;
  Rng rng_;
  size_t armed_count_ = 0;

  static std::atomic<bool> enabled_;
};

// RAII arming for tests: reseeds on entry, disarms everything on exit
// so fault state can never leak across test cases.
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(uint64_t seed) {
    FaultInjector::Instance().Reset(seed);
  }
  ~ScopedFaultInjection() { FaultInjector::Instance().Reset(); }

  ScopedFaultInjection& Arm(const std::string& site,
                            FaultInjector::SiteSpec spec) {
    FaultInjector::Instance().Arm(site, std::move(spec));
    return *this;
  }

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;
};

// Canonical site names, kept together so tests and DESIGN.md cannot
// drift from the code.
namespace faults {
inline constexpr char kDmsTransfer[] = "dms.transfer";      // tile descriptor
inline constexpr char kDmsPartition[] = "dms.partition";    // partition engine
inline constexpr char kDmemAlloc[] = "dmem.alloc";          // scratchpad alloc
inline constexpr char kAteSend[] = "ate.send";              // message delivery
inline constexpr char kJoinBuild[] = "join.build";          // hash-table build
inline constexpr char kPoolAcquire[] = "pool.acquire";      // tile-pool growth
}  // namespace faults

}  // namespace rapid

// Fault point with early return: zero-cost when the injector is
// disabled. Works in any function returning Status or Result<T>.
#define RAPID_FAULT_POINT(site)                                         \
  do {                                                                  \
    if (__builtin_expect(::rapid::FaultInjector::enabled(), 0)) {       \
      ::rapid::Status _fault = ::rapid::FaultInjector::Instance().Poll(site); \
      if (!_fault.ok()) return _fault;                                  \
    }                                                                   \
  } while (0)

#endif  // RAPID_COMMON_FAULT_H_
