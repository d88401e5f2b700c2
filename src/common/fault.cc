#include "common/fault.h"

namespace rapid {

std::atomic<bool> FaultInjector::enabled_{false};

FaultInjector& FaultInjector::Instance() {
  static FaultInjector* instance = new FaultInjector();
  return *instance;
}

void FaultInjector::Arm(const std::string& site, SiteSpec spec) {
  std::lock_guard<std::mutex> lock(mu_);
  SiteState& state = sites_[site];
  if (!state.armed) ++armed_count_;
  state.spec = std::move(spec);
  state.armed = true;
  state.hits = 0;
  state.failures = 0;
  enabled_.store(true, std::memory_order_relaxed);
}

void FaultInjector::Disarm(const std::string& site) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  if (it == sites_.end() || !it->second.armed) return;
  it->second.armed = false;
  if (--armed_count_ == 0) {
    enabled_.store(false, std::memory_order_relaxed);
  }
}

void FaultInjector::Reset(uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  sites_.clear();
  armed_count_ = 0;
  rng_ = Rng(seed);
  enabled_.store(false, std::memory_order_relaxed);
}

Status FaultInjector::Poll(const char* site) {
  std::lock_guard<std::mutex> lock(mu_);
  return PollLocked(site);
}

FaultInjector::Attempts FaultInjector::PollAttempts(const char* site,
                                                    int max_attempts) {
  std::lock_guard<std::mutex> lock(mu_);
  Attempts attempts;
  for (int a = 0; a < max_attempts; ++a) {
    attempts.last = PollLocked(site);
    if (attempts.last.ok() || attempts.last.IsCancellation()) break;
    ++attempts.transient_failures;
  }
  return attempts;
}

Status FaultInjector::PollLocked(const char* site) {
  auto it = sites_.find(site);
  if (it == sites_.end() || !it->second.armed) return Status::OK();
  SiteState& state = it->second;
  const uint64_t ordinal = state.hits++;

  if (ordinal < state.spec.skip_first) return Status::OK();
  if (state.spec.max_failures >= 0 &&
      state.failures >= static_cast<uint64_t>(state.spec.max_failures)) {
    return Status::OK();
  }
  // The RNG draw happens on every eligible hit (whether or not it
  // fires) so the decision sequence is a pure function of the seed and
  // the site's hit ordinals, independent of other sites' arming.
  if (state.spec.probability < 1.0 &&
      rng_.NextDouble() >= state.spec.probability) {
    return Status::OK();
  }

  ++state.failures;
  std::string msg = state.spec.message.empty()
                        ? "injected fault at site '" + std::string(site) +
                              "' (hit " + std::to_string(ordinal) + ")"
                        : state.spec.message;
  return Status(state.spec.code, std::move(msg));
}

uint64_t FaultInjector::hits(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.hits;
}

uint64_t FaultInjector::failures(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.failures;
}

}  // namespace rapid
