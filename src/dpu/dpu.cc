#include "dpu/dpu.h"

#include <algorithm>
#include <atomic>

#include "common/logging.h"

namespace rapid::dpu {

Dpu::Dpu(const DpuConfig& config, const CostParams& params)
    : config_(config),
      params_(params),
      dms_(config, params),
      ate_(config.num_cores, params.ate_max_attempts),
      power_() {
  cores_.reserve(config_.num_cores);
  for (int i = 0; i < config_.num_cores; ++i) {
    cores_.push_back(std::make_unique<DpCore>(i, config_));
  }
  workers_.reserve(config_.num_cores);
  for (int i = 0; i < config_.num_cores; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

Dpu::~Dpu() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void Dpu::WorkerLoop(int core_id) {
  uint64_t seen_generation = 0;
  for (;;) {
    std::function<void(DpCore&)> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return shutdown_ || job_generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = job_generation_;
      if (core_id >= job_limit_) {
        // Not participating in this round; acknowledge immediately.
        if (--pending_ == 0) done_cv_.notify_one();
        continue;
      }
      job = job_;
    }
    job(*cores_[core_id]);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--pending_ == 0) done_cv_.notify_one();
    }
  }
}

void Dpu::ParallelForN(int n, const std::function<void(DpCore&)>& fn) {
  // Clamp instead of trusting the caller: a task-formation bug asking
  // for 0 or num_cores+1 cores must not index past the pool.
  n = std::max(1, std::min(n, config_.num_cores));
  if (inline_exec_) {
    for (int c = 0; c < n; ++c) fn(*cores_[c]);
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  job_ = fn;
  job_limit_ = n;
  pending_ = config_.num_cores;
  ++job_generation_;
  work_cv_.notify_all();
  done_cv_.wait(lock, [&] { return pending_ == 0; });
}

void Dpu::ParallelFor(const std::function<void(DpCore&)>& fn) {
  ParallelForN(config_.num_cores, fn);
}

Status Dpu::ParallelForMorsels(
    const std::vector<double>& weights, const CancelToken* cancel,
    const std::function<Status(DpCore&, size_t)>& fn) {
  const auto ncores = static_cast<size_t>(config_.num_cores);
  std::vector<double> before(ncores);
  for (size_t c = 0; c < ncores; ++c) {
    before[c] = cores_[c]->cycles().compute_cycles();
  }

  const MorselSchedule schedule = LptSchedule(weights, config_.num_cores);
  std::vector<Status> statuses(ncores);
  std::atomic<bool> abort{false};
  ParallelFor([&](DpCore& core) {
    const auto cid = static_cast<size_t>(core.id());
    for (const size_t morsel : schedule.core(cid)) {
      if (abort.load(std::memory_order_relaxed)) return;
      // Poll between morsels: a cancelled query unwinds within one
      // morsel, not one phase.
      Status st = CancelToken::Check(cancel);
      if (st.ok()) st = fn(core, morsel);
      if (!st.ok()) {
        statuses[cid] = std::move(st);
        abort.store(true, std::memory_order_relaxed);
        return;
      }
    }
  });

  // Phase imbalance: the slowest core's compute delta bounds the
  // phase, the mean is the perfectly balanced cost.
  ImbalanceStats phase;
  double sum = 0;
  for (size_t c = 0; c < ncores; ++c) {
    const double delta = cores_[c]->cycles().compute_cycles() - before[c];
    phase.max_core_cycles = std::max(phase.max_core_cycles, delta);
    sum += delta;
  }
  phase.mean_core_cycles = sum / static_cast<double>(ncores);
  phase.phases = 1;
  last_phase_imbalance_ = phase;
  imbalance_.Accumulate(phase);

  for (Status& st : statuses) {
    if (!st.ok()) return std::move(st);
  }
  return Status::OK();
}

double Dpu::MaxEffectiveCycles(bool double_buffered) const {
  double max_cycles = 0;
  for (const auto& core : cores_) {
    max_cycles =
        std::max(max_cycles, core->cycles().EffectiveCycles(double_buffered));
  }
  return max_cycles;
}

double Dpu::MaxEffectiveSeconds(bool double_buffered) const {
  return MaxEffectiveCycles(double_buffered) / params_.clock_hz;
}

double Dpu::ModeledPhaseCycles() const {
  double max_compute = 0;
  double sum_dms = 0;
  for (const auto& core : cores_) {
    max_compute = std::max(max_compute, core->cycles().compute_cycles());
    sum_dms += core->cycles().dms_cycles();
  }
  return std::max(max_compute, sum_dms);
}

double Dpu::TotalComputeCycles() const {
  double total = 0;
  for (const auto& core : cores_) total += core->cycles().compute_cycles();
  return total;
}

void Dpu::ResetCores() {
  for (auto& core : cores_) {
    core->cycles().Reset();
    core->dmem().Reset();
    core->counters() = CoreCounters{};
  }
  imbalance_ = ImbalanceStats{};
  last_phase_imbalance_ = ImbalanceStats{};
}

}  // namespace rapid::dpu
