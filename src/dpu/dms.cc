#include "dpu/dms.h"

#include <algorithm>
#include <cstring>

#include "common/crc32.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/trace.h"

namespace rapid::dpu {

int64_t KeyColumn::ValueAt(size_t row) const {
  switch (width) {
    case 1:
      return static_cast<int64_t>(
          reinterpret_cast<const int8_t*>(data)[row]);
    case 2: {
      int16_t v;
      std::memcpy(&v, data + row * 2, 2);
      return v;
    }
    case 4: {
      int32_t v;
      std::memcpy(&v, data + row * 4, 4);
      return v;
    }
    case 8: {
      int64_t v;
      std::memcpy(&v, data + row * 8, 8);
      return v;
    }
    default:
      RAPID_CHECK(false);
  }
}

Status Dms::RunDescriptor(CycleCounter* cycles, const char* site) const {
  if (!FaultInjector::enabled()) return Status::OK();
  // All of the descriptor's attempts in one call, so they are
  // consecutive hits of the site even while other cores transfer.
  const int max_attempts = params_.dms_max_attempts;
  const FaultInjector::Attempts attempts =
      FaultInjector::Instance().PollAttempts(site, max_attempts);
  if (cycles != nullptr) {
    // Reprogram + settle before each retry, with doubling backoff.
    const int retries = std::min(attempts.transient_failures,
                                 max_attempts - 1);
    double backoff = params_.dms_retry_backoff_cycles;
    for (int r = 0; r < retries; ++r) {
      cycles->ChargeDms(backoff);
      backoff *= 2;
    }
  }
  // Cancellation-class faults are not transient; retrying a dead query
  // only burns cycles.
  if (attempts.last.ok() || attempts.last.IsCancellation()) {
    return attempts.last;
  }
  return Status::RetryExhausted("DMS descriptor failed " +
                                std::to_string(max_attempts) +
                                " attempts at '" + site +
                                "': " + attempts.last.ToString());
}

Status Dms::TransferTile(CycleCounter* cycles,
                         const std::vector<ColumnSlice>& slices,
                         bool read_write) const {
  RAPID_RETURN_NOT_OK(RunDescriptor(cycles, faults::kDmsTransfer));
  size_t total_bytes = 0;
  for (const ColumnSlice& s : slices) {
    std::memcpy(s.dst, s.src, s.bytes);
    total_bytes += s.bytes;
  }
  if (cycles != nullptr) {
    // The transfer formula charges per-column descriptor overhead plus
    // streaming time for the payload bytes; `read_write` marks that
    // the chain interleaves read and write descriptors.
    const int columns =
        read_write ? static_cast<int>(slices.size()) / 2
                   : static_cast<int>(slices.size());
    const size_t payload = read_write ? total_bytes / 2 : total_bytes;
    const size_t per_col =
        columns > 0 ? payload / static_cast<size_t>(columns) : 0;
    const double dms_cycles = DmsTileTransferCycles(
        params_, columns > 0 ? columns : 1, per_col, 1, read_write);
    cycles->ChargeDms(dms_cycles);
    if (TraceCollector::Recording(TraceMode::kFull)) {
      TraceCollector::Instance().RecordDms(
          "dms.transfer", dms_cycles,
          {TraceCollector::Arg::U("bytes", total_bytes),
           TraceCollector::Arg::I("columns", columns),
           TraceCollector::Arg::S("mode", read_write ? "rw" : "ro")});
    }
  }
  return Status::OK();
}

void Dms::Gather(CycleCounter* cycles, uint8_t* dst, const uint8_t* src,
                 const uint32_t* rids, size_t n, size_t width) const {
  for (size_t i = 0; i < n; ++i) {
    std::memcpy(dst + i * width, src + static_cast<size_t>(rids[i]) * width,
                width);
  }
  if (cycles != nullptr) {
    cycles->ChargeDms(DmsGatherCycles(params_, n, width));
  }
}

size_t Dms::GatherBits(CycleCounter* cycles, uint8_t* dst, const uint8_t* src,
                       const BitVector& bits, size_t width) const {
  size_t out = 0;
  for (size_t wi = 0; wi < bits.num_words(); ++wi) {
    uint64_t w = bits.words()[wi];
    while (w != 0) {
      const size_t row = wi * 64 + static_cast<size_t>(__builtin_ctzll(w));
      std::memcpy(dst + out * width, src + row * width, width);
      ++out;
      w &= (w - 1);
    }
  }
  if (cycles != nullptr) {
    cycles->ChargeDms(DmsGatherCycles(params_, out, width));
  }
  return out;
}

void Dms::Scatter(CycleCounter* cycles, uint8_t* dst, const uint8_t* src,
                  const uint32_t* rids, size_t n, size_t width) const {
  for (size_t i = 0; i < n; ++i) {
    std::memcpy(dst + static_cast<size_t>(rids[i]) * width, src + i * width,
                width);
  }
  if (cycles != nullptr) {
    cycles->ChargeDms(DmsGatherCycles(params_, n, width));
  }
}

uint32_t Dms::HashKeys(const std::vector<KeyColumn>& keys, size_t row) {
  uint32_t crc = 0xFFFFFFFFu;
  for (const KeyColumn& key : keys) {
    crc = Crc32Combine(crc, static_cast<uint64_t>(key.ValueAt(row)));
  }
  return crc;
}

Status Dms::ComputeTargets(CycleCounter* cycles, const HwPartitionSpec& spec,
                           size_t n, size_t row_bytes,
                           std::vector<uint16_t>* targets) const {
  if (spec.fanout < 1 || spec.fanout > config_.hw_partition_fanout) {
    return Status::InvalidArgument("hardware partition fan-out must be 1.." +
                                   std::to_string(config_.hw_partition_fanout));
  }
  if (spec.strategy == HwPartitionStrategy::kHash &&
      (spec.keys.empty() || spec.keys.size() > 4)) {
    return Status::InvalidArgument("hash partitioning supports 1-4 keys");
  }
  if ((spec.strategy == HwPartitionStrategy::kRadix ||
       spec.strategy == HwPartitionStrategy::kRange) &&
      spec.keys.size() != 1) {
    return Status::InvalidArgument("radix/range partitioning needs one key");
  }
  if (spec.strategy == HwPartitionStrategy::kRange &&
      spec.range_bounds.size() + 1 != static_cast<size_t>(spec.fanout)) {
    return Status::InvalidArgument(
        "range partitioning needs fanout-1 ascending bounds");
  }
  RAPID_RETURN_NOT_OK(RunDescriptor(cycles, faults::kDmsPartition));

  targets->resize(n);
  const uint32_t mask = static_cast<uint32_t>(spec.fanout) - 1;
  switch (spec.strategy) {
    case HwPartitionStrategy::kHash: {
      // The hash engine writes CRC32 values to CRC memory, then the
      // radix bits select the target dpCore id (CID memory).
      for (size_t i = 0; i < n; ++i) {
        (*targets)[i] = static_cast<uint16_t>(HashKeys(spec.keys, i) & mask);
      }
      break;
    }
    case HwPartitionStrategy::kRadix: {
      // Least significant log2(fanout) bits of the key (Section 7.1).
      const KeyColumn& key = spec.keys[0];
      for (size_t i = 0; i < n; ++i) {
        (*targets)[i] = static_cast<uint16_t>(
            static_cast<uint64_t>(key.ValueAt(i)) & mask);
      }
      break;
    }
    case HwPartitionStrategy::kRange: {
      // Match against the 32 pre-programmed range bounds.
      const KeyColumn& key = spec.keys[0];
      for (size_t i = 0; i < n; ++i) {
        const int64_t v = key.ValueAt(i);
        uint16_t t = static_cast<uint16_t>(spec.range_bounds.size());
        for (size_t b = 0; b < spec.range_bounds.size(); ++b) {
          if (v < spec.range_bounds[b]) {
            t = static_cast<uint16_t>(b);
            break;
          }
        }
        (*targets)[i] = t;
      }
      break;
    }
    case HwPartitionStrategy::kRoundRobin: {
      // Plain round-robin, except rows inside a programmed frequent
      // range rotate over that range's dedicated core set.
      std::vector<size_t> skew_cursor(spec.skew_ranges.size(), 0);
      size_t cursor = 0;
      const bool keyed = !spec.keys.empty();
      for (size_t i = 0; i < n; ++i) {
        bool handled = false;
        if (keyed && !spec.skew_ranges.empty()) {
          const int64_t v = spec.keys[0].ValueAt(i);
          for (size_t s = 0; s < spec.skew_ranges.size(); ++s) {
            const SkewRange& sr = spec.skew_ranges[s];
            if (v >= sr.lo && v <= sr.hi && !sr.cores.empty()) {
              (*targets)[i] = sr.cores[skew_cursor[s] % sr.cores.size()];
              ++skew_cursor[s];
              handled = true;
              break;
            }
          }
        }
        if (!handled) {
          (*targets)[i] =
              static_cast<uint16_t>(cursor % static_cast<size_t>(spec.fanout));
          ++cursor;
        }
      }
      break;
    }
  }

  if (cycles != nullptr) {
    cycles->ChargeDms(HwPartitionCycles(params_, spec.strategy,
                                        static_cast<int>(spec.keys.size()), n,
                                        n * row_bytes));
  }
  return Status::OK();
}

void Dms::DistributeColumn(CycleCounter* cycles, const uint8_t* col,
                           size_t width,
                           const std::vector<uint16_t>& targets,
                           std::vector<std::vector<uint8_t>>* out) const {
  // Histogram pass first: sizing every target buffer up front turns
  // the distribution into one reservation per target instead of
  // log-many growth reallocations while the engine streams rows.
  std::vector<size_t> extra(out->size(), 0);
  for (const uint16_t t : targets) extra[t] += width;
  for (size_t t = 0; t < out->size(); ++t) {
    if (extra[t] > 0) (*out)[t].reserve((*out)[t].size() + extra[t]);
  }
  for (size_t i = 0; i < targets.size(); ++i) {
    std::vector<uint8_t>& buf = (*out)[targets[i]];
    buf.insert(buf.end(), col + i * width, col + (i + 1) * width);
  }
  if (cycles != nullptr) {
    // Distribution is part of the same engine pass; only the payload
    // streaming is charged (target resolution was charged already).
    cycles->ChargeDms(static_cast<double>(targets.size()) * width /
                      params_.partition_bytes_per_cycle);
  }
}

}  // namespace rapid::dpu
