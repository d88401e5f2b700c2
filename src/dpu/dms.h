// Data Movement System (Sections 2.3 and 5.4): the DPU's programmable
// data-movement engine. All DRAM <-> DMEM traffic flows through the
// DMS, programmed with descriptors. The DMS supports:
//
//   * streaming tile transfers (column slices, double-buffered),
//   * gather/scatter by RID list or bit vector,
//   * hardware partitioning: hash-radix (CRC32 over 1-4 keys), radix,
//     range (32 pre-programmed bounds) and round-robin, including the
//     skew mitigation that spreads a frequent range over several
//     dpCores round-robin.
//
// Every operation performs the real data movement on host memory and
// charges modeled cycles to the caller's CycleCounter (DMS stream, so
// double buffering can overlap it with compute).

#ifndef RAPID_DPU_DMS_H_
#define RAPID_DPU_DMS_H_

#include <cstdint>
#include <vector>

#include "common/bitvector.h"
#include "common/status.h"
#include "dpu/config.h"
#include "dpu/cost_model.h"

namespace rapid::dpu {

// One column's slice within a tile transfer descriptor.
struct ColumnSlice {
  const uint8_t* src = nullptr;
  uint8_t* dst = nullptr;
  size_t bytes = 0;
};

// A key column fed to the partition engine. Only fixed widths the
// hardware supports (Section 4.2).
struct KeyColumn {
  const uint8_t* data = nullptr;
  int width = 4;  // 1, 2, 4 or 8 bytes

  int64_t ValueAt(size_t row) const;
};

// Frequent-value range spread over multiple cores round-robin
// (Section 5.4, "dealing with skewed data").
struct SkewRange {
  int64_t lo = 0;
  int64_t hi = 0;  // inclusive
  std::vector<uint16_t> cores;
};

struct HwPartitionSpec {
  HwPartitionStrategy strategy = HwPartitionStrategy::kHash;
  std::vector<KeyColumn> keys;     // 1-4 keys for hash; 1 for radix/range
  int fanout = 32;                 // <= DpuConfig::hw_partition_fanout
  std::vector<int64_t> range_bounds;  // ascending upper bounds, for kRange
  std::vector<SkewRange> skew_ranges;  // optional, kRoundRobin only
};

class Dms {
 public:
  Dms(const DpuConfig& config, const CostParams& params)
      : config_(config), params_(params) {}

  const CostParams& params() const { return params_; }

  // ---- Streaming transfers ----

  // Executes one descriptor chain: copies every column slice and
  // charges the modeled transfer time. `read_write` marks an r+w
  // double-buffered loop (input and output slices in one chain).
  //
  // Transient descriptor failures (fault site "dms.transfer") are
  // retried up to params.dms_max_attempts times with exponential
  // backoff charged to `cycles`; a fault that persists past the budget
  // surfaces as kRetryExhausted and the slices are left untouched.
  Status TransferTile(CycleCounter* cycles,
                      const std::vector<ColumnSlice>& slices,
                      bool read_write) const;

  // Streams one `rows`-row tile of `columns` columns, `row_bytes`
  // bytes per row summed over them, whose data the caller reads in
  // place or copies itself (the partitioned join's build and probe key
  // tiles, a broadcast probe's build keys, the accessor's narrowing
  // load of an intermediate): one descriptor chain, polled, retried,
  // charged and traced as TransferTile does.
  Status LoadTile(CycleCounter* cycles, int columns, size_t rows,
                  size_t row_bytes) const;

  // Charges and traces one descriptor chain like LoadTile without
  // polling its descriptor. For the transfers whose failure the engine
  // does not model: stores of output rows, a pipeline's or a
  // partitioned join's (a failed morsel or pair recomputes its whole
  // output from its input, so a store fault adds no recovery path the
  // loads lack), and the join filter's key load (an optimization,
  // whose gate must not shift fault ordinals).
  void ChargeTile(CycleCounter* cycles, int columns, size_t rows,
                  size_t row_bytes) const;

  // Charges `bytes` streamed between DRAM and DMEM outside any tile
  // chain (a join filter's bit array).
  void ChargeStream(CycleCounter* cycles, size_t bytes) const;

  // ---- Gather / scatter ----

  // dst[i] = src[rids[i]] for fixed-width elements.
  void Gather(CycleCounter* cycles, uint8_t* dst, const uint8_t* src,
              const uint32_t* rids, size_t n, size_t width) const;

  // Gathers the rows whose bit is set; returns number gathered.
  size_t GatherBits(CycleCounter* cycles, uint8_t* dst, const uint8_t* src,
                    const BitVector& bits, size_t width) const;

  // dst[rids[i]] = src[i].
  void Scatter(CycleCounter* cycles, uint8_t* dst, const uint8_t* src,
               const uint32_t* rids, size_t n, size_t width) const;

  // Charges a gather of `n` random elements of `width` bytes whose data
  // the caller moves (a sort's permutation gather); Gather, GatherBits
  // and Scatter charge through it.
  void ChargeGather(CycleCounter* cycles, size_t n, size_t width) const;

  // ---- Hardware partitioning ----

  // Resolves the target dpCore id for each of `n` rows (the CID-memory
  // stage of the engine). Charges the partition-engine streaming cost
  // for `row_bytes` bytes per row. Partition descriptor faults
  // ("dms.partition") follow the same bounded retry policy as
  // TransferTile.
  Status ComputeTargets(CycleCounter* cycles, const HwPartitionSpec& spec,
                        size_t n, size_t row_bytes,
                        std::vector<uint16_t>* targets) const;

  // Charges one partition-engine pass over `rows` rows of `bytes`
  // bytes: the hash engine over `keys` keys when `hardware`, else the
  // plain stream of a software-only round. Unpolled: the caller polls
  // the pass's "dms.partition" descriptor once per morsel or work unit
  // (RunDescriptor), and charges each tile of it here.
  void ChargePartition(CycleCounter* cycles, bool hardware, int keys,
                       size_t rows, size_t bytes) const;

  // Shared retry policy for DMS descriptor programming: polls the
  // fault site up to params.dms_max_attempts times, charging
  // exponentially growing backoff cycles between attempts. Returns OK
  // once an attempt succeeds, kRetryExhausted when the fault persists,
  // or the fault verbatim when it is not transient (cancellation).
  Status RunDescriptor(CycleCounter* cycles, const char* site) const;

  // Distributes one column into per-target buffers according to a
  // previously computed target map. Buffers grow as needed (the real
  // DMS would flush them to the target core's DMEM).
  void DistributeColumn(CycleCounter* cycles, const uint8_t* col, size_t width,
                        const std::vector<uint16_t>& targets,
                        std::vector<std::vector<uint8_t>>* out) const;

  // CRC32 of up to 4 keys for one row, as computed by the hash engine.
  static uint32_t HashKeys(const std::vector<KeyColumn>& keys, size_t row);

 private:
  // Charges and traces (`dms.transfer`) one descriptor chain of
  // `columns` columns moving `bytes` bytes in all (per direction);
  // `traced_bytes` is the traced payload.
  void ChargeChain(CycleCounter* cycles, int columns, size_t bytes,
                   bool read_write, size_t traced_bytes) const;

  DpuConfig config_;
  CostParams params_;
};

}  // namespace rapid::dpu

#endif  // RAPID_DPU_DMS_H_
