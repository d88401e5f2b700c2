// DPU architectural parameters (Section 2 of the paper).
//
// These are the published numbers for the RAPID Data Processing Unit:
// 32 dpCores in 4 macros, 800 MHz, 32 KiB DMEM scratchpad per core,
// 16 KiB L1-D / 8 KiB L1-I, 256 KiB shared L2 per macro, 51 mW dynamic
// power per core, 5.8 W provisioned for the chip.

#ifndef RAPID_DPU_CONFIG_H_
#define RAPID_DPU_CONFIG_H_

#include <cstddef>
#include <cstdint>

namespace rapid::dpu {

struct DpuConfig {
  // Core organization.
  int num_cores = 32;
  int num_macros = 4;
  int cores_per_macro = 8;

  // Memories.
  size_t dmem_bytes = 32 * 1024;   // per-core scratchpad
  size_t l1d_bytes = 16 * 1024;    // per-core L1 data cache
  size_t l1i_bytes = 8 * 1024;     // per-core L1 instruction cache
  size_t l2_bytes = 256 * 1024;    // per-macro shared L2

  // Clock and power.
  double clock_hz = 800e6;
  double core_dynamic_power_w = 0.051;  // 51 mW per dpCore
  double chip_power_w = 5.8;            // provisioned DPU power

  // DMS hardware partitioning fan-out: one target per dpCore.
  int hw_partition_fanout = 32;

  // Storage model sweet spots (Section 4.1).
  size_t vector_bytes = 16 * 1024;  // column vector size in a chunk
  size_t min_tile_rows = 64;        // minimum unit of operator transfer

  // Paper defaults with `num_cores` from the config's `cores` field
  // (RAPID_CORES, common/config.h). Used by the scheduler determinism
  // suite and CI to run the whole engine at other core counts —
  // results are bit-identical by construction.
  static DpuConfig Default();
};

}  // namespace rapid::dpu

#endif  // RAPID_DPU_CONFIG_H_
