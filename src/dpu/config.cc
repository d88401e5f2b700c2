#include "dpu/config.h"

#include "common/config.h"

namespace rapid::dpu {

DpuConfig DpuConfig::Default() {
  DpuConfig config;
  config.num_cores = GetConfig().cores;
  return config;
}

}  // namespace rapid::dpu
