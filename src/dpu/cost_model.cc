#include "dpu/cost_model.h"

namespace rapid::dpu {

const CostParams& CostParams::Default() {
  static const CostParams params;
  return params;
}

}  // namespace rapid::dpu
