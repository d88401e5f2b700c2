// ExecCtx: per-core execution context handed to operators. Bundles
// the dpCore (DMEM arena + cycle counter), the DMS and the cost
// parameters. One ExecCtx exists per core per task execution.

#ifndef RAPID_CORE_QEF_EXEC_CTX_H_
#define RAPID_CORE_QEF_EXEC_CTX_H_

#include "common/cancel.h"
#include "common/status.h"
#include "dpu/cost_model.h"
#include "dpu/dms.h"
#include "dpu/dpcore.h"

namespace rapid::core {

struct ExecCtx {
  dpu::DpCore* core = nullptr;
  dpu::Dms* dms = nullptr;
  const dpu::CostParams* params = nullptr;

  // Vectorized execution toggle (Figure 13 ablation). When false,
  // operators charge the row-at-a-time interpretation overhead.
  bool vectorized = true;

  // Query-level cancellation token (may be null). Operators poll it at
  // tile boundaries so a cancelled query unwinds within one tile round
  // rather than running to completion.
  const CancelToken* cancel = nullptr;

  Status CheckCancel() const { return CancelToken::Check(cancel); }

  dpu::Dmem& dmem() { return core->dmem(); }
  dpu::CycleCounter& cycles() { return core->cycles(); }

  // Tile-local buffer pool of the executing core; recycles scratch
  // buffers across tiles and queries (see common/arena.h).
  TileBufferPool& pool() { return core->pool(); }

  // DMS cycles are charged through `dms`, never directly.
  void ChargeCompute(double cycles) { core->cycles().ChargeCompute(cycles); }

  // Row-at-a-time penalty applied by operators when vectorization is
  // disabled: per-row primitive call/setup overhead that batching
  // amortizes away.
  void ChargeVectorizationPenalty(size_t rows) {
    if (!vectorized) {
      core->cycles().ChargeCompute(params->row_at_a_time_overhead_cycles *
                                   static_cast<double>(rows));
    }
  }
};

}  // namespace rapid::core

#endif  // RAPID_CORE_QEF_EXEC_CTX_H_
