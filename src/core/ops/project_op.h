// Project operator: evaluates arithmetic expressions over incoming
// tiles (widened), producing a tile with one column per projection.
// Part of a task's pipeline; never materializes on its own.

#ifndef RAPID_CORE_OPS_PROJECT_OP_H_
#define RAPID_CORE_OPS_PROJECT_OP_H_

#include <vector>

#include "common/arena.h"
#include "core/expr.h"
#include "core/qef/operator.h"

namespace rapid::core {

class ProjectOp : public PipelineOp {
 public:
  // `projections` are bound to the input tile's slots (Bind), one
  // output column each, in output order.
  ProjectOp(std::vector<ExprPtr> projections, size_t tile_rows);

  size_t DmemBytes(size_t tile_rows) const override;
  Status Open(ExecCtx& ctx) override;
  Status Consume(ExecCtx& ctx, const Tile& tile) override;
  Status Finish(ExecCtx& ctx) override;

 private:
  std::vector<ExprPtr> projections_;
  size_t tile_rows_;
  // Recycled tile-pool buffers, one per computed projection (acquired
  // in Open, released back to the core's pool when the operator is
  // destroyed). A bare column aliases its input column and has none.
  std::vector<TileBufferPool::Handle> out_buffers_;
  // The output tile; a computed column's buffer and scale are set once
  // in Open.
  Tile out_;
};

}  // namespace rapid::core

#endif  // RAPID_CORE_OPS_PROJECT_OP_H_
