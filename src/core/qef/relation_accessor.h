// RelationAccessor (Section 5.1, "Relational Data Access Model").
//
// Operators declare *what* they need (which columns, what access
// pattern); the RA programs the DMS descriptor loops, double-buffers
// DMEM tiles and pushes them into the operator pipeline, hiding all
// DMS complexity. Supported patterns: sequential, gather (by RID
// list), and partitioned (in combination with the partition operator).

#ifndef RAPID_CORE_QEF_RELATION_ACCESSOR_H_
#define RAPID_CORE_QEF_RELATION_ACCESSOR_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/qef/column_set.h"
#include "core/qef/exec_ctx.h"
#include "core/qef/operator.h"
#include "storage/table.h"

namespace rapid::core {

class RelationAccessor {
 public:
  // Sequential access over base-table chunks: transfers each tile's
  // column slices into DMEM via the DMS (double-buffered), rescales
  // decimal vectors to the column-level DSB scale, and pushes tiles
  // into `op`. `chunks` is this core's share of the relation.
  // `column_indices`/`target_scales` select and normalize columns.
  static Status PushChunks(ExecCtx& ctx,
                           const std::vector<const storage::Chunk*>& chunks,
                           const std::vector<size_t>& column_indices,
                           const std::vector<int>& target_scales,
                           size_t tile_rows, PipelineOp* op);

  // Sequential access over a DRAM-resident intermediate (rows
  // [row_begin, row_end) of `set`), tile by tile. Each column lands in
  // DMEM at its meta's physical width (TileColumn::width), the width
  // the set stores it at, and the DMS is charged those bytes.
  static Status PushColumnSet(ExecCtx& ctx, const ColumnSet& set,
                              const std::vector<size_t>& column_indices,
                              size_t row_begin, size_t row_end,
                              size_t tile_rows, PipelineOp* op);

  // DMEM bytes the accessor itself needs for input tile buffers
  // (double-buffered: 2x per column), used by task formation.
  static size_t InputDmemBytes(const std::vector<size_t>& widths,
                               size_t tile_rows) {
    size_t bytes = 0;
    for (size_t w : widths) bytes += 2 * w * tile_rows;
    return bytes;
  }
};

}  // namespace rapid::core

#endif  // RAPID_CORE_QEF_RELATION_ACCESSOR_H_
