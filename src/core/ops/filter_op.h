// Filter operator (Section 5.4).
//
// Evaluates an ordered conjunction of predicates over each input tile:
// the most selective predicate runs first over the full tile, and
// subsequent predicates refine only the qualifying rows (the
// bit-vector driven bvld/filteq loop of Listing 1). The modeled
// qualifying-row representation is chosen by the planner: a RID list
// when expected selectivity < 1/32 (RIDs are 32-bit, so below that the
// list is smaller than the bit vector), a bit vector otherwise. On the
// host the chain keeps a bit vector while the selection is dense and
// switches to a RID list once it falls to the next predicate's
// crossover (RefinesOnRids); the charges are the same either way.
//
// The operator supports late materialization: projection columns are
// gathered *after* all predicates are evaluated, so only qualifying
// rows move (a tile where every row qualifies is copied contiguously).
// Gathered output columns are widened to int64 tiles for downstream
// operators.

#ifndef RAPID_CORE_OPS_FILTER_OP_H_
#define RAPID_CORE_OPS_FILTER_OP_H_

#include <vector>

#include "common/arena.h"
#include "core/expr.h"
#include "core/qef/operator.h"

namespace rapid::core {

class FilterOp : public PipelineOp {
 public:
  // `predicates` are bound to the input tile's slots (Bind) and
  // already ordered most-selective-first by the planner.
  // `output_slots` are the input slots to materialize for downstream
  // operators, in output order. `use_rid_list` is the planner's
  // modeled representation: with a RID list the primitives emit the
  // list, so the bit-vector-to-RID pass is not charged.
  FilterOp(std::vector<Predicate> predicates,
           std::vector<size_t> output_slots, size_t tile_rows,
           bool use_rid_list);

  size_t DmemBytes(size_t tile_rows) const override;
  Status Open(ExecCtx& ctx) override;
  Status Consume(ExecCtx& ctx, const Tile& tile) override;
  Status Finish(ExecCtx& ctx) override;

  uint64_t rows_in() const { return rows_in_; }
  uint64_t rows_out() const { return rows_out_; }

 private:
  std::vector<Predicate> predicates_;
  std::vector<size_t> output_slots_;
  size_t tile_rows_;
  bool use_rid_list_;

  // Output tile storage (widened), one recycled tile-pool buffer per
  // output column; the RID scratch rides in the pool too.
  std::vector<TileBufferPool::Handle> out_buffers_;
  TileBufferPool::Handle rid_buffer_;
  // Qualifying rows of the tile in flight; its bit vectors are hoisted
  // so per-tile evaluation reuses their capacity, and its RID list is
  // rid_buffer_.
  Selection selection_;
  // The output tile, its columns pointed at out_buffers_ once in Open.
  Tile out_;
  uint64_t rows_in_ = 0;
  uint64_t rows_out_ = 0;
};

}  // namespace rapid::core

#endif  // RAPID_CORE_OPS_FILTER_OP_H_
