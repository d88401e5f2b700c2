// Group-by operator (Section 5.4).
//
// RAPID has two group-by strategies chosen by QComp from NDV
// statistics:
//  * High NDV: a partitioning phase distributes distinct groups across
//    dpCores so each core's hash table fits in DMEM; this operator
//    then runs per partition with disjoint key sets (no merge needed).
//  * Low NDV: the operator runs on-the-fly over each core's share of
//    the input, and a *merge operator* combines the small per-core
//    tables afterwards (merge works on aggregated data, low overhead).
//
// Both strategies use this operator; the strategy decides what input
// each core sees and whether MergeFrom runs afterwards. A low-NDV
// group-by is always a pipeline's aggregate sink (PipelineStep), over
// its fused chain or alone over a materialized input: one operator per
// core over that core's morsels, merged afterwards and emitted in
// first-appearance order by position stamps. The high-NDV strategy is
// GroupByStep's, one operator per core Reset for each partition.

#ifndef RAPID_CORE_OPS_GROUPBY_OP_H_
#define RAPID_CORE_OPS_GROUPBY_OP_H_

#include <string>
#include <vector>

#include "core/expr.h"
#include "core/qef/column_set.h"
#include "core/qef/operator.h"
#include "primitives/agg.h"

namespace rapid::core {

// The aggregate functions are the primitive layer's: the operator
// hands each one straight to its grouped loop.
using AggFunc = primitives::AggOp;

struct AggSpec {
  std::string name;
  AggFunc func = AggFunc::kCount;
  ExprPtr expr;  // input expression; null for COUNT(*)
  // Optional FILTER clause: only qualifying rows feed this aggregate
  // (how the compiler lowers CASE WHEN <pred> THEN <expr> END inside
  // an aggregate, e.g. TPC-H Q14's promo_revenue numerator).
  std::shared_ptr<Predicate> filter;
};

// SQL answers a keyless aggregate over no rows with one row, but
// these engines have no NULL: the row exists only when every aggregate
// is a COUNT (each 0), and a SUM, MIN or MAX over no rows is an error
// rather than a silently empty result. Returns OK when the row exists,
// else that error; both engines' group-bys ask it.
Status KeylessOverNoRows(const std::vector<AggSpec>& aggs);

// Chained hash table over columnar key/aggregate storage; lives in
// DMEM in the real system. Starts at 64 buckets (or at the size Reset
// asks for) and doubles whenever the groups outnumber the buckets.
// The caller picks which hash bits the table sees: a high-NDV
// partition passes its CRCs shifted past the bits that chose the
// partition, or every group would share one bucket.
class GroupHashTable {
 public:
  GroupHashTable(size_t num_keys, std::vector<AggFunc> funcs);

  // DMEM a stamped table of `groups` groups occupies (a fused
  // aggregate's): keys and aggregate states, a chain link, stored hash
  // and first-appearance stamp per group, and one bucket head per
  // bucket at its load (at least 64 buckets).
  static size_t DmemBytes(size_t num_keys, size_t num_aggs, size_t groups);

  // Empties the table, keeping its allocations, and presizes it for
  // up to `expected_rows` groups (at least 64 buckets).
  void Reset(size_t expected_rows);

  // Returns the group index for `keys`, inserting a new group if
  // needed. `chain_steps` (optional) accumulates collision-chain
  // traversals for cycle accounting.
  size_t GroupFor(const int64_t* keys, uint64_t* chain_steps = nullptr);
  // Batched form: row `row` of the key columns `key_cols`, whose
  // chained CRC32 `hash` a batch kernel already computed (e.g.
  // primitives::HashKeysTile). Same groups, same chain steps.
  size_t GroupFor(uint32_t hash,
                  const std::vector<std::vector<int64_t>>& key_cols,
                  size_t row, uint64_t* chain_steps);

  // Folds rows [0, n) of `values` (or those set in `selected`, if
  // non-null) into aggregate `agg` of the groups `groups` names.
  void UpdateColumn(size_t agg, const int64_t* values, const uint32_t* groups,
                    size_t n, const BitVector* selected);

  size_t num_groups() const { return num_groups_; }
  int64_t key(size_t group, size_t k) const { return keys_[k][group]; }
  // Aggregate `agg` of every group, by group id. A MIN or MAX that no
  // row reached holds its AggInit value.
  const std::vector<int64_t>& agg_column(size_t agg) const {
    return states_[agg];
  }

  // Merge operator (low-NDV strategy): folds `other`, built with the
  // same functions and hash shift, into this table. First-appearance
  // stamps fold as a minimum.
  void MergeFrom(const GroupHashTable& other);

  // Lowers the first-appearance stamp of each of `groups`' n groups to
  // its row's input position: `position` for row 0, one more per row.
  // A table holds stamps only once this (or a MergeFrom of a stamped
  // table) runs; groups no row stamped keep kUnstamped.
  void Stamp(const uint32_t* groups, size_t n, uint64_t position);
  // Group ids of a stamped table in ascending stamp order.
  std::vector<uint32_t> GroupsByStamp() const;

 private:
  template <typename KeyAt>
  size_t Probe(uint32_t hash, const KeyAt& key_at, uint64_t* chain_steps);
  void MaybeGrow();

  size_t num_keys_;
  std::vector<AggFunc> funcs_;
  size_t num_groups_ = 0;
  std::vector<std::vector<int64_t>> keys_;    // [key][group]
  std::vector<std::vector<int64_t>> states_;  // [agg][group]
  // Compact chained table (DMEM-style integer arrays, like the join
  // kernel): heads_ maps hash buckets to the last group inserted,
  // next_ chains groups with colliding hashes.
  std::vector<int32_t> heads_;
  std::vector<int32_t> next_;
  std::vector<uint32_t> hashes_;  // per group, for cheap rehashing
  static constexpr uint64_t kUnstamped = ~uint64_t{0};
  // Per group, first input position; empty in an unstamped table.
  std::vector<uint64_t> stamps_;
};

class GroupByOp : public PipelineOp {
 public:
  // `keys` and the aggregates' expressions and FILTER clauses are
  // bound to the input tile's slots (Bind). `hash_shift` drops the low
  // key-hash bits before bucketing: the bits an upstream partitioning
  // already spent (0 when unpartitioned).
  GroupByOp(std::vector<ExprPtr> keys, std::vector<AggSpec> aggs,
            int hash_shift = 0);

  size_t DmemBytes(size_t tile_rows) const override;
  Status Open(ExecCtx& ctx) override;
  Status Consume(ExecCtx& ctx, const Tile& tile) override;
  Status Finish(ExecCtx& ctx) override;

  // Readies the operator for a new input of `expected_rows` rows whose
  // keys share their low `hash_shift` hash bits. Keeps every
  // allocation, so one operator serves all of a core's partitions.
  void Reset(int hash_shift, size_t expected_rows);

  // Stamps the groups of the following tiles with their input
  // position, `position` for the next row and one more per row, and
  // makes EmitInto emit groups in stamp order. A fused pipeline calls
  // it at each morsel with (morsel << 32), so stamps order rows as the
  // morsel-ordered materialized input would.
  void StampFrom(uint64_t position) {
    stamped_ = true;
    next_position_ = position;
  }

  // Folds another core's operator (same keys, aggregates and shift)
  // into this one.
  void MergeFrom(const GroupByOp& other);

  GroupHashTable& table() { return table_; }
  // Collision-chain steps walked since construction or Reset.
  uint64_t chain_steps() const { return chain_steps_; }
  // Input rows consumed since construction or Reset.
  uint64_t rows() const { return rows_; }

  // Emits groups + aggregates into `out` (columns: keys then aggs), in
  // stamp order once StampFrom was called, else in table order. The
  // caller derives `out`'s metas from the input (GroupByOutputMetas).
  Status EmitInto(ColumnSet* out) const;

 private:
  std::vector<ExprPtr> keys_;
  std::vector<AggSpec> aggs_;
  int hash_shift_;
  GroupHashTable table_;
  uint64_t chain_steps_ = 0;
  uint64_t rows_ = 0;
  bool stamped_ = false;
  uint64_t next_position_ = 0;
  // Per-tile scratch, sized on first use and kept across tiles and
  // Resets.
  std::vector<std::vector<int64_t>> key_scratch_;
  std::vector<std::vector<int64_t>> agg_scratch_;
  std::vector<BitVector> agg_filters_;
  std::vector<const int64_t*> key_cols_;
  std::vector<uint32_t> hash_scratch_;
  std::vector<uint32_t> group_ids_;
};

}  // namespace rapid::core

#endif  // RAPID_CORE_OPS_GROUPBY_OP_H_
