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
// each core sees and whether MergeFrom runs afterwards.

#ifndef RAPID_CORE_OPS_GROUPBY_OP_H_
#define RAPID_CORE_OPS_GROUPBY_OP_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "core/expr.h"
#include "core/qef/column_set.h"
#include "core/qef/operator.h"
#include "primitives/agg.h"

namespace rapid::core {

enum class AggFunc { kSum, kMin, kMax, kCount };

struct AggSpec {
  std::string name;
  AggFunc func = AggFunc::kCount;
  ExprPtr expr;  // input expression; null for COUNT(*)
  // Optional FILTER clause: only qualifying rows feed this aggregate
  // (how the compiler lowers CASE WHEN <pred> THEN <expr> END inside
  // an aggregate, e.g. TPC-H Q14's promo_revenue numerator).
  std::shared_ptr<Predicate> filter;
};

// Chained hash table over columnar key/aggregate storage. Sized by
// the planner's NDV estimate; lives in DMEM in the real system.
class GroupHashTable {
 public:
  GroupHashTable(size_t num_keys, size_t num_aggs);

  // Returns the group index for `keys`, inserting a new group if
  // needed. `chain_steps` (optional) accumulates collision-chain
  // traversals for cycle accounting.
  size_t GroupFor(const int64_t* keys, uint64_t* chain_steps = nullptr);
  // Batched form: row `row` of the key columns `key_cols`, whose
  // chained CRC32 `hash` a batch kernel already computed (e.g.
  // primitives::HashCombineTile). Same groups, same chain steps.
  size_t GroupFor(uint32_t hash,
                  const std::vector<std::vector<int64_t>>& key_cols,
                  size_t row, uint64_t* chain_steps);

  void UpdateSum(size_t group, size_t agg, int64_t value) {
    states_[agg][group].sum += value;
  }
  void UpdateMin(size_t group, size_t agg, int64_t value) {
    auto& st = states_[agg][group];
    if (value < st.min) st.min = value;
  }
  void UpdateMax(size_t group, size_t agg, int64_t value) {
    auto& st = states_[agg][group];
    if (value > st.max) st.max = value;
  }
  void UpdateCount(size_t group, size_t agg) { ++states_[agg][group].count; }

  size_t num_groups() const { return num_groups_; }
  int64_t key(size_t group, size_t k) const { return keys_[k][group]; }
  const primitives::AggState& state(size_t group, size_t agg) const {
    return states_[agg][group];
  }

  // Merge operator (low-NDV strategy): folds `other` into this table.
  void MergeFrom(const GroupHashTable& other,
                 const std::vector<AggFunc>& funcs);

  // Approximate DMEM footprint (keys + states + buckets).
  size_t ByteSize() const;

 private:
  template <typename KeyAt>
  size_t Probe(uint32_t hash, const KeyAt& key_at, uint64_t* chain_steps);
  void MaybeGrow();

  size_t num_keys_;
  size_t num_groups_ = 0;
  std::vector<std::vector<int64_t>> keys_;  // [key][group]
  std::vector<std::vector<primitives::AggState>> states_;  // [agg][group]
  // Compact chained table (DMEM-style integer arrays, like the join
  // kernel): heads_ maps hash buckets to the last group inserted,
  // next_ chains groups with colliding hashes.
  std::vector<int32_t> heads_;
  std::vector<int32_t> next_;
  std::vector<uint32_t> hashes_;  // per group, for cheap rehashing
};

class GroupByOp : public PipelineOp {
 public:
  GroupByOp(std::vector<ExprPtr> keys, std::vector<AggSpec> aggs,
            ColumnBinding binding);

  size_t DmemBytes(size_t tile_rows) const override;
  Status Open(ExecCtx& ctx) override;
  Status Consume(ExecCtx& ctx, const Tile& tile) override;
  Status Finish(ExecCtx& ctx) override;

  GroupHashTable& table() { return table_; }
  const std::vector<AggFunc> funcs() const;
  // DSB scales of key columns / aggregate results observed during
  // execution (needed to decode the output).
  const std::vector<int>& key_scales() const { return key_scales_; }
  const std::vector<int>& agg_scales() const { return agg_scales_; }

  // Emits groups + aggregates into `out` (columns: keys then aggs).
  Status EmitInto(ColumnSet* out) const;

 private:
  std::vector<ExprPtr> keys_;
  std::vector<AggSpec> aggs_;
  ColumnBinding binding_;
  GroupHashTable table_;
  std::vector<int> key_scales_;
  std::vector<int> agg_scales_;
  std::vector<std::vector<int64_t>> key_scratch_;
  std::vector<std::vector<int64_t>> agg_scratch_;
  std::vector<uint32_t> hash_scratch_;
};

}  // namespace rapid::core

#endif  // RAPID_CORE_OPS_GROUPBY_OP_H_
