#include "core/ops/groupby_op.h"

#include "common/crc32.h"
#include "common/logging.h"
#include "primitives/hash.h"

namespace rapid::core {

GroupHashTable::GroupHashTable(size_t num_keys, size_t num_aggs)
    : num_keys_(num_keys), keys_(num_keys), states_(num_aggs),
      heads_(64, -1) {}

void GroupHashTable::MaybeGrow() {
  if (num_groups_ < heads_.size()) return;
  heads_.assign(heads_.size() * 2, -1);
  const uint32_t mask = static_cast<uint32_t>(heads_.size()) - 1;
  for (size_t g = 0; g < num_groups_; ++g) {
    const uint32_t idx = hashes_[g] & mask;
    next_[g] = heads_[idx];
    heads_[idx] = static_cast<int32_t>(g);
  }
}

template <typename KeyAt>
size_t GroupHashTable::Probe(uint32_t hash, const KeyAt& key_at,
                             uint64_t* chain_steps) {
  const uint32_t mask = static_cast<uint32_t>(heads_.size()) - 1;
  for (int32_t g = heads_[hash & mask]; g >= 0;
       g = next_[static_cast<size_t>(g)]) {
    if (chain_steps != nullptr) ++*chain_steps;
    if (hashes_[static_cast<size_t>(g)] != hash) continue;
    bool match = true;
    for (size_t k = 0; k < num_keys_; ++k) {
      if (keys_[k][static_cast<size_t>(g)] != key_at(k)) {
        match = false;
        break;
      }
    }
    if (match) return static_cast<size_t>(g);
  }
  // New group.
  const auto group = static_cast<uint32_t>(num_groups_);
  ++num_groups_;
  for (size_t k = 0; k < num_keys_; ++k) keys_[k].push_back(key_at(k));
  for (auto& st : states_) st.emplace_back();
  hashes_.push_back(hash);
  next_.push_back(heads_[hash & mask]);
  heads_[hash & mask] = static_cast<int32_t>(group);
  MaybeGrow();
  return group;
}

size_t GroupHashTable::GroupFor(const int64_t* keys, uint64_t* chain_steps) {
  uint32_t hash = 0xFFFFFFFFu;
  for (size_t k = 0; k < num_keys_; ++k) {
    hash = Crc32Combine(hash, static_cast<uint64_t>(keys[k]));
  }
  return Probe(hash, [keys](size_t k) { return keys[k]; }, chain_steps);
}

size_t GroupHashTable::GroupFor(
    uint32_t hash, const std::vector<std::vector<int64_t>>& key_cols,
    size_t row, uint64_t* chain_steps) {
  return Probe(
      hash, [&key_cols, row](size_t k) { return key_cols[k][row]; },
      chain_steps);
}

void GroupHashTable::MergeFrom(const GroupHashTable& other,
                               const std::vector<AggFunc>& funcs) {
  std::vector<int64_t> key_row(num_keys_);
  for (size_t g = 0; g < other.num_groups(); ++g) {
    for (size_t k = 0; k < num_keys_; ++k) key_row[k] = other.key(g, k);
    const size_t mine = GroupFor(key_row.data());
    for (size_t a = 0; a < states_.size(); ++a) {
      const primitives::AggState& theirs = other.state(g, a);
      primitives::AggState& st = states_[a][mine];
      switch (funcs[a]) {
        case AggFunc::kSum:
          st.sum += theirs.sum;
          break;
        case AggFunc::kMin:
          if (theirs.min < st.min) st.min = theirs.min;
          break;
        case AggFunc::kMax:
          if (theirs.max > st.max) st.max = theirs.max;
          break;
        case AggFunc::kCount:
          st.count += theirs.count;
          break;
      }
    }
  }
}

size_t GroupHashTable::ByteSize() const {
  size_t bytes = 0;
  for (const auto& k : keys_) bytes += k.size() * sizeof(int64_t);
  for (const auto& s : states_) bytes += s.size() * sizeof(primitives::AggState);
  bytes += heads_.size() * sizeof(int32_t) + next_.size() * sizeof(int32_t) +
           hashes_.size() * sizeof(uint32_t);
  return bytes;
}

GroupByOp::GroupByOp(std::vector<ExprPtr> keys, std::vector<AggSpec> aggs,
                     ColumnBinding binding)
    : keys_(std::move(keys)),
      aggs_(std::move(aggs)),
      binding_(std::move(binding)),
      table_(keys_.size(), aggs_.size()),
      key_scales_(keys_.size(), 0),
      agg_scales_(aggs_.size(), 0) {}

size_t GroupByOp::DmemBytes(size_t tile_rows) const {
  // Key/aggregate input staging for one tile plus a hash-table
  // reservation (the planner sizes partitions so the table fits).
  return (keys_.size() + aggs_.size()) * tile_rows * sizeof(int64_t);
}

Status GroupByOp::Open(ExecCtx&) {
  key_scratch_.assign(keys_.size(), {});
  agg_scratch_.assign(aggs_.size(), {});
  return Status::OK();
}

Status GroupByOp::Consume(ExecCtx& ctx, const Tile& tile) {
  const size_t n = tile.rows;
  for (size_t k = 0; k < keys_.size(); ++k) {
    RAPID_ASSIGN_OR_RETURN(
        key_scales_[k],
        EvalExpr(ctx, tile, binding_, *keys_[k], &key_scratch_[k]));
  }
  for (size_t a = 0; a < aggs_.size(); ++a) {
    if (aggs_[a].expr != nullptr) {
      RAPID_ASSIGN_OR_RETURN(
          agg_scales_[a],
          EvalExpr(ctx, tile, binding_, *aggs_[a].expr, &agg_scratch_[a]));
    }
  }

  // Evaluate aggregate FILTER clauses vectorized, once per tile.
  std::vector<BitVector> agg_filters(aggs_.size());
  for (size_t a = 0; a < aggs_.size(); ++a) {
    if (aggs_[a].filter != nullptr) {
      RAPID_RETURN_NOT_OK(EvalPredicate(ctx, tile, binding_,
                                        *aggs_[a].filter, &agg_filters[a]));
    }
  }

  // Hash the tile's keys column at a time with the batch CRC32
  // kernel, then probe in row order.
  hash_scratch_.assign(n, 0xFFFFFFFFu);
  for (const auto& col : key_scratch_) {
    primitives::HashCombineTile(col.data(), n, hash_scratch_.data());
  }
  uint64_t chain_steps = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t group =
        table_.GroupFor(hash_scratch_[i], key_scratch_, i, &chain_steps);
    for (size_t a = 0; a < aggs_.size(); ++a) {
      if (aggs_[a].filter != nullptr && !agg_filters[a].Test(i)) continue;
      switch (aggs_[a].func) {
        case AggFunc::kSum:
          table_.UpdateSum(group, a, agg_scratch_[a][i]);
          break;
        case AggFunc::kMin:
          table_.UpdateMin(group, a, agg_scratch_[a][i]);
          break;
        case AggFunc::kMax:
          table_.UpdateMax(group, a, agg_scratch_[a][i]);
          break;
        case AggFunc::kCount:
          table_.UpdateCount(group, a);
          break;
      }
    }
  }
  // Aggregate updates take the SIMD-dispatched agg kernels' rate; the
  // bucket walk (groupby + chain steps) is pointer chasing and scalar.
  ctx.ChargeCompute(ctx.params->groupby_cycles_per_row *
                        static_cast<double>(n) +
                    ctx.params->agg_cycles_per_row / ctx.params->simd.agg *
                        static_cast<double>(n) *
                        static_cast<double>(aggs_.size()) +
                    2.0 * static_cast<double>(chain_steps));
  ctx.ChargeVectorizationPenalty(n);
  return Status::OK();
}

Status GroupByOp::Finish(ExecCtx&) { return Status::OK(); }

const std::vector<AggFunc> GroupByOp::funcs() const {
  std::vector<AggFunc> out;
  out.reserve(aggs_.size());
  for (const AggSpec& a : aggs_) out.push_back(a.func);
  return out;
}

Status GroupByOp::EmitInto(ColumnSet* out) const {
  RAPID_CHECK(out->num_columns() == keys_.size() + aggs_.size());
  const size_t groups = table_.num_groups();
  for (size_t k = 0; k < keys_.size(); ++k) {
    std::vector<int64_t>& col = out->column(k);
    col.reserve(col.size() + groups);
    for (size_t g = 0; g < groups; ++g) col.push_back(table_.key(g, k));
  }
  for (size_t a = 0; a < aggs_.size(); ++a) {
    std::vector<int64_t>& col = out->column(keys_.size() + a);
    col.reserve(col.size() + groups);
    for (size_t g = 0; g < groups; ++g) {
      const primitives::AggState& st = table_.state(g, a);
      switch (aggs_[a].func) {
        case AggFunc::kSum:
          col.push_back(st.sum);
          break;
        case AggFunc::kMin:
          col.push_back(st.min);
          break;
        case AggFunc::kMax:
          col.push_back(st.max);
          break;
        case AggFunc::kCount:
          col.push_back(static_cast<int64_t>(st.count));
          break;
      }
    }
  }
  // Record scales on the output metadata.
  for (size_t k = 0; k < keys_.size(); ++k) {
    out->meta(k).dsb_scale = key_scales_[k];
    if (key_scales_[k] != 0) out->meta(k).type = storage::DataType::kDecimal;
  }
  for (size_t a = 0; a < aggs_.size(); ++a) {
    const size_t c = keys_.size() + a;
    const int scale = aggs_[a].func == AggFunc::kCount ? 0 : agg_scales_[a];
    out->meta(c).dsb_scale = scale;
    if (scale != 0) out->meta(c).type = storage::DataType::kDecimal;
  }
  return Status::OK();
}

}  // namespace rapid::core
