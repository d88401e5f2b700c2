#include "core/ops/groupby_op.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "common/crc32.h"
#include "common/logging.h"
#include "primitives/hash.h"

namespace rapid::core {

GroupHashTable::GroupHashTable(size_t num_keys, std::vector<AggFunc> funcs)
    : num_keys_(num_keys),
      funcs_(std::move(funcs)),
      keys_(num_keys),
      states_(funcs_.size()),
      heads_(64, -1) {}

size_t GroupHashTable::DmemBytes(size_t num_keys, size_t num_aggs,
                                 size_t groups) {
  return groups * (8 * (num_keys + num_aggs) + 16) +
         4 * std::bit_ceil(std::max<size_t>(groups, 64));
}

void GroupHashTable::Reset(size_t expected_rows) {
  num_groups_ = 0;
  for (auto& k : keys_) {
    k.clear();
    k.reserve(expected_rows);
  }
  for (auto& st : states_) {
    st.clear();
    st.reserve(expected_rows);
  }
  next_.clear();
  next_.reserve(expected_rows);
  hashes_.clear();
  hashes_.reserve(expected_rows);
  stamps_.clear();
  heads_.assign(std::bit_ceil(std::max<size_t>(expected_rows, 64)), -1);
}

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
  for (size_t a = 0; a < funcs_.size(); ++a) {
    states_[a].push_back(primitives::AggInit(funcs_[a]));
  }
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

void GroupHashTable::UpdateColumn(size_t agg, const int64_t* values,
                                  const uint32_t* groups, size_t n,
                                  const BitVector* selected) {
  primitives::AggGrouped(funcs_[agg], values, groups, n, selected,
                         states_[agg].data());
}

void GroupHashTable::MergeFrom(const GroupHashTable& other) {
  // Phase 1: find (or insert) each of `other`'s groups here, in its
  // group order, reusing its stored hash, and fold its stamps in.
  // Phase 2: fold its state columns in; partial counts add like sums.
  const size_t n = other.num_groups_;
  std::vector<uint32_t> mine(n);
  for (size_t g = 0; g < n; ++g) {
    mine[g] = static_cast<uint32_t>(Probe(
        other.hashes_[g], [&other, g](size_t k) { return other.keys_[k][g]; },
        nullptr));
  }
  if (!other.stamps_.empty()) {
    stamps_.resize(num_groups_, kUnstamped);
    for (size_t g = 0; g < other.stamps_.size(); ++g) {
      stamps_[mine[g]] = std::min(stamps_[mine[g]], other.stamps_[g]);
    }
  }
  for (size_t a = 0; a < funcs_.size(); ++a) {
    const AggFunc merge =
        funcs_[a] == AggFunc::kCount ? AggFunc::kSum : funcs_[a];
    primitives::AggGrouped(merge, other.states_[a].data(), mine.data(), n,
                           nullptr, states_[a].data());
  }
}

void GroupHashTable::Stamp(const uint32_t* groups, size_t n,
                           uint64_t position) {
  stamps_.resize(num_groups_, kUnstamped);
  for (size_t i = 0; i < n; ++i) {
    uint64_t& stamp = stamps_[groups[i]];
    stamp = std::min(stamp, position + i);
  }
}

std::vector<uint32_t> GroupHashTable::GroupsByStamp() const {
  std::vector<uint32_t> order(num_groups_);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
    return stamps_[a] < stamps_[b];
  });
  return order;
}

namespace {

std::vector<AggFunc> FuncsOf(const std::vector<AggSpec>& aggs) {
  std::vector<AggFunc> funcs;
  funcs.reserve(aggs.size());
  for (const AggSpec& a : aggs) funcs.push_back(a.func);
  return funcs;
}

}  // namespace

GroupByOp::GroupByOp(std::vector<ExprPtr> keys, std::vector<AggSpec> aggs,
                     int hash_shift)
    : keys_(std::move(keys)),
      aggs_(std::move(aggs)),
      hash_shift_(hash_shift),
      table_(keys_.size(), FuncsOf(aggs_)),
      key_scratch_(keys_.size()),
      agg_scratch_(aggs_.size()),
      agg_filters_(aggs_.size()) {}

void GroupByOp::Reset(int hash_shift, size_t expected_rows) {
  hash_shift_ = hash_shift;
  table_.Reset(expected_rows);
  chain_steps_ = 0;
  rows_ = 0;
}

size_t GroupByOp::DmemBytes(size_t tile_rows) const {
  // Key/aggregate input staging for one tile plus a hash-table
  // reservation (the planner sizes partitions so the table fits).
  return (keys_.size() + aggs_.size()) * tile_rows * sizeof(int64_t);
}

Status GroupByOp::Open(ExecCtx&) { return Status::OK(); }

Status GroupByOp::Consume(ExecCtx& ctx, const Tile& tile) {
  const size_t n = tile.rows;
  rows_ += n;
  for (size_t k = 0; k < keys_.size(); ++k) {
    key_scratch_[k].resize(n);
    RAPID_RETURN_NOT_OK(
        EvalExpr(ctx, tile, *keys_[k], key_scratch_[k].data()));
  }
  for (size_t a = 0; a < aggs_.size(); ++a) {
    if (aggs_[a].expr != nullptr) {
      agg_scratch_[a].resize(n);
      RAPID_RETURN_NOT_OK(
          EvalExpr(ctx, tile, *aggs_[a].expr, agg_scratch_[a].data()));
    }
    // Aggregate FILTER clauses evaluate vectorized, once per tile.
    if (aggs_[a].filter != nullptr) {
      EvalPredicate(ctx, tile, *aggs_[a].filter, &agg_filters_[a]);
    }
  }

  // Phase 1: hash the tile's keys column at a time with the batch
  // CRC32 kernel, drop the bits that picked this partition (the join's
  // mask-and-shift, Section 6.3), and resolve every row's group in row
  // order, so groups keep their first-appearance order.
  key_cols_.clear();
  for (const auto& col : key_scratch_) key_cols_.push_back(col.data());
  hash_scratch_.resize(n);
  primitives::HashKeysTile(key_cols_.data(), key_cols_.size(), 0, n,
                           hash_shift_, hash_scratch_.data());
  group_ids_.resize(n);
  uint64_t chain_steps = 0;
  for (size_t i = 0; i < n; ++i) {
    group_ids_[i] = static_cast<uint32_t>(
        table_.GroupFor(hash_scratch_[i], key_scratch_, i, &chain_steps));
  }
  chain_steps_ += chain_steps;
  if (stamped_) {
    table_.Stamp(group_ids_.data(), n, next_position_);
    next_position_ += n;
  }

  // Phase 2: one typed loop per aggregate over the tile's group ids.
  for (size_t a = 0; a < aggs_.size(); ++a) {
    table_.UpdateColumn(a, agg_scratch_[a].data(), group_ids_.data(), n,
                        aggs_[a].filter != nullptr ? &agg_filters_[a]
                                                   : nullptr);
  }
  // Bucket walk (groupby + chain steps) plus one update per aggregate.
  ctx.ChargeCompute(ctx.params->groupby_cycles_per_row *
                        static_cast<double>(n) +
                    ctx.params->agg_cycles_per_row *
                        static_cast<double>(n) *
                        static_cast<double>(aggs_.size()) +
                    2.0 * static_cast<double>(chain_steps));
  ctx.ChargeVectorizationPenalty(n);
  return Status::OK();
}

Status GroupByOp::Finish(ExecCtx&) { return Status::OK(); }

Status KeylessOverNoRows(const std::vector<AggSpec>& aggs) {
  for (const AggSpec& a : aggs) {
    if (a.func != AggFunc::kCount) {
      return Status::NotSupported("aggregate '" + a.name +
                                  "' over no rows has no value (no NULL)");
    }
  }
  return Status::OK();
}

void GroupByOp::MergeFrom(const GroupByOp& other) {
  table_.MergeFrom(other.table_);
  rows_ += other.rows_;
  stamped_ = stamped_ || other.stamped_;
}

Status GroupByOp::EmitInto(ColumnSet* out) const {
  RAPID_CHECK(out->num_columns() == keys_.size() + aggs_.size());
  const size_t groups = table_.num_groups();
  // Appends one column, in stamp order or in table order.
  const std::vector<uint32_t> order =
      stamped_ ? table_.GroupsByStamp() : std::vector<uint32_t>{};
  // A key keeps its input column's width, which holds every key the
  // table saw.
  const size_t base = out->num_rows();
  out->Resize(base + groups);
  auto append = [&](size_t c, auto value_of) {
    out->Visit(c, [&](auto* col) {
      using T = ElementOf<decltype(col)>;
      for (size_t i = 0; i < groups; ++i) {
        col[base + i] = static_cast<T>(value_of(stamped_ ? order[i] : i));
      }
    });
  };
  for (size_t k = 0; k < keys_.size(); ++k) {
    append(k, [&](size_t g) { return table_.key(g, k); });
  }
  for (size_t a = 0; a < aggs_.size(); ++a) {
    const std::vector<int64_t>& st = table_.agg_column(a);
    append(keys_.size() + a, [&](size_t g) { return st[g]; });
  }
  return Status::OK();
}

}  // namespace rapid::core
