#include "core/ops/partition_sink.h"

#include <algorithm>

#include "common/fault.h"
#include "core/ops/sink_op.h"
#include "primitives/hash.h"
#include "primitives/partition_map.h"
#include "primitives/simd.h"

namespace rapid::core {

size_t PartitionSink::StagingBytes(const PartitionRound& round) {
  return primitives::simd::ScatterScratchBytes(
      static_cast<size_t>(round.fanout / round.hw_fanout));
}

Status PartitionSink::Open(ExecCtx& ctx) {
  return ctx.dmem().Allocate(DmemBytes(tile_rows_)).status();
}

Status PartitionSink::BeginMorsel(ExecCtx& ctx, ColumnSet* rows,
                                  std::vector<size_t>* counts,
                                  std::vector<uint32_t>* hashes) {
  rows_ = rows;
  counts_ = counts;
  hashes_ = hashes;
  counts_->assign(static_cast<size_t>(round_.fanout), 0);
  hashes_->clear();
  part_of_.clear();
  // One partition-engine descriptor chain per morsel; transient faults
  // are retried inside RunDescriptor.
  return ctx.dms->RunDescriptor(&ctx.cycles(), faults::kDmsPartition);
}

Status PartitionSink::Consume(ExecCtx& ctx, const Tile& tile) {
  const size_t old = rows_->num_rows();
  AppendTile(tile, rows_);
  if (tile.rows == 0) return Status::OK();

  // The hash engine's CRC32 over the widened keys: the values
  // PartitionExec::HashColumn computes over the materialized rows.
  key_ptrs_.clear();
  for (size_t k : key_cols_) key_ptrs_.push_back(rows_->column(k).data() + old);
  uint32_t* hashes;
  if (carry_hashes_) {
    hashes_->resize(old + tile.rows);
    hashes = hashes_->data() + old;
  } else {
    tile_hashes_.resize(tile.rows);
    hashes = tile_hashes_.data();
  }
  primitives::HashKeysTile(key_ptrs_.data(), key_ptrs_.size(), 0, tile.rows,
                           0, hashes);

  part_of_.resize(old + tile.rows);
  tile_counts_.resize(static_cast<size_t>(round_.fanout));
  const size_t num_cols = rows_->num_columns();
  const size_t row_bytes = rows_->RowBytes();
  for (size_t start = 0; start < tile.rows; start += round_tile_rows_) {
    const size_t n = std::min(round_tile_rows_, tile.rows - start);
    primitives::ComputePartitionIndex(hashes + start, n, round_.fanout, 0,
                                      part_of_.data() + old + start,
                                      tile_counts_.data());
    for (size_t p = 0; p < tile_counts_.size(); ++p) {
      (*counts_)[p] += tile_counts_[p];
    }
    ChargePartitionTile(*ctx.dms, ctx.cycles(), round_, n, num_cols,
                        row_bytes);
  }
  return Status::OK();
}

Status PartitionSink::Finish(ExecCtx&) {
  const size_t n = part_of_.size();
  if (n == 0) return Status::OK();
  // Stable counting sort: row i moves to the next free place of its
  // partition's range.
  std::vector<uint32_t> dest(n);
  {
    std::vector<size_t> next(counts_->size());
    size_t offset = 0;
    for (size_t p = 0; p < next.size(); ++p) {
      next[p] = offset;
      offset += (*counts_)[p];
    }
    for (size_t i = 0; i < n; ++i) {
      dest[i] = static_cast<uint32_t>(next[part_of_[i]]++);
    }
  }
  std::vector<int64_t> sorted(n);
  for (size_t c = 0; c < rows_->num_columns(); ++c) {
    std::vector<int64_t>& col = rows_->column(c);
    for (size_t i = 0; i < n; ++i) sorted[dest[i]] = col[i];
    col.swap(sorted);
  }
  if (carry_hashes_) {
    std::vector<uint32_t> sorted_hashes(n);
    for (size_t i = 0; i < n; ++i) sorted_hashes[dest[i]] = (*hashes_)[i];
    hashes_->swap(sorted_hashes);
  }
  part_of_.clear();
  return Status::OK();
}

}  // namespace rapid::core
