#include "core/ops/probe_op.h"

#include <algorithm>

#include "dpu/cost_model.h"
#include "primitives/hash.h"

namespace rapid::core {

namespace {

size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

HashJoinProbeOp::HashJoinProbeOp(ProbeOpSpec spec) : spec_(std::move(spec)) {}

HashJoinProbeOp::~HashJoinProbeOp() = default;

size_t HashJoinProbeOp::DmemBytes(size_t tile_rows) const {
  // Output staging buffers (widened) + hash/match-count scratch. The
  // hash table itself is sized at Open() from the remaining budget.
  return spec_.outputs.size() * tile_rows * sizeof(int64_t) +
         2 * tile_rows * sizeof(uint32_t) + 64;
}

Status HashJoinProbeOp::Open(ExecCtx& ctx) {
  RAPID_RETURN_NOT_OK(ctx.dmem().Allocate(DmemBytes(spec_.tile_rows)).status());
  out_buffers_.assign(spec_.outputs.size(), {});
  out_types_.assign(spec_.outputs.size(), storage::DataType::kInt64);
  out_scales_.assign(spec_.outputs.size(), 0);
  out_.columns.assign(spec_.outputs.size(), TileColumn());
  hash_scratch_ = ctx.pool().AcquireArray<uint32_t>(spec_.tile_rows);
  count_scratch_ = ctx.pool().AcquireArray<uint32_t>(spec_.tile_rows);

  const ColumnSet& build = *spec_.build;
  const size_t rows = build.num_rows();
  // Hashing and every chain step's compare read the build keys as
  // int64, whatever their widths.
  const size_t num_keys = spec_.build_keys.size();
  build_keys_.resize(num_keys * rows);
  build_key_cols_.clear();
  for (size_t k = 0; k < num_keys; ++k) {
    int64_t* keys = build_keys_.data() + k * rows;
    build.Visit(spec_.build_keys[k], [&](const auto* col) {
      std::copy_n(col, rows, keys);
    });
    build_key_cols_.push_back(keys);
  }
  probe_key_cols_.assign(spec_.probe_keys.size(), nullptr);
  for (size_t c = 0; c < spec_.outputs.size(); ++c) {
    const ProbeOpSpec::Output& o = spec_.outputs[c];
    if (o.from_build) {
      out_types_[c] = build.meta(o.column).type;
      out_scales_[c] = build.meta(o.column).dsb_scale;
    }
  }

  // Size the private table: target capacity from the spec, degraded to
  // whatever the chain's remaining DMEM allows. Rows beyond the
  // capacity overflow to the table's DRAM region (small-skew path).
  const size_t reduced = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(std::max<size_t>(rows, 1)) /
                             spec_.bucket_reduction));
  size_t buckets = NextPow2(reduced);
  size_t capacity = std::min(spec_.dmem_capacity_rows, rows);
  const size_t avail = ctx.dmem().free_bytes();
  table_ = std::make_unique<primitives::CompactJoinTable>(rows, buckets,
                                                          capacity);
  while (table_->DmemBytes() > avail && capacity > 64) {
    capacity /= 2;
    if (buckets > 64) buckets /= 2;
    table_ = std::make_unique<primitives::CompactJoinTable>(rows, buckets,
                                                            capacity);
  }
  RAPID_RETURN_NOT_OK(ctx.dmem().Allocate(table_->DmemBytes()).status());

  // Broadcast build: every core ingests the full build side. The DMS
  // streams the key columns in tile by tile; build compute is charged
  // per core (the price of skipping both partition passes — QComp only
  // chooses this when the build side is small).
  uint32_t* hashes = hash_scratch_.as<uint32_t>();
  for (size_t start = 0; start < rows; start += spec_.tile_rows) {
    const size_t n = std::min(spec_.tile_rows, rows - start);
    primitives::HashKeysTile(build_key_cols_.data(), build_key_cols_.size(),
                             start, n, /*shift=*/0, hashes);
    for (size_t i = 0; i < n; ++i) table_->Insert(hashes[i], start + i);
    ctx.ChargeCompute(dpu::JoinBuildTileCycles(*ctx.params, n));
    ctx.ChargeVectorizationPenalty(n);
    RAPID_RETURN_NOT_OK(ctx.dms->LoadTile(
        &ctx.cycles(), static_cast<int>(spec_.build_keys.size()), n,
        build.RowBytes(spec_.build_keys)));
  }
  stats_.build_rows = rows;
  if (table_->overflowed()) ++stats_.overflowed_partitions;
  return Status::OK();
}

void HashJoinProbeOp::GatherMatches(const Tile& tile) {
  const ColumnSet& build = *spec_.build;
  const size_t n = match_prows_.size();
  for (size_t c = 0; c < spec_.outputs.size(); ++c) {
    const ProbeOpSpec::Output& o = spec_.outputs[c];
    std::vector<int64_t>& buf = out_buffers_[c];
    const size_t base = buf.size();
    buf.resize(base + n);
    int64_t* dst = buf.data() + base;
    if (o.from_build) {
      build.Visit(o.column, [&](const auto* src) {
        for (size_t i = 0; i < n; ++i) {
          const uint32_t brow = match_brows_[i];
          dst[i] = brow == kNoBuildRow ? kJoinNull : src[brow];
        }
      });
    } else {
      WidenColumn(tile.columns[o.column], match_prows_.data(), n, dst);
    }
  }
  match_brows_.clear();
  match_prows_.clear();
}

Status HashJoinProbeOp::FlushPending(ExecCtx& ctx) {
  const size_t total = out_buffers_.empty() ? 0 : out_buffers_[0].size();
  // Matches accumulate past the tile size before a flush (a probe tile
  // can emit many rows per input row), so slice the staging buffers:
  // downstream ops sized their DMEM vectors for tile_rows-row tiles.
  for (size_t start = 0; start < total; start += spec_.tile_rows) {
    out_.rows = std::min(spec_.tile_rows, total - start);
    for (size_t c = 0; c < spec_.outputs.size(); ++c) {
      out_.columns[c].data =
          reinterpret_cast<uint8_t*>(out_buffers_[c].data() + start);
      out_.columns[c].type = out_types_[c] == storage::DataType::kDecimal
                                 ? storage::DataType::kDecimal
                                 : storage::DataType::kInt64;
      out_.columns[c].dsb_scale = out_scales_[c];
    }
    RAPID_RETURN_NOT_OK(Push(ctx, out_));
  }
  for (auto& buf : out_buffers_) buf.clear();
  return Status::OK();
}

Status HashJoinProbeOp::Consume(ExecCtx& ctx, const Tile& tile) {
  const size_t n = tile.rows;
  stats_.probe_rows += n;
  if (hash_scratch_.size() < n * sizeof(uint32_t)) {
    hash_scratch_ = ctx.pool().AcquireArray<uint32_t>(n);
    count_scratch_ = ctx.pool().AcquireArray<uint32_t>(n);
  }
  uint32_t* hashes = hash_scratch_.as<uint32_t>();
  uint32_t* counts = count_scratch_.as<uint32_t>();
  // Capture probe-side decimal metadata from the incoming tile so the
  // sink records scales correctly.
  for (size_t c = 0; c < spec_.outputs.size(); ++c) {
    const ProbeOpSpec::Output& o = spec_.outputs[c];
    if (!o.from_build) {
      const TileColumn& src = tile.columns[o.column];
      out_types_[c] = src.type == storage::DataType::kDecimal
                          ? storage::DataType::kDecimal
                          : storage::DataType::kInt64;
      out_scales_[c] = src.dsb_scale;
    }
  }

  // Widen the probe keys once per tile: hashing and every chain step's
  // compare then read int64 arrays, not the tile's physical width.
  const size_t num_keys = spec_.probe_keys.size();
  probe_keys_.resize(num_keys * n);
  for (size_t k = 0; k < num_keys; ++k) {
    int64_t* keys = probe_keys_.data() + k * n;
    WidenColumn(tile.columns[spec_.probe_keys[k]], nullptr, n, keys);
    probe_key_cols_[k] = keys;
  }
  primitives::HashKeysTile(probe_key_cols_.data(), num_keys, 0, n,
                           /*shift=*/0, hashes);

  // Inner and left-outer matches in probe order, then the tile's
  // unmatched (anti, left-outer) or matched (semi) probe rows.
  const bool emits_pairs = spec_.type == JoinType::kInner ||
                           spec_.type == JoinType::kLeftOuter;
  auto emit = [&](size_t i, size_t brow) {
    if (emits_pairs) {
      match_brows_.push_back(static_cast<uint32_t>(brow));
      match_prows_.push_back(static_cast<uint32_t>(i));
    }
  };
  primitives::ProbeStats tile_stats;
  if (num_keys == 1) {
    const int64_t* bkey = build_key_cols_[0];
    const int64_t* pkey = probe_key_cols_[0];
    table_->ProbeBatch(
        hashes, n,
        [bkey, pkey](size_t i, size_t brow) { return bkey[brow] == pkey[i]; },
        emit, counts, &tile_stats);
  } else {
    table_->ProbeBatch(
        hashes, n,
        [&](size_t i, size_t brow) {
          for (size_t k = 0; k < num_keys; ++k) {
            if (build_key_cols_[k][brow] != probe_key_cols_[k][i]) {
              return false;
            }
          }
          return true;
        },
        emit, counts, &tile_stats);
  }

  const bool emits_unmatched =
      spec_.type == JoinType::kAnti || spec_.type == JoinType::kLeftOuter;
  for (size_t i = 0; i < n; ++i) {
    const bool matched = counts[i] > 0;
    if (matched ? spec_.type == JoinType::kSemi : emits_unmatched) {
      match_brows_.push_back(kNoBuildRow);
      match_prows_.push_back(static_cast<uint32_t>(i));
    }
  }
  GatherMatches(tile);
  stats_.matches += tile_stats.matches;
  stats_.chain_steps += tile_stats.chain_steps;
  stats_.overflow_steps += tile_stats.overflow_steps;

  ctx.ChargeCompute(dpu::JoinProbeTileCycles(*ctx.params, n,
                                             tile_stats.chain_steps,
                                             tile_stats.matches));
  ctx.ChargeVectorizationPenalty(n);
  ctx.ChargeCompute(ctx.params->join_overflow_access_cycles *
                    static_cast<double>(tile_stats.overflow_steps));
  // No DMS charge for the probe input: the tile is already
  // DMEM-resident, streamed in once by the chain's accessor. This is
  // the fusion win over the materialize-partition-join path.

  if (!out_buffers_.empty() && out_buffers_[0].size() >= spec_.tile_rows) {
    RAPID_RETURN_NOT_OK(FlushPending(ctx));
  }
  return Status::OK();
}

Status HashJoinProbeOp::Finish(ExecCtx& ctx) {
  RAPID_RETURN_NOT_OK(FlushPending(ctx));
  return PushFinish(ctx);
}

}  // namespace rapid::core
