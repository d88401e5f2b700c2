#include "core/ops/probe_op.h"

#include <algorithm>

#include "common/crc32.h"
#include "dpu/cost_model.h"

namespace rapid::core {

namespace {

size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

uint32_t HashTileRow(const Tile& tile, const std::vector<size_t>& keys,
                     size_t row) {
  uint32_t h = 0xFFFFFFFFu;
  for (size_t k : keys) {
    h = Crc32Combine(h, static_cast<uint64_t>(tile.columns[k].GetInt(row)));
  }
  return h;
}

uint32_t HashBuildRow(const ColumnSet& set, const std::vector<size_t>& keys,
                      size_t row) {
  uint32_t h = 0xFFFFFFFFu;
  for (size_t k : keys) {
    h = Crc32Combine(h, static_cast<uint64_t>(set.Value(row, k)));
  }
  return h;
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
  for (size_t start = 0; start < rows; start += spec_.tile_rows) {
    const size_t n = std::min(spec_.tile_rows, rows - start);
    for (size_t i = 0; i < n; ++i) {
      const size_t row = start + i;
      table_->Insert(HashBuildRow(build, spec_.build_keys, row), row);
    }
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

void HashJoinProbeOp::EmitRow(const Tile& tile, size_t tile_row, size_t brow) {
  const ColumnSet& build = *spec_.build;
  for (size_t c = 0; c < spec_.outputs.size(); ++c) {
    const ProbeOpSpec::Output& o = spec_.outputs[c];
    out_buffers_[c].push_back(
        o.from_build
            ? (brow == SIZE_MAX ? kJoinNull : build.Value(brow, o.column))
            : tile.columns[o.column].GetInt(tile_row));
  }
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

  for (size_t i = 0; i < n; ++i) {
    hashes[i] = HashTileRow(tile, spec_.probe_keys, i);
  }

  const ColumnSet& build = *spec_.build;
  primitives::ProbeStats tile_stats;
  table_->ProbeBatch(
      hashes, n,
      [&](size_t i, size_t brow) {
        for (size_t k = 0; k < spec_.build_keys.size(); ++k) {
          if (build.Value(brow, spec_.build_keys[k]) !=
              tile.columns[spec_.probe_keys[k]].GetInt(i)) {
            return false;
          }
        }
        return true;
      },
      [&](size_t i, size_t brow) {
        if (spec_.type == JoinType::kInner ||
            spec_.type == JoinType::kLeftOuter) {
          EmitRow(tile, i, brow);
        }
      },
      counts, &tile_stats);

  for (size_t i = 0; i < n; ++i) {
    const uint32_t matches = counts[i];
    if (matches == 0 && (spec_.type == JoinType::kAnti ||
                         spec_.type == JoinType::kLeftOuter)) {
      EmitRow(tile, i, SIZE_MAX);
    } else if (matches > 0 && spec_.type == JoinType::kSemi) {
      EmitRow(tile, i, SIZE_MAX);
    }
    stats_.matches += matches;
  }
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
