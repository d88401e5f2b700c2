#include "core/qef/relation_accessor.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "common/config.h"
#include "common/trace.h"
#include "dpu/cost_model.h"
#include "primitives/arith.h"
#include "primitives/simd.h"
#include "storage/encoding_stack.h"

namespace rapid::core {

namespace {

// Largest number of runs any tile_rows-aligned window of the chunk
// overlaps: the double-buffered staging region must hold one tile's
// worth of runs, so the accessor pre-scans the run starts (host-side
// metadata) before sizing it.
size_t MaxRunsPerTile(const storage::EncodedColumn& enc, size_t tile_rows) {
  size_t max_runs = 1;
  size_t first = 0;
  for (size_t start = 0; start < enc.num_rows; start += tile_rows) {
    const uint32_t end =
        static_cast<uint32_t>(std::min(start + tile_rows, enc.num_rows));
    while (first + 1 < enc.starts.size() && enc.starts[first + 1] <= start) {
      ++first;
    }
    size_t last = first;
    while (last + 1 < enc.starts.size() && enc.starts[last + 1] < end) ++last;
    max_runs = std::max(max_runs, last - first + 1);
  }
  return max_runs;
}

// Expands staged runs into the tile buffer with the dispatched kernel
// for the element width. Expansion is pure byte replication, so the
// unsigned table serves both signednesses bit-identically.
void ExpandRuns(const uint8_t* run_values, const uint32_t* run_lengths,
                size_t num_runs, size_t width, uint8_t* out) {
  using primitives::simd::rle_kernels;
  switch (width) {
    case 1:
      rle_kernels<uint8_t>().expand(run_values, run_lengths, num_runs, out);
      break;
    case 2:
      rle_kernels<uint16_t>().expand(
          reinterpret_cast<const uint16_t*>(run_values), run_lengths, num_runs,
          reinterpret_cast<uint16_t*>(out));
      break;
    case 4:
      rle_kernels<uint32_t>().expand(
          reinterpret_cast<const uint32_t*>(run_values), run_lengths, num_runs,
          reinterpret_cast<uint32_t*>(out));
      break;
    default:
      rle_kernels<uint64_t>().expand(
          reinterpret_cast<const uint64_t*>(run_values), run_lengths, num_runs,
          reinterpret_cast<uint64_t*>(out));
      break;
  }
}

// Sign-extends n elements of `col`'s width at `data` to int64 in place
// (back to front, so no element is overwritten before it is read) and
// sets `col`'s width to 8. The buffer holds n int64 slots, since tile
// buffers and run staging are sized at the declared width. Decimal
// rescaling needs the headroom; the load unit widens for free, so the
// modeled clock charges nothing here.
void WidenToInt64(uint8_t* data, size_t n, TileColumn* col) {
  col->Visit([&](auto t) {
    using T = decltype(t);
    if constexpr (sizeof(T) < sizeof(int64_t)) {
      for (size_t i = n; i-- > 0;) {
        T v;
        std::memcpy(&v, data + i * sizeof(T), sizeof(T));
        const int64_t wide = v;
        std::memcpy(data + i * sizeof(int64_t), &wide, sizeof(int64_t));
      }
    }
  });
  col->width = sizeof(int64_t);
}

// One column's staged run window within the in-flight tile transfer.
struct StagedRuns {
  size_t col = 0;
  const storage::EncodedColumn* enc = nullptr;
  size_t first = 0;   // index of the first staged run
  size_t runs = 0;    // staged run count
  uint8_t* values = nullptr;
  uint32_t* lengths = nullptr;
};

}  // namespace

Status RelationAccessor::PushChunks(
    ExecCtx& ctx, const std::vector<const storage::Chunk*>& chunks,
    const std::vector<size_t>& column_indices,
    const std::vector<int>& target_scales, size_t tile_rows, PipelineOp* op) {
  if (column_indices.empty()) {
    return Status::InvalidArgument("accessor needs at least one column");
  }
  if (chunks.empty()) return op->Finish(ctx);

  const bool encoded_enabled =
      GetConfig().encoded_scan == EncodedScanMode::kAuto;

  // Allocate double-buffered DMEM tile buffers once per column, at
  // the column's declared width: a tile holds each chunk's slice at
  // that vector's own (possibly narrower) width, and a decimal tile
  // that needs rescaling widens in place. The encoded path expands
  // into the same buffers, so operators see identical tiles either way.
  std::vector<size_t> declared(column_indices.size());
  std::vector<uint8_t*> buffers(column_indices.size());
  for (size_t c = 0; c < column_indices.size(); ++c) {
    declared[c] =
        storage::WidthOf(chunks[0]->column(column_indices[c]).type());
    // Two buffers per column for double buffering; tiles alternate.
    RAPID_ASSIGN_OR_RETURN(buffers[c],
                           ctx.dmem().Allocate(2 * tile_rows * declared[c]));
  }

  // Encoded staging: per RLE-topped column, a double-buffered region
  // the DMS fills with the tile's run lengths (first half) and packed
  // run values (second half, declared-width slots) before expansion.
  // Sized for the densest tile across this core's chunks; a column
  // whose staging does not fit the remaining DMEM budget just stays on
  // the plain path (bit-identical, only more bytes moved).
  std::vector<uint8_t*> staging(column_indices.size(), nullptr);
  std::vector<size_t> staging_runs(column_indices.size(), 0);
  if (encoded_enabled) {
    for (size_t c = 0; c < column_indices.size(); ++c) {
      size_t max_runs = 0;
      for (const storage::Chunk* chunk : chunks) {
        const storage::EncodedColumn* enc =
            chunk->encoding(column_indices[c]);
        if (enc == nullptr) continue;
        max_runs = std::max(max_runs, MaxRunsPerTile(*enc, tile_rows));
      }
      if (max_runs == 0) continue;
      const size_t bytes = 2 * max_runs * (declared[c] + sizeof(uint32_t));
      if (bytes > ctx.dmem().free_bytes()) continue;
      Result<uint8_t*> staged = ctx.dmem().Allocate(bytes);
      if (!staged.ok()) continue;  // injected exhaustion: plain fallback
      staging[c] = staged.value();
      staging_runs[c] = max_runs;
    }
  }

  uint64_t base_row = 0;
  size_t parity = 0;
  std::vector<size_t> run_cursor(column_indices.size(), 0);
  // Per-tile descriptors and the tile itself, reused across tiles.
  std::vector<dpu::ColumnSlice> slices;
  std::vector<StagedRuns> staged_cols;
  Tile tile;
  tile.columns.resize(column_indices.size());
  for (const storage::Chunk* chunk : chunks) {
    const size_t chunk_rows = chunk->num_rows();
    std::fill(run_cursor.begin(), run_cursor.end(), 0);
    for (size_t start = 0; start < chunk_rows; start += tile_rows) {
      RAPID_RETURN_NOT_OK(ctx.CheckCancel());
      const size_t rows = std::min(tile_rows, chunk_rows - start);
      TraceSpan tile_span(TraceMode::kFull, ctx.core->id(), "scan.tile",
                          &dpu::TraceClockNow, &ctx.cycles());

      // One DMS descriptor chain transfers all column slices of the
      // tile; double buffering alternates halves of each buffer.
      // RLE-topped columns ship their run window (lengths + packed
      // values) instead of the expanded slice, so the chain's byte
      // charge drops by the column's compression ratio.
      slices.clear();
      staged_cols.clear();
      tile.rows = rows;
      tile.base_row = base_row;
      for (size_t c = 0; c < column_indices.size(); ++c) {
        const storage::Vector& vec = chunk->column(column_indices[c]);
        const size_t width = vec.width();
        uint8_t* dst = buffers[c] + parity * tile_rows * declared[c];
        TileColumn& col = tile.columns[c];
        col = TileColumn();  // drops the previous tile's runs
        col.data = dst;
        col.type = vec.type();
        col.width = width;
        col.dsb_scale = vec.dsb_scale();
        const storage::EncodedColumn* enc =
            staging[c] != nullptr ? chunk->encoding(column_indices[c])
                                  : nullptr;
        if (enc != nullptr) {
          // Advance the monotone run cursor to the first run covering
          // `start`, then extend to the last run before the tile end.
          size_t& first = run_cursor[c];
          while (first + 1 < enc->starts.size() &&
                 enc->starts[first + 1] <= start) {
            ++first;
          }
          size_t last = first;
          const uint32_t end = static_cast<uint32_t>(start + rows);
          while (last + 1 < enc->starts.size() &&
                 enc->starts[last + 1] < end) {
            ++last;
          }
          const size_t runs = last - first + 1;
          if (runs <= staging_runs[c]) {
            uint8_t* lengths_dst =
                staging[c] + parity * staging_runs[c] * sizeof(uint32_t);
            uint8_t* values_dst = staging[c] +
                                  2 * staging_runs[c] * sizeof(uint32_t) +
                                  parity * staging_runs[c] * declared[c];
            slices.push_back(dpu::ColumnSlice{
                reinterpret_cast<const uint8_t*>(enc->lengths.data() + first),
                lengths_dst, runs * sizeof(uint32_t)});
            slices.push_back(dpu::ColumnSlice{
                enc->values.data() + first * width, values_dst, runs * width});
            staged_cols.push_back(
                StagedRuns{c, enc, first, runs, values_dst,
                           reinterpret_cast<uint32_t*>(lengths_dst)});
            ctx.core->counters().encoded_bytes_moved +=
                runs * (width + sizeof(uint32_t));
            ctx.core->counters().plain_bytes_moved += rows * width;
            continue;
          }
        }
        slices.push_back(dpu::ColumnSlice{vec.raw() + start * width, dst,
                                          rows * width});
      }
      if (tile_span.active()) {
        // Encoded-vs-plain accounting: `bytes_moved` is what the DMS
        // chain actually ships (run windows for RLE-topped columns),
        // `plain_bytes` what the same tile costs with encoding off.
        uint64_t moved = 0;
        for (const dpu::ColumnSlice& s : slices) moved += s.bytes;
        uint64_t plain = 0;
        for (size_t c = 0; c < column_indices.size(); ++c) {
          plain += rows * tile.columns[c].width;
        }
        tile_span.Annotate("rows", static_cast<uint64_t>(rows));
        tile_span.Annotate("encoded_cols",
                           static_cast<int64_t>(staged_cols.size()));
        tile_span.Annotate("bytes_moved", moved);
        tile_span.Annotate("plain_bytes", plain);
      }
      RAPID_RETURN_NOT_OK(
          ctx.dms->TransferTile(&ctx.cycles(), slices, /*read_write=*/false));

      // Clip each staged run window to the tile (skip the rows of the
      // first run before `start`, truncate the last run at the tile
      // end), rescale decimal run values to the column-level scale,
      // then expand into the tile buffer with the dispatched kernel.
      for (const StagedRuns& s : staged_cols) {
        TileColumn& col = tile.columns[s.col];
        s.lengths[0] -= static_cast<uint32_t>(start) - s.enc->starts[s.first];
        uint32_t remaining = static_cast<uint32_t>(rows);
        for (size_t r = 0; r < s.runs; ++r) {
          const uint32_t clipped = std::min(s.lengths[r], remaining);
          s.lengths[r] = clipped;
          remaining -= clipped;
        }
        if (col.type == storage::DataType::kDecimal &&
            col.dsb_scale != target_scales[s.col]) {
          // Rescaling the run values before expansion keeps the
          // expanded tile and the run metadata consistent, and charges
          // arithmetic per run instead of per row.
          WidenToInt64(s.values, s.runs, &col);
          primitives::DsbRescaleTile(reinterpret_cast<int64_t*>(s.values),
                                     s.runs, col.dsb_scale,
                                     target_scales[s.col]);
          ctx.ChargeCompute(ctx.params->arith_cycles_per_row *
                            static_cast<double>(s.runs));
          col.dsb_scale = target_scales[s.col];
        }
        ExpandRuns(s.values, s.lengths, s.runs, col.width, col.data);
        ctx.ChargeCompute(
            ctx.params->rle_decode_cycles_per_row *
                static_cast<double>(rows) +
            ctx.params->rle_decode_cycles_per_run *
                static_cast<double>(s.runs));
        col.run_values = s.values;
        col.run_lengths = s.lengths;
        col.num_runs = static_cast<uint32_t>(s.runs);
      }

      // Normalize decimal vectors with differing per-vector common
      // scales to the column-level scale before operators see them.
      for (size_t c = 0; c < column_indices.size(); ++c) {
        TileColumn& col = tile.columns[c];
        if (col.type == storage::DataType::kDecimal &&
            col.dsb_scale != target_scales[c]) {
          WidenToInt64(col.data, rows, &col);
          primitives::DsbRescaleTile(reinterpret_cast<int64_t*>(col.data),
                                     rows, col.dsb_scale, target_scales[c]);
          ctx.ChargeCompute(ctx.params->arith_cycles_per_row *
                            static_cast<double>(rows));
          col.dsb_scale = target_scales[c];
        }
      }

      RAPID_RETURN_NOT_OK(op->Consume(ctx, tile));
      parity ^= 1;
      base_row += rows;
    }
  }
  return op->Finish(ctx);
}

Status RelationAccessor::PushColumnSet(ExecCtx& ctx, const ColumnSet& set,
                                       const std::vector<size_t>& column_indices,
                                       size_t row_begin, size_t row_end,
                                       size_t tile_rows, PipelineOp* op) {
  if (column_indices.empty()) {
    return Status::InvalidArgument("accessor needs at least one column");
  }
  row_end = std::min(row_end, set.num_rows());
  if (row_begin >= row_end) return op->Finish(ctx);

  std::vector<uint8_t*> buffers(column_indices.size());
  for (size_t c = 0; c < column_indices.size(); ++c) {
    RAPID_ASSIGN_OR_RETURN(
        buffers[c], ctx.dmem().Allocate(2 * tile_rows * sizeof(int64_t)));
  }

  const size_t row_bytes = set.RowBytes(column_indices);
  size_t parity = 0;
  Tile tile;  // reused across tiles
  tile.columns.resize(column_indices.size());
  for (size_t start = row_begin; start < row_end; start += tile_rows) {
    RAPID_RETURN_NOT_OK(ctx.CheckCancel());
    const size_t rows = std::min(tile_rows, row_end - start);
    // One DMS descriptor chain moves every column's slice at its
    // meta's physical width into the column's DMEM buffer.
    RAPID_RETURN_NOT_OK(ctx.dms->LoadTile(
        &ctx.cycles(), static_cast<int>(column_indices.size()), rows,
        row_bytes));
    tile.rows = rows;
    tile.base_row = start - row_begin;
    for (size_t c = 0; c < column_indices.size(); ++c) {
      const ColumnMeta& meta = set.meta(column_indices[c]);
      TileColumn& col = tile.columns[c];
      col.data = buffers[c] + parity * tile_rows * sizeof(int64_t);
      col.type = meta.type;
      col.width = meta.width;
      col.dsb_scale = meta.dsb_scale;
      // The set stores the column at the meta's width already.
      set.Visit(column_indices[c], [&](const auto* values) {
        std::memcpy(col.data, values + start, rows * sizeof(*values));
      });
    }
    RAPID_RETURN_NOT_OK(op->Consume(ctx, tile));
    parity ^= 1;
  }
  return op->Finish(ctx);
}

}  // namespace rapid::core
