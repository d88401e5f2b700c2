#include "storage/loader.h"

#include <algorithm>
#include <cstdio>

#include "common/logging.h"
#include "storage/dsb.h"
#include "storage/encoding_stack.h"

namespace rapid::storage {

namespace {

// One line per LOAD summarizing the encoding pass (format documented
// in README): total RLE vector share, table-level byte reduction, and
// the per-column ratios where RLE actually bit.
void LogEncodingReport(const std::string& name,
                       const std::vector<ColumnEncodingReport>& reports) {
  size_t vectors_total = 0;
  size_t vectors_rle = 0;
  size_t plain_bytes = 0;
  size_t encoded_bytes = 0;
  for (const ColumnEncodingReport& r : reports) {
    vectors_total += r.vectors_total;
    vectors_rle += r.vectors_rle;
    plain_bytes += r.plain_bytes;
    encoded_bytes += r.encoded_bytes;
  }
  const double ratio = encoded_bytes == 0 ? 1.0
                                          : static_cast<double>(plain_bytes) /
                                                static_cast<double>(encoded_bytes);
  if (!LogEnabled(LogLevel::kInfo)) return;
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "encodings '%s': %zu/%zu vectors RLE, %zu -> %zu bytes "
                "(x%.2f)",
                name.c_str(), vectors_rle, vectors_total, plain_bytes,
                encoded_bytes, ratio);
  std::string line = buf;
  for (const ColumnEncodingReport& r : reports) {
    if (r.vectors_rle == 0 || r.encoded_bytes == 0) continue;
    std::snprintf(buf, sizeof(buf), " %s=x%.2f", r.column.c_str(),
                  static_cast<double>(r.plain_bytes) /
                      static_cast<double>(r.encoded_bytes));
    line += buf;
  }
  RAPID_LOG(kInfo, "%s", line.c_str());
}

size_t RowCountOf(const ColumnSpec& spec, const ColumnData& data) {
  switch (spec.kind) {
    case ColumnKind::kDecimal:
      return data.decimals.size();
    case ColumnKind::kString:
      return data.strings.size();
    default:
      return data.ints.size();
  }
}

// Narrowest width of `type` that holds values[0, rows).
size_t WidthFor(const int64_t* values, size_t rows, DataType type) {
  if (rows == 0) return WidthOf(type);
  const auto [lo, hi] = std::minmax_element(values, values + rows);
  return NarrowestWidth(*lo, *hi, type);
}

// Writes `rows` int64 values into `v` at its physical width.
void FillVector(const int64_t* values, size_t rows, Vector* v) {
  VisitPhysical(v->width(), v->type(), [&](auto t) {
    using T = decltype(t);
    T* out = v->Data<T>();
    for (size_t r = 0; r < rows; ++r) out[r] = static_cast<T>(values[r]);
  });
  v->set_size(rows);
}

}  // namespace

Result<Table> LoadTable(const std::string& name,
                        const std::vector<ColumnSpec>& specs,
                        const std::vector<ColumnData>& data,
                        const LoadOptions& options) {
  if (specs.empty() || specs.size() != data.size()) {
    return Status::InvalidArgument("specs and data must match and be nonempty");
  }
  const size_t num_rows = RowCountOf(specs[0], data[0]);
  for (size_t c = 0; c < specs.size(); ++c) {
    if (RowCountOf(specs[c], data[c]) != num_rows) {
      return Status::InvalidArgument("column '" + specs[c].name +
                                     "' has mismatched row count");
    }
  }
  if (options.rows_per_chunk == 0 || options.num_partitions == 0) {
    return Status::InvalidArgument("rows_per_chunk and num_partitions > 0");
  }

  std::vector<Field> fields;
  fields.reserve(specs.size());
  for (const ColumnSpec& spec : specs) {
    fields.push_back(Field{spec.name, PhysicalTypeOf(spec.kind)});
  }
  Table table(name, Schema(std::move(fields)));
  table.set_scn(options.scn);

  // Pre-encode decimal columns: per-chunk common scale, column-level
  // max scale recorded in stats for uniform downstream arithmetic.
  // Pre-encode string columns through the table dictionary. Integer
  // and date columns are sliced straight from the staged data.
  std::vector<std::vector<int64_t>> encoded(specs.size());
  std::vector<const int64_t*> source(specs.size());
  std::vector<int> column_scale(specs.size(), 0);
  for (size_t c = 0; c < specs.size(); ++c) {
    switch (specs[c].kind) {
      case ColumnKind::kDecimal: {
        DsbColumn dsb = DsbEncode(data[c].decimals);
        if (!dsb.exceptions.empty()) {
          return Status::NotSupported(
              "base table column '" + specs[c].name +
              "' contains DSB exception values; base loads must be exact");
        }
        encoded[c] = std::move(dsb.mantissas);
        column_scale[c] = dsb.scale;
        source[c] = encoded[c].data();
        break;
      }
      case ColumnKind::kString: {
        Dictionary* dict = table.dictionary(c);
        encoded[c].reserve(num_rows);
        for (const std::string& s : data[c].strings) {
          encoded[c].push_back(dict->GetOrInsert(s));
        }
        source[c] = encoded[c].data();
        break;
      }
      default: {
        source[c] = data[c].ints.data();
        break;
      }
    }
  }

  // Slice into chunks and deal them round-robin over partitions,
  // mirroring how LOAD's parallel scan threads fill RAPID nodes.
  std::vector<Partition> partitions(options.num_partitions);
  std::vector<size_t> widths(specs.size());
  size_t chunk_index = 0;
  for (size_t start = 0; start < num_rows; start += options.rows_per_chunk) {
    const size_t rows = std::min(options.rows_per_chunk, num_rows - start);
    // Each vector narrows to the width its own values need.
    for (size_t c = 0; c < specs.size(); ++c) {
      widths[c] =
          WidthFor(source[c] + start, rows, table.schema().field(c).type);
    }
    Chunk chunk(table.schema(), rows, widths);
    for (size_t c = 0; c < specs.size(); ++c) {
      Vector& v = chunk.column(c);
      FillVector(source[c] + start, rows, &v);
      if (specs[c].kind == ColumnKind::kDecimal) {
        v.set_dsb_scale(column_scale[c]);
      }
    }
    partitions[chunk_index % options.num_partitions].AddChunk(
        std::move(chunk));
    ++chunk_index;
  }
  for (auto& p : partitions) table.AddPartition(std::move(p));

  table.set_rows_per_chunk(options.rows_per_chunk);
  table.RecomputeStats();
  for (size_t c = 0; c < specs.size(); ++c) {
    table.stats(c).dsb_scale = column_scale[c];
  }
  // Encoding-selection pass (Section 4.2): tops run-heavy vectors
  // with the chunk-resident RLE transfer representation and records
  // per-column compression ratios for QComp.
  LogEncodingReport(name, BuildTableEncodings(&table));
  return table;
}

Result<std::vector<Chunk*>> ApplyRowChanges(
    Table* table, const std::vector<RowChange>& changes) {
  const size_t rows_per_chunk = table->rows_per_chunk();
  const size_t num_partitions = table->num_partitions();
  if (rows_per_chunk == 0 || num_partitions == 0) {
    return Status::InvalidArgument("table has no load geometry");
  }
  // Global chunk index of every change, all checked before any write.
  std::vector<size_t> chunk_of(changes.size());
  for (size_t i = 0; i < changes.size(); ++i) {
    if (changes[i].values.size() != table->schema().num_fields()) {
      return Status::InvalidArgument("row change has wrong column count");
    }
    for (size_t c = 0; c < changes[i].values.size(); ++c) {
      const DataType type = table->schema().field(c).type;
      if (!FitsWidth(changes[i].values[c], WidthOf(type), type)) {
        return Status::InvalidArgument(
            "row change value out of range for column '" +
            table->schema().field(c).name + "'");
      }
    }
    const uint64_t row_id = changes[i].row_id;
    const uint64_t chunk_index = row_id / rows_per_chunk;
    const Partition& part = table->partition(chunk_index % num_partitions);
    const uint64_t chunk = chunk_index / num_partitions;
    if (chunk >= part.num_chunks() ||
        row_id % rows_per_chunk >= part.chunk(chunk).num_rows()) {
      return Status::InvalidArgument("row id out of range");
    }
    chunk_of[i] = static_cast<size_t>(chunk_index);
  }
  const auto chunk_at = [&](size_t chunk_index) {
    return &table->partition(chunk_index % num_partitions)
                .chunk(chunk_index / num_partitions);
  };
  for (size_t i = 0; i < changes.size(); ++i) {
    Chunk* target = chunk_at(chunk_of[i]);
    const size_t row = changes[i].row_id % rows_per_chunk;
    for (size_t c = 0; c < changes[i].values.size(); ++c) {
      // A value the vector's narrow width cannot hold widens it first.
      target->column(c).SetInt(row, changes[i].values[c]);
    }
  }
  std::sort(chunk_of.begin(), chunk_of.end());
  chunk_of.erase(std::unique(chunk_of.begin(), chunk_of.end()),
                 chunk_of.end());
  std::vector<Chunk*> touched;
  touched.reserve(chunk_of.size());
  for (size_t chunk_index : chunk_of) touched.push_back(chunk_at(chunk_index));
  return touched;
}

}  // namespace rapid::storage
