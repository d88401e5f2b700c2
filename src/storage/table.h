// Storage organization of relations (Section 4.1, Figure 3):
//
//   Table -> horizontal Partitions -> Chunks (horizontal slices)
//         -> per-column Vectors (flat arrays, 16 KiB sweet spot)
//
// Operators consume data in tiles of 64+ rows served out of vectors.

#ifndef RAPID_STORAGE_TABLE_H_
#define RAPID_STORAGE_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/data_type.h"
#include "storage/dictionary.h"
#include "storage/encoded_column.h"
#include "storage/vector.h"

namespace rapid::storage {

// Per-column statistics used by QComp and the offload planner.
struct ColumnStats {
  int64_t min = 0;
  int64_t max = 0;
  uint64_t ndv = 0;  // number of distinct values
  // For kDecimal columns: the maximum DSB scale over all vectors of
  // the column. Tiles are rescaled to this scale when read, so
  // arithmetic across chunks operates on a uniform scale.
  int dsb_scale = 0;
  // plain bytes / encoded bytes across all vectors of the column, both
  // counted at the declared width (>= 1; 1.0 when every vector stays
  // plain): the RLE factor alone, since QComp sizes tiles from declared
  // widths. Set by the loader's encoding pass; QComp's scan costing
  // and DMEM budgeting read it.
  double compression_ratio = 1.0;
};

// A horizontal slice of a table; one Vector per column, all with the
// same row count.
class Chunk {
 public:
  // Every vector at its column's declared width, or at widths[i].
  Chunk(const Schema& schema, size_t capacity,
        const std::vector<size_t>& widths = {}) {
    columns_.reserve(schema.num_fields());
    for (size_t i = 0; i < schema.num_fields(); ++i) {
      const DataType type = schema.field(i).type;
      columns_.emplace_back(type, capacity,
                            widths.empty() ? WidthOf(type) : widths[i]);
    }
  }

  Chunk(Chunk&&) = default;
  Chunk& operator=(Chunk&&) = default;

  // Deep copy: every vector and every encoding.
  Chunk Clone() const;

  size_t num_rows() const { return columns_.empty() ? 0 : columns_[0].size(); }
  size_t num_columns() const { return columns_.size(); }

  Vector& column(size_t i) { return columns_[i]; }
  const Vector& column(size_t i) const { return columns_[i]; }

  // RLE topping selected per vector by the encoding stack (null when
  // the vector stays plain). The plain Vector remains the backing
  // store; the encoding is the DMS-transfer representation. A write
  // batch leaves the encodings of the chunks it touched stale: the
  // RAPID copy rebuilds them once per batch (BuildChunkEncodings), the
  // host copy, which never scans them, clears them and LOAD rebuilds
  // the cleared ones.
  const EncodedColumn* encoding(size_t i) const {
    return i < encodings_.size() ? encodings_[i].get() : nullptr;
  }
  void SetEncoding(size_t i, std::unique_ptr<EncodedColumn> encoding) {
    if (encodings_.size() < columns_.size()) encodings_.resize(columns_.size());
    encodings_[i] = std::move(encoding);
  }
  void ClearEncodings() { encodings_.clear(); }
  // False from construction or ClearEncodings until encodings are
  // built; true after a build even if every vector stayed plain.
  bool has_encodings() const { return !encodings_.empty(); }

 private:
  Chunk() = default;

  std::vector<Vector> columns_;
  std::vector<std::unique_ptr<EncodedColumn>> encodings_;
};

// A horizontal partition: an ordered list of chunks.
class Partition {
 public:
  Partition() = default;
  Partition(Partition&&) = default;
  Partition& operator=(Partition&&) = default;

  // Deep copy of every chunk.
  Partition Clone() const;

  void AddChunk(Chunk chunk) { chunks_.push_back(std::move(chunk)); }

  size_t num_chunks() const { return chunks_.size(); }
  Chunk& chunk(size_t i) { return chunks_[i]; }
  const Chunk& chunk(size_t i) const { return chunks_[i]; }

  size_t num_rows() const {
    size_t n = 0;
    for (const Chunk& c : chunks_) n += c.num_rows();
    return n;
  }

 private:
  std::vector<Chunk> chunks_;
};

class Table {
 public:
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {
    dictionaries_.resize(schema_.num_fields());
    for (size_t i = 0; i < schema_.num_fields(); ++i) {
      if (schema_.field(i).type == DataType::kDictCode) {
        dictionaries_[i] = std::make_unique<Dictionary>();
      }
    }
    stats_.resize(schema_.num_fields());
  }

  Table(Table&&) = default;
  Table& operator=(Table&&) = default;

  // Deep copy: chunks (vectors and encodings), dictionaries, stats,
  // SCN and load geometry. The copy shares no storage with this table.
  Table Clone() const;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  void AddPartition(Partition partition) {
    partitions_.push_back(std::move(partition));
  }
  size_t num_partitions() const { return partitions_.size(); }
  Partition& partition(size_t i) { return partitions_[i]; }
  const Partition& partition(size_t i) const { return partitions_[i]; }

  size_t num_rows() const {
    size_t n = 0;
    for (const Partition& p : partitions_) n += p.num_rows();
    return n;
  }

  // Dictionary of a string column (null for non-dictionary columns).
  Dictionary* dictionary(size_t col) { return dictionaries_[col].get(); }
  const Dictionary* dictionary(size_t col) const {
    return dictionaries_[col].get();
  }

  ColumnStats& stats(size_t col) { return stats_[col]; }
  const ColumnStats& stats(size_t col) const { return stats_[col]; }

  // Recomputes min/max/ndv for all columns (exact; tables here are
  // memory resident). Leaves dsb_scale and compression_ratio alone.
  void RecomputeStats();

  // SCN as of which this table's content is current (Section 3.3).
  uint64_t scn() const { return scn_; }
  void set_scn(uint64_t scn) { scn_ = scn; }

  // Load geometry (set by the loader): chunks are dealt round-robin
  // over partitions, so a global row number maps to
  //   chunk_index = row / rows_per_chunk
  //   partition   = chunk_index % num_partitions
  //   chunk       = chunk_index / num_partitions
  //   row_in_chunk= row % rows_per_chunk
  size_t rows_per_chunk() const { return rows_per_chunk_; }
  void set_rows_per_chunk(size_t n) { rows_per_chunk_ = n; }

 private:
  std::string name_;
  Schema schema_;
  std::vector<Partition> partitions_;
  std::vector<std::unique_ptr<Dictionary>> dictionaries_;
  std::vector<ColumnStats> stats_;
  uint64_t scn_ = 0;
  size_t rows_per_chunk_ = 0;
};

}  // namespace rapid::storage

#endif  // RAPID_STORAGE_TABLE_H_
