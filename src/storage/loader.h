// Bulk loading (Section 4.4). The host database's LOAD command scans
// base relations and ships them to RAPID nodes; here the loader takes
// staged columnar data, applies the fixed-width encodings of
// Section 4.2 (DSB for decimals, dictionary for strings, day numbers
// for dates) and lays the table out as partitions -> chunks ->
// vectors, each vector at the narrowest width its values need.

#ifndef RAPID_STORAGE_LOADER_H_
#define RAPID_STORAGE_LOADER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/table.h"
#include "storage/update.h"

namespace rapid::storage {

// Logical column kinds accepted by the loader; each maps to a physical
// fixed-width DataType.
enum class ColumnKind : uint8_t {
  kInt8,
  kInt16,
  kInt32,
  kInt64,
  kDecimal,  // doubles, DSB-encoded
  kDate,     // int32 day numbers
  kString,   // dictionary-encoded
};

struct ColumnSpec {
  std::string name;
  ColumnKind kind = ColumnKind::kInt64;
};

// Staged data for one column; exactly one of the payload vectors is
// populated depending on the kind.
struct ColumnData {
  std::vector<int64_t> ints;        // integer/date kinds
  std::vector<double> decimals;     // kDecimal
  std::vector<std::string> strings; // kString
};

struct LoadOptions {
  size_t rows_per_chunk = 2048;  // 16 KiB vectors at 8-byte width
  size_t num_partitions = 1;     // horizontal partitions (round-robin
                                 // by chunk)
  uint64_t scn = 1;              // SCN the load is consistent as of
};

// Builds a Table from staged columns. All columns must have the same
// row count. Decimal values that cannot be represented exactly at
// scale <= kDsbMaxScale are rejected here (exception values are
// supported by DsbColumn for vector-level processing; base tables are
// required to be exception-free, which holds for all TPC-H data).
Result<Table> LoadTable(const std::string& name,
                        const std::vector<ColumnSpec>& specs,
                        const std::vector<ColumnData>& data,
                        const LoadOptions& options = LoadOptions{});

// Applies a batch of full-row changes in place, in order, using the
// table's load geometry; a row named twice keeps its last image.
// `values` are pre-encoded (dict codes, DSB mantissas at the column
// scale, day numbers). Every change's arity, row id and values (each
// must fit its column's declared type) are checked before any cell is
// written, so a rejected batch changes nothing. A value wider than its
// vector's physical width widens that vector (Vector::SetInt); the
// caller's encoding rebuild then packs runs at the new width. Returns
// each touched chunk once, in load order, with its encodings as they
// were: the caller rebuilds (BuildChunkEncodings) or clears them.
Result<std::vector<Chunk*>> ApplyRowChanges(
    Table* table, const std::vector<RowChange>& changes);

inline DataType PhysicalTypeOf(ColumnKind kind) {
  switch (kind) {
    case ColumnKind::kInt8:
      return DataType::kInt8;
    case ColumnKind::kInt16:
      return DataType::kInt16;
    case ColumnKind::kInt32:
      return DataType::kInt32;
    case ColumnKind::kInt64:
      return DataType::kInt64;
    case ColumnKind::kDecimal:
      return DataType::kDecimal;
    case ColumnKind::kDate:
      return DataType::kDate;
    case ColumnKind::kString:
      return DataType::kDictCode;
  }
  RAPID_CHECK(false);
}

}  // namespace rapid::storage

#endif  // RAPID_STORAGE_LOADER_H_
