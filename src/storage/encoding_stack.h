// Encoding stack (Section 4.2): "we apply a stack of encodings on
// each column vector for lightweight compression (e.g., run length
// encoding)".
//
// The analyzer inspects each column vector and selects the cheapest
// representation: the base fixed-width encoding the loader already
// applied (DSB mantissas, dictionary codes, day numbers), optionally
// topped with run-length encoding when it is profitable for that
// vector. Selection is per vector — the same column may be RLE in one
// chunk and plain in another (sorted prefixes compress; random tails
// do not).

#ifndef RAPID_STORAGE_ENCODING_STACK_H_
#define RAPID_STORAGE_ENCODING_STACK_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/encoded_column.h"
#include "storage/rle.h"
#include "storage/table.h"

namespace rapid::storage {

enum class VectorEncoding : uint8_t {
  kPlain,  // flat fixed-width array (the base encoding)
  kRle,    // run-length on top of the base encoding
};

struct VectorEncodingChoice {
  VectorEncoding encoding = VectorEncoding::kPlain;
  size_t plain_bytes = 0;
  size_t encoded_bytes = 0;  // == plain_bytes for kPlain

  double CompressionRatio() const {
    return encoded_bytes == 0
               ? 1.0
               : static_cast<double>(plain_bytes) /
                     static_cast<double>(encoded_bytes);
  }
};

// Chooses the encoding for one vector.
VectorEncodingChoice ChooseEncoding(const Vector& vector);

// Per-column summary across all vectors of a table.
struct ColumnEncodingReport {
  std::string column;
  size_t vectors_total = 0;
  size_t vectors_rle = 0;
  size_t plain_bytes = 0;
  size_t encoded_bytes = 0;
};

// Analyzes every vector of every column (what the loader's encoding-
// selection pass computes; QComp's primitive/encoding selection reads
// this when costing scans).
std::vector<ColumnEncodingReport> AnalyzeTableEncodings(const Table& table);

// Materializes the RLE form of a vector (for vectors where RLE won).
// Splits runs at the vector's native width (no widened row copy).
RleColumn RleFromVector(const Vector& vector);

// Materializes the chunk-resident transfer representation of one
// vector: packed native-width run values + 4-byte lengths. Returns
// null when the encoded form would not move fewer DRAM bytes than the
// plain array (the vector stays plain).
std::unique_ptr<EncodedColumn> EncodeVectorRuns(const Vector& vector);

// (Re)builds the per-column encodings of one chunk. Update paths call
// this after mutating a chunk in place so transfer representations
// never go stale.
void BuildChunkEncodings(Chunk* chunk);

// Sums the encodings every chunk already holds into the per-column
// report and stores each column's compression ratio into ColumnStats.
std::vector<ColumnEncodingReport> SummarizeTableEncodings(Table* table);

// Runs the loader's encoding-selection pass over a whole table:
// builds every chunk's encodings, then summarizes them as
// SummarizeTableEncodings does (the loader logs the report once per
// LOAD).
std::vector<ColumnEncodingReport> BuildTableEncodings(Table* table);

// ---- Encoded-scan gate -----------------------------------------------------
//
// RAPID_ENCODED_SCAN=off|auto (default auto) decides whether the
// relation accessor ships RLE-topped vectors over the DMS and filters
// on compressed data. Resolved once at startup and logged; tests pin
// it in-process via ForceEncodedScan. Both modes are bit-identical —
// the gate changes bytes moved and modeled cycles, never results.

enum class EncodedScanMode : int { kOff = 0, kAuto = 1 };

// Mode in effect right now: a ForceEncodedScan override if one is
// active, otherwise the startup resolution of RAPID_ENCODED_SCAN.
EncodedScanMode EncodedScanActive();

// Overrides the active mode and returns the previously active mode so
// callers can restore it.
EncodedScanMode ForceEncodedScan(EncodedScanMode mode);

}  // namespace rapid::storage

#endif  // RAPID_STORAGE_ENCODING_STACK_H_
