// Encoding stack (Section 4.2): "we apply a stack of encodings on
// each column vector for lightweight compression (e.g., run length
// encoding)".
//
// The encoding pass inspects each column vector and keeps the cheaper
// transfer representation: the base fixed-width encoding the loader
// already applied (DSB mantissas, dictionary codes, day numbers),
// optionally topped with run-length encoding when that moves fewer
// DRAM bytes for that vector. Selection is per vector — the same
// column may be RLE in one chunk and plain in another (sorted
// prefixes compress; random tails do not).

#ifndef RAPID_STORAGE_ENCODING_STACK_H_
#define RAPID_STORAGE_ENCODING_STACK_H_

#include <memory>
#include <string>
#include <vector>

#include "storage/encoded_column.h"
#include "storage/table.h"

namespace rapid::storage {

// Per-column summary across all vectors of a table, in stored bytes
// (each vector at its physical width).
struct ColumnEncodingReport {
  std::string column;
  size_t vectors_total = 0;
  size_t vectors_rle = 0;
  size_t plain_bytes = 0;
  size_t encoded_bytes = 0;
};

// Materializes the chunk-resident transfer representation of one
// vector: run values packed at the vector's physical width + 4-byte
// lengths. Returns null when the encoded form would not move fewer
// DRAM bytes than the plain array at that width (the vector stays
// plain).
std::unique_ptr<EncodedColumn> EncodeVectorRuns(const Vector& vector);

// (Re)builds the per-column encodings of one chunk. The RAPID copy
// calls this once per chunk an update batch touched.
void BuildChunkEncodings(Chunk* chunk);

// Sums the encodings every chunk already holds into the per-column
// report and stores each column's compression ratio into ColumnStats.
std::vector<ColumnEncodingReport> SummarizeTableEncodings(Table* table);

// Runs the loader's encoding-selection pass over a whole table:
// builds every chunk's encodings, then summarizes them as
// SummarizeTableEncodings does (the loader logs the report once per
// LOAD).
std::vector<ColumnEncodingReport> BuildTableEncodings(Table* table);

}  // namespace rapid::storage

#endif  // RAPID_STORAGE_ENCODING_STACK_H_
