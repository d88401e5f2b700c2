#include "storage/rle.h"

#include "common/logging.h"

namespace rapid::storage {

RleColumn RleEncode(const int64_t* values, size_t n) {
  RleColumn out;
  out.num_rows = n;
  for (size_t i = 0; i < n;) {
    size_t j = i + 1;
    while (j < n && values[j] == values[i] && j - i < UINT32_MAX) ++j;
    out.runs.push_back(RleRun{values[i], static_cast<uint32_t>(j - i)});
    i = j;
  }
  return out;
}

std::vector<int64_t> RleDecode(const RleColumn& column) {
  std::vector<int64_t> out;
  out.reserve(column.num_rows);
  for (const RleRun& run : column.runs) {
    out.insert(out.end(), run.length, run.value);
  }
  return out;
}

int64_t RleValueAt(const RleColumn& column, size_t row) {
  RAPID_CHECK(row < column.num_rows);
  size_t offset = 0;
  // Linear scan is fine for the short run lists RAPID keeps per
  // 16 KiB vector; switch to prefix sums if vectors grow.
  for (const RleRun& run : column.runs) {
    if (row < offset + run.length) return run.value;
    offset += run.length;
  }
  RAPID_CHECK(false);
}

}  // namespace rapid::storage
