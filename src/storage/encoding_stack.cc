#include "storage/encoding_stack.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "common/logging.h"

namespace rapid::storage {

namespace {

// Number of runs in values[0, n), or `limit` as soon as the count
// reaches it. Neighbour compares add up over fixed-size blocks into a
// narrow per-block accumulator, which the compiler vectorizes without
// branches; the early exit is tested once per block.
template <typename T>
size_t CountRuns(const T* values, size_t n, size_t limit) {
  using Breaks = std::conditional_t<sizeof(T) == 8, uint64_t, uint32_t>;
  constexpr size_t kBlock = 256;
  size_t runs = 1;
  size_t begin = 1;
  for (; begin + kBlock <= n; begin += kBlock) {
    Breaks breaks = 0;
    for (size_t i = begin; i < begin + kBlock; ++i) {
      breaks += values[i] != values[i - 1];
    }
    runs += breaks;
    if (runs >= limit) return limit;
  }
  for (; begin < n; ++begin) runs += values[begin] != values[begin - 1];
  return std::min(runs, limit);
}

// Second pass, once the run count is known to win: writes the run
// starts (every row stores its index at the current slot, and the
// slot advances on a value change, so no branch depends on the data),
// then each run's value and length from the starts.
template <typename T>
std::unique_ptr<EncodedColumn> WriteRuns(const T* values, size_t n,
                                         size_t runs) {
  auto enc = std::make_unique<EncodedColumn>();
  enc->num_rows = n;
  enc->width = sizeof(T);
  // One spare slot: the rows after the last value change store there.
  enc->starts.resize(runs + 1);
  uint32_t* starts = enc->starts.data();
  starts[0] = 0;
  size_t slot = 1;
  for (size_t i = 1; i < n; ++i) {
    starts[slot] = static_cast<uint32_t>(i);
    slot += values[i] != values[i - 1];
  }
  starts[runs] = static_cast<uint32_t>(n);
  enc->values.resize(runs * sizeof(T));
  enc->lengths.resize(runs);
  uint8_t* out = enc->values.data();
  for (size_t r = 0; r < runs; ++r) {
    std::memcpy(out + r * sizeof(T), values + starts[r], sizeof(T));
    enc->lengths[r] = starts[r + 1] - starts[r];
  }
  enc->starts.pop_back();
  return enc;
}

template <typename T>
std::unique_ptr<EncodedColumn> EncodeRuns(const T* values, size_t n) {
  // Profitable at transfer granularity: the DMS would move packed
  // native-width run values plus one 4-byte length per run, so the
  // vector stays plain from ceil(n * w / (w + 4)) runs on.
  const size_t limit = (n * sizeof(T) + sizeof(T) + 3) / (sizeof(T) + 4);
  const size_t runs = CountRuns(values, n, limit);
  if (runs >= limit) return nullptr;
  return WriteRuns(values, n, runs);
}

}  // namespace

std::unique_ptr<EncodedColumn> EncodeVectorRuns(const Vector& vector) {
  const size_t n = vector.size();
  if (n == 0) return nullptr;
  // Run starts and lengths are 32-bit.
  RAPID_CHECK(n <= UINT32_MAX);
  // Runs pack at the vector's own width, so RLE must beat the narrow
  // plain bytes, not the declared ones.
  return VisitPhysical(vector.width(), vector.type(), [&](auto t) {
    return EncodeRuns(vector.Data<decltype(t)>(), n);
  });
}

void BuildChunkEncodings(Chunk* chunk) {
  for (size_t c = 0; c < chunk->num_columns(); ++c) {
    chunk->SetEncoding(c, EncodeVectorRuns(chunk->column(c)));
  }
}

std::vector<ColumnEncodingReport> SummarizeTableEncodings(Table* table) {
  std::vector<ColumnEncodingReport> reports(table->schema().num_fields());
  for (size_t c = 0; c < reports.size(); ++c) {
    reports[c].column = table->schema().field(c).name;
  }
  // The compression ratio counts declared widths on both sides: QComp
  // sizes tiles and run staging from declared widths, so only runs,
  // not narrow widths, may shrink its DMEM budget.
  std::vector<size_t> declared_plain(reports.size(), 0);
  std::vector<size_t> declared_runs(reports.size(), 0);
  for (size_t p = 0; p < table->num_partitions(); ++p) {
    const Partition& part = table->partition(p);
    for (size_t ch = 0; ch < part.num_chunks(); ++ch) {
      const Chunk& chunk = part.chunk(ch);
      for (size_t c = 0; c < chunk.num_columns(); ++c) {
        const EncodedColumn* enc = chunk.encoding(c);
        const Vector& v = chunk.column(c);
        ColumnEncodingReport& report = reports[c];
        ++report.vectors_total;
        report.plain_bytes += v.byte_size();
        const size_t declared = WidthOf(v.type()) * v.size();
        declared_plain[c] += declared;
        if (enc != nullptr) {
          ++report.vectors_rle;
          report.encoded_bytes += enc->encoded_bytes();
          declared_runs[c] += enc->num_runs() * (WidthOf(v.type()) + 4);
        } else {
          report.encoded_bytes += v.byte_size();
          declared_runs[c] += declared;
        }
      }
    }
  }
  for (size_t c = 0; c < reports.size(); ++c) {
    table->stats(c).compression_ratio =
        declared_runs[c] == 0 ? 1.0
                              : static_cast<double>(declared_plain[c]) /
                                    static_cast<double>(declared_runs[c]);
  }
  return reports;
}

std::vector<ColumnEncodingReport> BuildTableEncodings(Table* table) {
  for (size_t p = 0; p < table->num_partitions(); ++p) {
    Partition& part = table->partition(p);
    for (size_t ch = 0; ch < part.num_chunks(); ++ch) {
      BuildChunkEncodings(&part.chunk(ch));
    }
  }
  return SummarizeTableEncodings(table);
}

}  // namespace rapid::storage
