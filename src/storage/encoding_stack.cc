#include "storage/encoding_stack.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"

namespace rapid::storage {

RleColumn RleFromVector(const Vector& vector) {
  const size_t n = vector.size();
  // Split runs at the native width; run values widen once per run
  // with the same signedness rules as Vector::GetInt.
  switch (vector.type()) {
    case DataType::kInt8:
      return RleEncodeTyped(vector.Data<int8_t>(), n);
    case DataType::kInt16:
      return RleEncodeTyped(vector.Data<int16_t>(), n);
    case DataType::kInt32:
    case DataType::kDate:
      return RleEncodeTyped(vector.Data<int32_t>(), n);
    case DataType::kDictCode:
      return RleEncodeTyped(vector.Data<uint32_t>(), n);
    case DataType::kInt64:
    case DataType::kDecimal:
      return RleEncodeTyped(vector.Data<int64_t>(), n);
  }
  return RleColumn{};
}

VectorEncodingChoice ChooseEncoding(const Vector& vector) {
  VectorEncodingChoice choice;
  choice.plain_bytes = vector.byte_size();
  choice.encoded_bytes = choice.plain_bytes;
  if (vector.size() == 0) return choice;

  const RleColumn rle = RleFromVector(vector);
  if (RleIsProfitable(rle, vector.width()) &&
      rle.byte_size() < choice.plain_bytes) {
    choice.encoding = VectorEncoding::kRle;
    choice.encoded_bytes = rle.byte_size();
  }
  return choice;
}

std::vector<ColumnEncodingReport> AnalyzeTableEncodings(const Table& table) {
  std::vector<ColumnEncodingReport> reports(table.schema().num_fields());
  for (size_t c = 0; c < reports.size(); ++c) {
    reports[c].column = table.schema().field(c).name;
  }
  for (size_t p = 0; p < table.num_partitions(); ++p) {
    const Partition& part = table.partition(p);
    for (size_t ch = 0; ch < part.num_chunks(); ++ch) {
      const Chunk& chunk = part.chunk(ch);
      for (size_t c = 0; c < chunk.num_columns(); ++c) {
        const VectorEncodingChoice choice = ChooseEncoding(chunk.column(c));
        ColumnEncodingReport& report = reports[c];
        ++report.vectors_total;
        if (choice.encoding == VectorEncoding::kRle) ++report.vectors_rle;
        report.plain_bytes += choice.plain_bytes;
        report.encoded_bytes += choice.encoded_bytes;
      }
    }
  }
  return reports;
}

std::unique_ptr<EncodedColumn> EncodeVectorRuns(const Vector& vector) {
  const size_t n = vector.size();
  if (n == 0) return nullptr;
  const RleColumn rle = RleFromVector(vector);
  const size_t width = vector.width();
  // Profitable at transfer granularity: the DMS would move packed
  // native-width run values plus one 4-byte length per run.
  if (rle.runs.size() * (width + 4) >= n * width) return nullptr;

  auto enc = std::make_unique<EncodedColumn>();
  enc->num_rows = n;
  enc->width = width;
  enc->values.resize(rle.runs.size() * width);
  enc->lengths.reserve(rle.runs.size());
  enc->starts.reserve(rle.runs.size());
  uint32_t row = 0;
  uint8_t* out = enc->values.data();
  for (const RleRun& run : rle.runs) {
    switch (width) {
      case 1: {
        const auto v = static_cast<uint8_t>(run.value);
        std::memcpy(out, &v, 1);
        break;
      }
      case 2: {
        const auto v = static_cast<uint16_t>(run.value);
        std::memcpy(out, &v, 2);
        break;
      }
      case 4: {
        const auto v = static_cast<uint32_t>(run.value);
        std::memcpy(out, &v, 4);
        break;
      }
      default: {
        const auto v = static_cast<uint64_t>(run.value);
        std::memcpy(out, &v, 8);
        break;
      }
    }
    out += width;
    enc->lengths.push_back(run.length);
    enc->starts.push_back(row);
    row += run.length;
  }
  return enc;
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
  for (size_t p = 0; p < table->num_partitions(); ++p) {
    const Partition& part = table->partition(p);
    for (size_t ch = 0; ch < part.num_chunks(); ++ch) {
      const Chunk& chunk = part.chunk(ch);
      for (size_t c = 0; c < chunk.num_columns(); ++c) {
        const EncodedColumn* enc = chunk.encoding(c);
        ColumnEncodingReport& report = reports[c];
        ++report.vectors_total;
        report.plain_bytes += chunk.column(c).byte_size();
        if (enc != nullptr) {
          ++report.vectors_rle;
          report.encoded_bytes += enc->encoded_bytes();
        } else {
          report.encoded_bytes += chunk.column(c).byte_size();
        }
      }
    }
  }
  for (size_t c = 0; c < reports.size(); ++c) {
    const ColumnEncodingReport& r = reports[c];
    table->stats(c).compression_ratio =
        r.encoded_bytes == 0 ? 1.0
                             : static_cast<double>(r.plain_bytes) /
                                   static_cast<double>(r.encoded_bytes);
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

// ---- Encoded-scan gate -----------------------------------------------------

namespace {

// Resolves RAPID_ENCODED_SCAN once and logs the choice (mirrors the
// RAPID_SIMD startup resolution in common/simd.cc).
EncodedScanMode ResolveStartupMode() {
  EncodedScanMode mode = EncodedScanMode::kAuto;
  const char* requested = "auto";
  if (const char* env = std::getenv("RAPID_ENCODED_SCAN");
      env != nullptr && *env) {
    requested = env;
    if (std::strcmp(env, "off") == 0) {
      mode = EncodedScanMode::kOff;
    } else if (std::strcmp(env, "auto") == 0) {
      mode = EncodedScanMode::kAuto;
    } else {
      RAPID_LOG(kWarn,
                "unknown RAPID_ENCODED_SCAN value '%s' "
                "(want off|auto); using auto",
                env);
    }
  }
  RAPID_LOG(kInfo, "encoded scans %s (RAPID_ENCODED_SCAN=%s)",
            mode == EncodedScanMode::kAuto ? "auto" : "off", requested);
  return mode;
}

// -1 encodes "no override"; anything else is a ForceEncodedScan pin.
std::atomic<int> g_forced_mode{-1};

}  // namespace

EncodedScanMode EncodedScanActive() {
  const int forced = g_forced_mode.load(std::memory_order_acquire);
  if (forced >= 0) return static_cast<EncodedScanMode>(forced);
  static const EncodedScanMode startup = ResolveStartupMode();
  return startup;
}

EncodedScanMode ForceEncodedScan(EncodedScanMode mode) {
  const EncodedScanMode previous = EncodedScanActive();
  g_forced_mode.store(static_cast<int>(mode), std::memory_order_release);
  return previous;
}

}  // namespace rapid::storage
