// Dispatch-table assembly: one table set per (family, element type),
// three levels each. Level 0 is the scalar reference; level 1 copies
// it and lets the SSE4.2 TU overlay its kernels; level 2 copies level
// 1 and lets the AVX2 TU overlay. The accessor picks the table for
// SimdLevelActive() on every call, so a config change takes effect
// immediately (the tables themselves are immutable after first use).

#include "primitives/simd.h"

#include "primitives/simd_isa.h"
#include "primitives/simd_scalar.h"

namespace rapid::primitives::simd {
namespace {

constexpr int kNumLevels = 3;

template <typename T>
FilterKernelTable<T> ScalarFilterTable() {
  FilterKernelTable<T> t;
  t.const_bv[static_cast<int>(CmpOp::kEq)] = &ScalarFilterConstBv<CmpOp::kEq, T>;
  t.const_bv[static_cast<int>(CmpOp::kNe)] = &ScalarFilterConstBv<CmpOp::kNe, T>;
  t.const_bv[static_cast<int>(CmpOp::kLt)] = &ScalarFilterConstBv<CmpOp::kLt, T>;
  t.const_bv[static_cast<int>(CmpOp::kLe)] = &ScalarFilterConstBv<CmpOp::kLe, T>;
  t.const_bv[static_cast<int>(CmpOp::kGt)] = &ScalarFilterConstBv<CmpOp::kGt, T>;
  t.const_bv[static_cast<int>(CmpOp::kGe)] = &ScalarFilterConstBv<CmpOp::kGe, T>;
  t.colcol_bv[static_cast<int>(CmpOp::kEq)] = &ScalarFilterColColBv<CmpOp::kEq, T>;
  t.colcol_bv[static_cast<int>(CmpOp::kNe)] = &ScalarFilterColColBv<CmpOp::kNe, T>;
  t.colcol_bv[static_cast<int>(CmpOp::kLt)] = &ScalarFilterColColBv<CmpOp::kLt, T>;
  t.colcol_bv[static_cast<int>(CmpOp::kLe)] = &ScalarFilterColColBv<CmpOp::kLe, T>;
  t.colcol_bv[static_cast<int>(CmpOp::kGt)] = &ScalarFilterColColBv<CmpOp::kGt, T>;
  t.colcol_bv[static_cast<int>(CmpOp::kGe)] = &ScalarFilterColColBv<CmpOp::kGe, T>;
  t.between_bv = &ScalarFilterBetweenBv<T>;
  return t;
}

template <typename T>
AggKernelTable<T> ScalarAggTable() {
  AggKernelTable<T> t;
  t.tile = &ScalarAggTile<T>;
  t.tile_selected = &ScalarAggTileSelected<T>;
  return t;
}

template <typename T>
ArithKernelTable<T> ScalarArithTable() {
  ArithKernelTable<T> t;
  t.colcol[static_cast<int>(ArithOp::kAdd)] = &ScalarArithColCol<ArithOp::kAdd, T>;
  t.colcol[static_cast<int>(ArithOp::kSub)] = &ScalarArithColCol<ArithOp::kSub, T>;
  t.colcol[static_cast<int>(ArithOp::kMul)] = &ScalarArithColCol<ArithOp::kMul, T>;
  t.colconst[static_cast<int>(ArithOp::kAdd)] = &ScalarArithColConst<ArithOp::kAdd, T>;
  t.colconst[static_cast<int>(ArithOp::kSub)] = &ScalarArithColConst<ArithOp::kSub, T>;
  t.colconst[static_cast<int>(ArithOp::kMul)] = &ScalarArithColConst<ArithOp::kMul, T>;
  return t;
}

template <typename T>
RleKernelTable<T> ScalarRleTable() {
  RleKernelTable<T> t;
  t.expand = &ScalarRleExpand<T>;
  return t;
}

template <typename T>
HashKernelTable<T> ScalarHashTable() {
  HashKernelTable<T> t;
  t.tile = &ScalarHashTile<T>;
  t.combine = &ScalarHashCombineTile<T>;
  return t;
}

template <typename T>
BloomKernelTable<T> ScalarBloomTable() {
  BloomKernelTable<T> t;
  t.probe_bv = &ScalarBloomProbeBv<T>;
  return t;
}

void ScalarPartitionOf(const uint32_t* hashes, size_t n, int shift,
                       uint32_t mask, uint16_t* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint16_t>((hashes[i] >> shift) & mask);
  }
}

void ScalarHistogram(const uint16_t* partition_of, size_t n, uint32_t* counts,
                     size_t fanout) {
  (void)fanout;
  for (size_t i = 0; i < n; ++i) ++counts[partition_of[i]];
}

void ScalarBucketIndices(const uint32_t* hashes, size_t n, uint32_t mask,
                         uint32_t* indices) {
  for (size_t i = 0; i < n; ++i) indices[i] = hashes[i] & mask;
}

// Direct scalar scatter: one store per row through per-partition
// cursors kept in the scratch's cursor region (the WC lines stay
// unused at this tier).
void ScalarScatterCol(const int64_t* input, const uint16_t* partition_of,
                      size_t n, size_t fanout, int64_t* const* dst,
                      uint8_t* wc) {
  auto* written = reinterpret_cast<uint64_t*>(
      wc + fanout * (kWcLineBytes + 2 * sizeof(uint32_t)));
  for (size_t p = 0; p < fanout; ++p) written[p] = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t p = partition_of[i];
    dst[p][written[p]++] = input[i];
  }
}

PartitionKernelTable ScalarPartitionTable() {
  PartitionKernelTable t;
  t.partition_of = &ScalarPartitionOf;
  t.histogram = &ScalarHistogram;
  t.bucket_indices = &ScalarBucketIndices;
  t.scatter_col = &ScalarScatterCol;
  return t;
}

// Builds the three layered tables for one family/type.
template <typename Table, typename MakeScalar>
struct TableSet {
  Table levels[kNumLevels];

  explicit TableSet(MakeScalar make) {
    levels[0] = make();
    levels[1] = levels[0];
    Sse42Overlay(&levels[1]);
    levels[2] = levels[1];
    Avx2Overlay(&levels[2]);
  }
};

template <typename Table, typename MakeScalar>
const Table& ActiveTable(MakeScalar make) {
  static const TableSet<Table, MakeScalar> set(make);
  return set.levels[static_cast<int>(SimdLevelActive())];
}

}  // namespace

template <typename T>
const FilterKernelTable<T>& filter_kernels() {
  return ActiveTable<FilterKernelTable<T>>(&ScalarFilterTable<T>);
}

template <typename T>
const AggKernelTable<T>& agg_kernels() {
  return ActiveTable<AggKernelTable<T>>(&ScalarAggTable<T>);
}

template <typename T>
const ArithKernelTable<T>& arith_kernels() {
  return ActiveTable<ArithKernelTable<T>>(&ScalarArithTable<T>);
}

template <typename T>
const HashKernelTable<T>& hash_kernels() {
  return ActiveTable<HashKernelTable<T>>(&ScalarHashTable<T>);
}

template <typename T>
const BloomKernelTable<T>& bloom_kernels() {
  return ActiveTable<BloomKernelTable<T>>(&ScalarBloomTable<T>);
}

template <typename T>
const RleKernelTable<T>& rle_kernels() {
  return ActiveTable<RleKernelTable<T>>(&ScalarRleTable<T>);
}

const PartitionKernelTable& partition_kernels() {
  return ActiveTable<PartitionKernelTable>(&ScalarPartitionTable);
}

#define RAPID_SIMD_INSTANTIATE(T)                              \
  template const FilterKernelTable<T>& filter_kernels<T>();    \
  template const AggKernelTable<T>& agg_kernels<T>();          \
  template const ArithKernelTable<T>& arith_kernels<T>();      \
  template const HashKernelTable<T>& hash_kernels<T>();   \
  template const BloomKernelTable<T>& bloom_kernels<T>(); \
  template const RleKernelTable<T>& rle_kernels<T>();
RAPID_SIMD_FOR_EACH_TYPE(RAPID_SIMD_INSTANTIATE)
#undef RAPID_SIMD_INSTANTIATE

SimdLevel ResolvedLevel(std::string_view family, int width) {
  const SimdLevel active = SimdLevelActive();
  const int lvl = static_cast<int>(active);
  // Highest level <= active that overlays kernels for this family and
  // element width; must be kept in sync with simd_sse42.cc /
  // simd_avx2.cc. Width 0 means width-independent.
  if (family == "filter") {
    if (lvl >= static_cast<int>(SimdLevel::kAvx2)) return SimdLevel::kAvx2;
    if (lvl >= static_cast<int>(SimdLevel::kSse42) && width >= 4) {
      return SimdLevel::kSse42;
    }
    return SimdLevel::kScalar;
  }
  if (family == "agg" || family == "arith") {
    if (lvl >= static_cast<int>(SimdLevel::kAvx2) && width >= 4) {
      return SimdLevel::kAvx2;
    }
    return SimdLevel::kScalar;
  }
  if (family == "hash") {
    // The batched CRC kernel is SSE4.2 (no AVX2 CRC exists); under
    // avx2 the inherited sse42 kernel runs.
    if (lvl >= static_cast<int>(SimdLevel::kSse42)) return SimdLevel::kSse42;
    return SimdLevel::kScalar;
  }
  if (family == "partition") {
    if (lvl >= static_cast<int>(SimdLevel::kAvx2)) return SimdLevel::kAvx2;
    if (lvl >= static_cast<int>(SimdLevel::kSse42)) return SimdLevel::kSse42;
    return SimdLevel::kScalar;
  }
  if (family == "bloom") {
    // AVX2 probes all eight lanes at once; SSE4.2 only unrolls the
    // scalar probe (4-way), all widths.
    if (lvl >= static_cast<int>(SimdLevel::kAvx2)) return SimdLevel::kAvx2;
    if (lvl >= static_cast<int>(SimdLevel::kSse42)) return SimdLevel::kSse42;
    return SimdLevel::kScalar;
  }
  if (family == "rle") {
    // Broadcast-fill expansion: AVX2 covers all widths, SSE4.2 only
    // the 4/8-byte splats.
    if (lvl >= static_cast<int>(SimdLevel::kAvx2)) return SimdLevel::kAvx2;
    if (lvl >= static_cast<int>(SimdLevel::kSse42) && width >= 4) {
      return SimdLevel::kSse42;
    }
    return SimdLevel::kScalar;
  }
  return SimdLevel::kScalar;
}

}  // namespace rapid::primitives::simd
