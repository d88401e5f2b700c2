// Scalar-vs-SIMD equivalence suite for the dispatched primitive
// kernels. For every vectorized (op, type) pair the kernels at each
// supported SIMD level must be *bit-identical* to the scalar twin:
// same bit-vector words (including zero tail bits), same RID lists in
// the same order, same aggregate state, same hashes. The suite runs
// the same tiles at the scalar SIMD level and under every level
// up to SimdLevelSupported(), so on an AVX2 host it covers scalar,
// SSE4.2 and AVX2 in one binary; the RAPID_SIMD=off CI leg then
// re-runs it with dispatch pinned to scalar.

#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitvector.h"
#include "common/config.h"
#include "common/crc32.h"
#include "common/simd.h"
#include "dpu/cost_model.h"
#include "primitives/agg.h"
#include "primitives/arith.h"
#include "primitives/filter.h"
#include "primitives/hash.h"
#include "primitives/registry.h"
#include "primitives/simd.h"

namespace rapid::primitives {
namespace {

using rapid::BitVector;
using rapid::Config;
using rapid::ScopedConfig;
using rapid::SimdLevel;
using rapid::SimdLevelSupported;

// Tile lengths exercising empty tiles, word boundaries (63/64/65),
// a non-power-of-two body and a full 4 KiB-row tile.
const size_t kLengths[] = {0, 1, 63, 64, 65, 1000, 4096};

std::vector<SimdLevel> LevelsToTest() {
  std::vector<SimdLevel> levels;
  for (int l = 0; l <= static_cast<int>(SimdLevelSupported()); ++l) {
    levels.push_back(static_cast<SimdLevel>(l));
  }
  return levels;
}

// Seeded tile of T drawn from a small domain (many duplicates, so
// every comparison op selects a non-trivial subset) mixed with
// full-range values and the type's extremes.
template <typename T>
std::vector<T> MakeTile(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<T> values(n);
  for (size_t i = 0; i < n; ++i) {
    switch (rng() % 4) {
      case 0:
        values[i] = static_cast<T>(rng() % 16);  // dense duplicates
        break;
      case 1:
        values[i] = static_cast<T>(rng());  // full bit range
        break;
      case 2:
        values[i] = std::numeric_limits<T>::min();
        break;
      default:
        values[i] = std::numeric_limits<T>::max();
        break;
    }
  }
  return values;
}

template <typename T>
class SimdFilterTest : public ::testing::Test {};
using FilterTypes =
    ::testing::Types<int8_t, uint8_t, int16_t, uint16_t, int32_t, uint32_t,
                     int64_t, uint64_t>;
TYPED_TEST_SUITE(SimdFilterTest, FilterTypes);

TYPED_TEST(SimdFilterTest, ConstBvBitIdenticalAcrossLevels) {
  using T = TypeParam;
  ScopedConfig config(&Config::simd, SimdLevel::kScalar);
  for (size_t n : kLengths) {
    const std::vector<T> values = MakeTile<T>(n, 17 * n + sizeof(T));
    const T constants[] = {static_cast<T>(7), std::numeric_limits<T>::min(),
                           std::numeric_limits<T>::max(),
                           n > 0 ? values[n / 2] : static_cast<T>(0)};
    for (T c : constants) {
      for (int op = 0; op < simd::kNumCmpOps; ++op) {
        // Scalar reference words.
        config.Set(&Config::simd, SimdLevel::kScalar);
        const size_t num_words = (n + 63) / 64;
        std::vector<uint64_t> ref(num_words + 1, ~uint64_t{0});
        simd::filter_kernels<T>().const_bv[op](values.data(), n, c, ref.data());
        for (SimdLevel level : LevelsToTest()) {
          config.Set(&Config::simd, level);
          std::vector<uint64_t> got(num_words + 1, ~uint64_t{0});
          simd::filter_kernels<T>().const_bv[op](values.data(), n, c,
                                                 got.data());
          for (size_t w = 0; w < num_words; ++w) {
            ASSERT_EQ(ref[w], got[w])
                << "type width " << sizeof(T) << " op " << op << " n " << n
                << " level " << rapid::SimdLevelName(level) << " word " << w;
          }
          // Tail bits beyond n must be zero; the guard word beyond
          // ceil(n/64) must be untouched.
          if (n % 64 != 0) {
            EXPECT_EQ(got[num_words - 1] >> (n % 64), 0u);
          }
          EXPECT_EQ(got[num_words], ~uint64_t{0});
        }
      }
    }
  }
}

TYPED_TEST(SimdFilterTest, ColColAndBetweenBitIdenticalAcrossLevels) {
  using T = TypeParam;
  ScopedConfig config(&Config::simd, SimdLevel::kScalar);
  for (size_t n : kLengths) {
    const std::vector<T> left = MakeTile<T>(n, 3 * n + 1);
    const std::vector<T> right = MakeTile<T>(n, 5 * n + 2);
    const T lo = static_cast<T>(2);
    const T hi = static_cast<T>(11);
    const size_t num_words = (n + 63) / 64;

    config.Set(&Config::simd, SimdLevel::kScalar);
    std::vector<std::vector<uint64_t>> ref(simd::kNumCmpOps);
    for (int op = 0; op < simd::kNumCmpOps; ++op) {
      ref[op].assign(num_words, 0);
      simd::filter_kernels<T>().colcol_bv[op](left.data(), right.data(), n,
                                              ref[op].data());
    }
    std::vector<uint64_t> ref_between(num_words, 0);
    simd::filter_kernels<T>().between_bv(left.data(), n, lo, hi,
                                         ref_between.data());

    for (SimdLevel level : LevelsToTest()) {
      config.Set(&Config::simd, level);
      for (int op = 0; op < simd::kNumCmpOps; ++op) {
        std::vector<uint64_t> got(num_words, 0);
        simd::filter_kernels<T>().colcol_bv[op](left.data(), right.data(), n,
                                                got.data());
        EXPECT_EQ(ref[op], got) << "colcol op " << op << " n " << n
                                << " level " << rapid::SimdLevelName(level);
      }
      std::vector<uint64_t> got(num_words, 0);
      simd::filter_kernels<T>().between_bv(left.data(), n, lo, hi, got.data());
      EXPECT_EQ(ref_between, got)
          << "between n " << n << " level " << rapid::SimdLevelName(level);
    }
  }
}

TYPED_TEST(SimdFilterTest, RidListsMatchScalarOrderAndContent) {
  using T = TypeParam;
  ScopedConfig config(&Config::simd, SimdLevel::kScalar);
  for (size_t n : kLengths) {
    const std::vector<T> values = MakeTile<T>(n, 29 * n + 5);
    const T c = static_cast<T>(7);

    config.Set(&Config::simd, SimdLevel::kScalar);
    std::vector<uint32_t> ref_rids;
    FilterConstRid<CmpOp::kLe, T>(values.data(), n, c, &ref_rids);
    std::vector<uint32_t> ref_gathered = ref_rids;
    {
      // Gather the qualifying values, then refine with a second
      // predicate — mirrors the RID pipeline in the executor.
      std::vector<T> gathered(ref_gathered.size());
      for (size_t i = 0; i < ref_gathered.size(); ++i) {
        gathered[i] = values[ref_gathered[i]];
      }
      FilterGatheredRid<CmpOp::kGe, T>(gathered.data(), static_cast<T>(3),
                                       &ref_gathered);
    }

    for (SimdLevel level : LevelsToTest()) {
      config.Set(&Config::simd, level);
      std::vector<uint32_t> rids;
      FilterConstRid<CmpOp::kLe, T>(values.data(), n, c, &rids);
      EXPECT_EQ(ref_rids, rids)
          << "FilterConstRid n " << n << " level "
          << rapid::SimdLevelName(level);
      std::vector<uint32_t> refined = ref_rids;
      std::vector<T> gathered(refined.size());
      for (size_t i = 0; i < refined.size(); ++i) {
        gathered[i] = values[refined[i]];
      }
      const size_t kept = FilterGatheredRid<CmpOp::kGe, T>(
          gathered.data(), static_cast<T>(3), &refined);
      EXPECT_EQ(ref_gathered, refined);
      EXPECT_EQ(ref_gathered.size(), kept);
    }
  }
}

// Satellite regression: FilterConstBv must *assign* every output word,
// not OR into stale bits. Reuse one BitVector across tiles of
// decreasing then increasing length; any read-modify-write of the
// output words or stale tail would leave extra bits set.
TEST(FilterConstBvReuse, NoOrAccumulationAcrossShrinkingAndGrowingTiles) {
  ScopedConfig config(&Config::simd, SimdLevel::kScalar);
  for (SimdLevel level : LevelsToTest()) {
    config.Set(&Config::simd, level);
    BitVector bv;
    for (size_t n : {4096, 65, 64, 63, 1, 0, 1, 63, 64, 65, 4096}) {
      std::vector<int32_t> values(n, 1);  // all rows qualify (== 1)
      FilterConstBv<CmpOp::kEq, int32_t>(values.data(), n, 1, &bv);
      ASSERT_EQ(bv.size(), n);
      ASSERT_EQ(bv.CountOnes(), n) << "level " << rapid::SimdLevelName(level);
      // Now none qualify: every previously-set bit must clear.
      FilterConstBv<CmpOp::kEq, int32_t>(values.data(), n, 2, &bv);
      ASSERT_EQ(bv.CountOnes(), 0u) << "level "
                                    << rapid::SimdLevelName(level);
    }
  }
}

TEST(FilterConstBvRefine, MatchesFilterThenAnd) {
  ScopedConfig config(&Config::simd, SimdLevel::kScalar);
  const size_t n = 1000;
  const std::vector<int32_t> values = MakeTile<int32_t>(n, 99);
  BitVector in;
  in.Resize(n);
  for (size_t i = 0; i < n; i += 3) in.Set(i);
  for (SimdLevel level : LevelsToTest()) {
    config.Set(&Config::simd, level);
    BitVector expected;
    FilterConstBv<CmpOp::kGt, int32_t>(values.data(), n, 5, &expected);
    expected.And(in);
    BitVector got;
    FilterConstBvRefine<CmpOp::kGt, int32_t>(values.data(), n, 5, in, &got);
    EXPECT_TRUE(expected == got) << "level " << rapid::SimdLevelName(level);
  }
}

// ---- Aggregation -----------------------------------------------------------

template <typename T>
class SimdAggTest : public ::testing::Test {};
using AggTypes = ::testing::Types<int32_t, uint32_t, int64_t, uint64_t>;
TYPED_TEST_SUITE(SimdAggTest, AggTypes);

// Agg tiles bound the magnitude so the scalar twin's int64 sum cannot
// overflow (UB there); equivalence over the full bit range is covered
// by the filter/hash tests.
template <typename T>
std::vector<T> MakeAggTile(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<T> values(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t magnitude = rng() % (uint64_t{1} << 40);
    if (std::is_signed_v<T> && rng() % 2 == 0) {
      values[i] = static_cast<T>(-static_cast<int64_t>(magnitude));
    } else {
      values[i] = static_cast<T>(magnitude);
    }
  }
  return values;
}

TYPED_TEST(SimdAggTest, TileAndSelectedMatchScalar) {
  using T = TypeParam;
  ScopedConfig config(&Config::simd, SimdLevel::kScalar);
  for (size_t n : kLengths) {
    const std::vector<T> values = MakeAggTile<T>(n, 7 * n + 3);
    BitVector selected;
    selected.Resize(n);
    std::mt19937_64 rng(n);
    for (size_t i = 0; i < n; ++i) {
      if (rng() % 3 != 0) selected.Set(i);
    }
    // One fully-set word in the middle exercises the all-ones fast
    // path of the selected kernel.
    if (n >= 128) {
      for (size_t i = 64; i < 128; ++i) selected.Set(i);
    }

    config.Set(&Config::simd, SimdLevel::kScalar);
    AggState ref_full;
    AggTile(values.data(), n, &ref_full);
    AggState ref_sel;
    AggTileSelected(values.data(), selected, &ref_sel);

    for (SimdLevel level : LevelsToTest()) {
      config.Set(&Config::simd, level);
      AggState full;
      AggTile(values.data(), n, &full);
      EXPECT_EQ(ref_full.sum, full.sum);
      EXPECT_EQ(ref_full.min, full.min);
      EXPECT_EQ(ref_full.max, full.max);
      EXPECT_EQ(ref_full.count, full.count);
      AggState sel;
      AggTileSelected(values.data(), selected, &sel);
      EXPECT_EQ(ref_sel.sum, sel.sum) << "n " << n << " level "
                                      << rapid::SimdLevelName(level);
      EXPECT_EQ(ref_sel.min, sel.min);
      EXPECT_EQ(ref_sel.max, sel.max);
      EXPECT_EQ(ref_sel.count, sel.count);
    }
  }
}

// Empty and tiny tiles must not clobber min/max with vector-identity
// values (the "merge only if the vector loop ran" guard).
TYPED_TEST(SimdAggTest, TinyTilesDoNotLeakIdentityValues) {
  using T = TypeParam;
  ScopedConfig config(&Config::simd, SimdLevel::kScalar);
  for (SimdLevel level : LevelsToTest()) {
    config.Set(&Config::simd, level);
    AggState state;
    AggTile<T>(nullptr, 0, &state);
    EXPECT_EQ(state.min, INT64_MAX);
    EXPECT_EQ(state.max, INT64_MIN);
    EXPECT_EQ(state.count, 0u);
    const T one[] = {static_cast<T>(5)};
    AggTile<T>(one, 1, &state);
    EXPECT_EQ(state.min, 5);
    EXPECT_EQ(state.max, 5);
    EXPECT_EQ(state.sum, 5);
    EXPECT_EQ(state.count, 1u);
  }
}

// ---- Arithmetic ------------------------------------------------------------

template <typename T>
class SimdArithTest : public ::testing::Test {};
TYPED_TEST_SUITE(SimdArithTest, AggTypes);

// Bounded so T*T and T+T cannot overflow a signed element (UB in the
// scalar twin).
template <typename T>
std::vector<T> MakeArithTile(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<T> values(n);
  for (size_t i = 0; i < n; ++i) {
    const int64_t magnitude = static_cast<int64_t>(rng() % 30000);
    values[i] = static_cast<T>(std::is_signed_v<T> && rng() % 2 == 0
                                   ? -magnitude
                                   : magnitude);
  }
  return values;
}

TYPED_TEST(SimdArithTest, ColColAndColConstMatchScalar) {
  using T = TypeParam;
  ScopedConfig config(&Config::simd, SimdLevel::kScalar);
  for (size_t n : kLengths) {
    const std::vector<T> left = MakeArithTile<T>(n, 11 * n + 1);
    const std::vector<T> right = MakeArithTile<T>(n, 13 * n + 2);
    const T c = static_cast<T>(37);
    for (int op = 0; op < simd::kNumArithOps; ++op) {
      config.Set(&Config::simd, SimdLevel::kScalar);
      std::vector<T> ref_cc(n), ref_ck(n);
      simd::arith_kernels<T>().colcol[op](left.data(), right.data(), n,
                                          ref_cc.data());
      simd::arith_kernels<T>().colconst[op](left.data(), n, c, ref_ck.data());
      for (SimdLevel level : LevelsToTest()) {
        config.Set(&Config::simd, level);
        std::vector<T> cc(n), ck(n);
        simd::arith_kernels<T>().colcol[op](left.data(), right.data(), n,
                                            cc.data());
        simd::arith_kernels<T>().colconst[op](left.data(), n, c, ck.data());
        EXPECT_EQ(ref_cc, cc) << "colcol op " << op << " n " << n << " level "
                              << rapid::SimdLevelName(level);
        EXPECT_EQ(ref_ck, ck) << "colconst op " << op << " n " << n
                              << " level " << rapid::SimdLevelName(level);
        // In-place aliasing (out == values), which DsbRescaleTile uses.
        std::vector<T> inplace = left;
        simd::arith_kernels<T>().colconst[op](inplace.data(), n, c,
                                              inplace.data());
        EXPECT_EQ(ref_ck, inplace);
      }
    }
  }
}

// ---- Hashing ---------------------------------------------------------------

template <typename T>
class SimdHashTest : public ::testing::Test {};
TYPED_TEST_SUITE(SimdHashTest, FilterTypes);

TYPED_TEST(SimdHashTest, TileAndCombineMatchCrc32Reference) {
  using T = TypeParam;
  ScopedConfig config(&Config::simd, SimdLevel::kScalar);
  for (size_t n : kLengths) {
    const std::vector<T> keys = MakeTile<T>(n, 23 * n + 7);
    // Reference: the per-row CRC32 helpers the join/partition layers
    // were built on. Every level must reproduce them exactly, or join
    // placement and partition assignment would change with the ISA.
    std::vector<uint32_t> ref(n), ref_combine(n);
    for (size_t i = 0; i < n; ++i) {
      ref[i] = Crc32U64(static_cast<uint64_t>(keys[i]));
      ref_combine[i] =
          Crc32Combine(static_cast<uint32_t>(i * 2654435761u),
                       static_cast<uint64_t>(keys[i]));
    }
    for (SimdLevel level : LevelsToTest()) {
      config.Set(&Config::simd, level);
      std::vector<uint32_t> got(n);
      HashTile(keys.data(), n, got.data());
      EXPECT_EQ(ref, got) << "HashTile n " << n << " level "
                          << rapid::SimdLevelName(level);
      std::vector<uint32_t> combine(n);
      for (size_t i = 0; i < n; ++i) {
        combine[i] = static_cast<uint32_t>(i * 2654435761u);
      }
      HashCombineTile(keys.data(), n, combine.data());
      EXPECT_EQ(ref_combine, combine)
          << "HashCombineTile n " << n << " level "
          << rapid::SimdLevelName(level);
    }
  }
}

// ---- Partition kernels -----------------------------------------------------

TEST(SimdPartitionTest, PartitionOfHistogramBucketIndicesMatchScalar) {
  ScopedConfig config(&Config::simd, SimdLevel::kScalar);
  for (size_t n : kLengths) {
    std::mt19937_64 rng(41 * n + 9);
    std::vector<uint32_t> hashes(n);
    for (auto& h : hashes) h = static_cast<uint32_t>(rng());
    for (const auto& [shift, fanout] : {std::pair<int, size_t>{0, 32},
                                        {7, 64}, {16, 1024}, {20, 4096}}) {
      const uint32_t mask = static_cast<uint32_t>(fanout - 1);

      config.Set(&Config::simd, SimdLevel::kScalar);
      std::vector<uint16_t> ref_parts(n);
      simd::partition_kernels().partition_of(hashes.data(), n, shift, mask,
                                             ref_parts.data());
      std::vector<uint32_t> ref_counts(fanout, 0);
      simd::partition_kernels().histogram(ref_parts.data(), n,
                                          ref_counts.data(), fanout);
      std::vector<uint32_t> ref_buckets(n);
      simd::partition_kernels().bucket_indices(hashes.data(), n, mask,
                                               ref_buckets.data());

      for (SimdLevel level : LevelsToTest()) {
        config.Set(&Config::simd, level);
        std::vector<uint16_t> parts(n);
        simd::partition_kernels().partition_of(hashes.data(), n, shift, mask,
                                               parts.data());
        EXPECT_EQ(ref_parts, parts) << "partition_of n " << n << " shift "
                                    << shift << " level "
                                    << rapid::SimdLevelName(level);
        std::vector<uint32_t> counts(fanout, 0);
        simd::partition_kernels().histogram(parts.data(), n, counts.data(),
                                            fanout);
        EXPECT_EQ(ref_counts, counts);
        std::vector<uint32_t> buckets(n);
        simd::partition_kernels().bucket_indices(hashes.data(), n, mask,
                                                 buckets.data());
        EXPECT_EQ(ref_buckets, buckets);
      }
    }
  }
}

// A partition_of mask wider than 16 bits saturates packus_epi32; the
// AVX2 kernel must detect this and produce the scalar truncation.
TEST(SimdPartitionTest, WideMaskFallsBackToScalarSemantics) {
  ScopedConfig config(&Config::simd, SimdLevel::kScalar);
  const size_t n = 1000;
  std::mt19937_64 rng(5);
  std::vector<uint32_t> hashes(n);
  for (auto& h : hashes) h = static_cast<uint32_t>(rng());
  const uint32_t wide_mask = (1u << 18) - 1;  // fanout 256 Ki (synthetic)

  config.Set(&Config::simd, SimdLevel::kScalar);
  std::vector<uint16_t> ref(n);
  simd::partition_kernels().partition_of(hashes.data(), n, 0, wide_mask,
                                         ref.data());
  for (SimdLevel level : LevelsToTest()) {
    config.Set(&Config::simd, level);
    std::vector<uint16_t> got(n);
    simd::partition_kernels().partition_of(hashes.data(), n, 0, wide_mask,
                                           got.data());
    EXPECT_EQ(ref, got) << "level " << rapid::SimdLevelName(level);
  }
}

// ---- Dispatch bookkeeping --------------------------------------------------

TEST(SimdDispatchTest, ResolvedLevelNeverExceedsActiveLevel) {
  ScopedConfig config(&Config::simd, SimdLevel::kScalar);
  for (SimdLevel level : LevelsToTest()) {
    config.Set(&Config::simd, level);
    for (const char* family : {"filter", "agg", "arith", "hash", "partition"}) {
      for (int width : {1, 2, 4, 8}) {
        EXPECT_LE(static_cast<int>(simd::ResolvedLevel(family, width)),
                  static_cast<int>(level))
            << family << " width " << width;
      }
    }
  }
}

TEST(SimdDispatchTest, CatalogReportsResolvedIsa) {
  ScopedConfig config(&Config::simd, SimdLevel::kScalar);
  const auto& catalog = PrimitiveCatalog::Instance();

  config.Set(&Config::simd, SimdLevel::kScalar);
  for (const PrimitiveInfo& info : catalog.primitives()) {
    auto isa = catalog.ResolvedIsa(info.name);
    ASSERT_TRUE(isa.ok()) << info.name;
    EXPECT_EQ("scalar", isa.value()) << info.name;
  }

  if (SimdLevelSupported() >= SimdLevel::kAvx2) {
    config.Set(&Config::simd, SimdLevel::kAvx2);
    // 4-byte filters run AVX2 kernels; the CRC32 hash family has no
    // AVX2 form and resolves to the inherited SSE4.2 kernels.
    EXPECT_EQ("avx2", catalog
                          .ResolvedIsa(PrimitiveCatalog::FilterName("eq", 4,
                                                                    false))
                          .value());
    EXPECT_EQ("sse42", catalog.ResolvedIsa("rpdmpr_crc32_ub8").value());
  }
  EXPECT_FALSE(catalog.ResolvedIsa("no_such_primitive").ok());
}

TEST(SimdDispatchTest, HostCalibratedMultipliersTrackActiveLevel) {
  ScopedConfig config(&Config::simd, SimdLevel::kScalar);
  config.Set(&Config::simd, SimdLevel::kScalar);
  const dpu::CostParams scalar = dpu::CostParams::HostCalibrated();
  EXPECT_EQ(1.0, scalar.simd.filter);
  EXPECT_EQ(1.0, scalar.simd.agg);

  for (SimdLevel level : LevelsToTest()) {
    config.Set(&Config::simd, level);
    const dpu::CostParams p = dpu::CostParams::HostCalibrated();
    EXPECT_GE(p.simd.filter, 1.0);
    EXPECT_GE(p.simd.agg, 1.0);
    EXPECT_GE(p.simd.arith, 1.0);
    EXPECT_GE(p.simd.hash, 1.0);
    EXPECT_GE(p.simd.partition_map, 1.0);
    if (level == SimdLevel::kAvx2) {
      EXPECT_GT(p.simd.filter, scalar.simd.filter);
      EXPECT_GT(p.simd.agg, scalar.simd.agg);
    }
  }
  // Default() stays deterministic: all multipliers exactly 1.
  EXPECT_EQ(1.0, dpu::CostParams::Default().simd.filter);
  EXPECT_EQ(1.0, dpu::CostParams::Default().simd.partition_map);
}

}  // namespace
}  // namespace rapid::primitives
