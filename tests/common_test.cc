// Unit tests for the common substrate: Status/Result, BitVector,
// CRC32, RNG/Zipf, AlignedBuffer, Config.

#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitvector.h"
#include "common/buffer.h"
#include "common/config.h"
#include "common/crc32.h"
#include "common/mix64.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/status.h"

namespace rapid {
namespace {

// ---- Status / Result -------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad fanout");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad fanout");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(Status::OutOfMemory("x").code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::NotSupported("x").code(), StatusCode::kNotSupported);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::AdmissionDenied("x").code(),
            StatusCode::kAdmissionDenied);
  EXPECT_EQ(Status::CapacityExceeded("x").code(),
            StatusCode::kCapacityExceeded);
  EXPECT_EQ(Status::Cancelled("x").code(), StatusCode::kCancelled);
  EXPECT_EQ(Status::DeadlineExceeded("x").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Status::RetryExhausted("x").code(),
            StatusCode::kRetryExhausted);
}

TEST(StatusTest, FailureRecoveryCodesRoundTrip) {
  // Code -> constructor -> ToString -> predicate, for the codes the
  // failure-recovery paths key off.
  const Status cancelled = Status::Cancelled("user hit ctrl-c");
  EXPECT_EQ(cancelled.ToString(), "Cancelled: user hit ctrl-c");
  EXPECT_TRUE(cancelled.IsCancelled());
  EXPECT_TRUE(cancelled.IsCancellation());
  EXPECT_FALSE(cancelled.IsDeadlineExceeded());

  const Status deadline = Status::DeadlineExceeded("5s budget elapsed");
  EXPECT_EQ(deadline.ToString(), "DeadlineExceeded: 5s budget elapsed");
  EXPECT_TRUE(deadline.IsDeadlineExceeded());
  EXPECT_TRUE(deadline.IsCancellation());
  EXPECT_FALSE(deadline.IsCancelled());

  const Status exhausted = Status::RetryExhausted("4 attempts");
  EXPECT_EQ(exhausted.ToString(), "RetryExhausted: 4 attempts");
  EXPECT_TRUE(exhausted.IsRetryExhausted());
  // Retry exhaustion is a DPU failure, not a dead query: the host may
  // fall back, so it must NOT classify as cancellation.
  EXPECT_FALSE(exhausted.IsCancellation());

  // Predicates discriminate: no other error code reads as cancellation.
  EXPECT_FALSE(Status::OutOfMemory("x").IsCancellation());
  EXPECT_FALSE(Status::Internal("x").IsCancellation());
  EXPECT_TRUE(Status::OutOfMemory("x").IsOutOfMemory());
  EXPECT_TRUE(Status::AdmissionDenied("x").IsAdmissionDenied());
  EXPECT_TRUE(Status::CapacityExceeded("x").IsCapacityExceeded());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nothing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

Result<int> Half(int v) {
  if (v % 2 != 0) return Status::InvalidArgument("odd");
  return v / 2;
}

Status UseHalf(int v, int* out) {
  RAPID_ASSIGN_OR_RETURN(*out, Half(v));
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseHalf(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_EQ(UseHalf(3, &out).code(), StatusCode::kInvalidArgument);
}

// ---- BitVector -------------------------------------------------------------

TEST(BitVectorTest, SetTestClear) {
  BitVector bv(130);
  EXPECT_EQ(bv.size(), 130u);
  EXPECT_EQ(bv.CountOnes(), 0u);
  bv.Set(0);
  bv.Set(64);
  bv.Set(129);
  EXPECT_TRUE(bv.Test(0));
  EXPECT_TRUE(bv.Test(64));
  EXPECT_TRUE(bv.Test(129));
  EXPECT_FALSE(bv.Test(1));
  EXPECT_EQ(bv.CountOnes(), 3u);
  bv.Clear(64);
  EXPECT_FALSE(bv.Test(64));
  EXPECT_EQ(bv.CountOnes(), 2u);
}

TEST(BitVectorTest, SetAllMasksTail) {
  BitVector bv(70);
  bv.SetAll();
  EXPECT_EQ(bv.CountOnes(), 70u);
  bv.Not();
  EXPECT_EQ(bv.CountOnes(), 0u);
}

TEST(BitVectorTest, NotMasksTailBits) {
  BitVector bv(3);
  bv.Set(1);
  bv.Not();
  EXPECT_TRUE(bv.Test(0));
  EXPECT_FALSE(bv.Test(1));
  EXPECT_TRUE(bv.Test(2));
  EXPECT_EQ(bv.CountOnes(), 2u);
}

TEST(BitVectorTest, AndOr) {
  BitVector a(10);
  BitVector b(10);
  a.Set(1);
  a.Set(3);
  b.Set(3);
  b.Set(5);
  BitVector a_and = a;
  a_and.And(b);
  EXPECT_EQ(a_and.CountOnes(), 1u);
  EXPECT_TRUE(a_and.Test(3));
  BitVector a_or = a;
  a_or.Or(b);
  EXPECT_EQ(a_or.CountOnes(), 3u);
}

TEST(BitVectorTest, RidRoundTrip) {
  BitVector bv(200);
  std::vector<uint32_t> rids = {0, 1, 63, 64, 65, 128, 199};
  for (uint32_t r : rids) bv.Set(r);
  std::vector<uint32_t> out;
  bv.ToRids(&out);
  EXPECT_EQ(out, rids);
  EXPECT_EQ(BitVector::FromRids(rids, 200), bv);
}

TEST(BitVectorTest, RandomRoundTripProperty) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 1 + rng.NextBounded(500);
    BitVector bv(n);
    std::set<uint32_t> expected;
    for (size_t i = 0; i < n / 3 + 1; ++i) {
      const auto r = static_cast<uint32_t>(rng.NextBounded(n));
      bv.Set(r);
      expected.insert(r);
    }
    std::vector<uint32_t> rids;
    bv.ToRids(&rids);
    EXPECT_EQ(rids.size(), expected.size());
    EXPECT_TRUE(std::is_sorted(rids.begin(), rids.end()));
    for (uint32_t r : rids) EXPECT_TRUE(expected.count(r));
    EXPECT_EQ(bv.CountOnes(), expected.size());
  }
}

// ---- CRC32 -----------------------------------------------------------------

TEST(Crc32Test, KnownVector) {
  // CRC32C("123456789") with standard init/final conventions differs;
  // we validate determinism and avalanche behaviour instead.
  const uint32_t h1 = Crc32("123456789", 9);
  const uint32_t h2 = Crc32("123456789", 9);
  const uint32_t h3 = Crc32("123456788", 9);
  EXPECT_EQ(h1, h2);
  EXPECT_NE(h1, h3);
}

TEST(Crc32Test, SeedChaining) {
  const uint32_t a = Crc32U64(42);
  const uint32_t ab = Crc32Combine(a, 43);
  const uint32_t ab2 = Crc32Combine(Crc32U64(42), 43);
  EXPECT_EQ(ab, ab2);
  EXPECT_NE(ab, Crc32Combine(Crc32U64(43), 42));  // order matters
}

TEST(Crc32Test, HardwareMatchesSoftware) {
  // The dispatched Crc32 (SSE4.2 / ARMv8 CRC instructions when the CPU
  // has them) must be bit-identical to the table-walk reference on
  // every length, alignment and seed.
  Rng rng(7);
  std::vector<uint8_t> buf(512);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  const size_t lengths[] = {0, 1, 2, 3, 7, 8, 9, 15, 16, 17,
                            63, 64, 65, 100, 256, 511, 512};
  const uint32_t seeds[] = {0xFFFFFFFFu, 0u, 0xDEADBEEFu};
  for (size_t len : lengths) {
    for (size_t off = 0; off < 3 && off + len <= buf.size(); ++off) {
      for (uint32_t seed : seeds) {
        EXPECT_EQ(Crc32(buf.data() + off, len, seed),
                  Crc32Software(buf.data() + off, len, seed))
            << "len=" << len << " off=" << off << " seed=" << seed;
      }
    }
  }
  // Informational: whether this run exercised the HW path at all.
  SUCCEED() << "hardware CRC32 available: "
            << (Crc32HardwareAvailable() ? "yes" : "no");
}

TEST(Crc32Test, DistributionOverBuckets) {
  // Hash partitioning relies on low bits being well distributed.
  constexpr int kBuckets = 32;
  int counts[kBuckets] = {0};
  for (uint64_t k = 0; k < 32000; ++k) {
    counts[Crc32U64(k) % kBuckets]++;
  }
  for (int b = 0; b < kBuckets; ++b) {
    EXPECT_GT(counts[b], 800) << "bucket " << b;
    EXPECT_LT(counts[b], 1200) << "bucket " << b;
  }
}

// ---- Rng / Zipf ------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
    const int64_t v = rng.NextInRange(-5, 9);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 9);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(ZipfTest, UniformWhenThetaZero) {
  ZipfGenerator zipf(10, 0.0, 42);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) counts[zipf.Sample()]++;
  for (int c : counts) {
    EXPECT_GT(c, 1500);
    EXPECT_LT(c, 2500);
  }
}

TEST(ZipfTest, SkewedConcentratesOnHead) {
  ZipfGenerator zipf(1000, 1.2, 42);
  size_t head = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    if (zipf.Sample() < 10) ++head;
  }
  // With theta=1.2, the top 10 of 1000 values draw well over a third.
  EXPECT_GT(head, static_cast<size_t>(kSamples / 3));
}

TEST(ZipfTest, SamplesWithinDomain) {
  ZipfGenerator zipf(7, 0.9, 1);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(zipf.Sample(), 7u);
}

// ---- AlignedBuffer ---------------------------------------------------------

TEST(AlignedBufferTest, AlignmentAndZeroing) {
  AlignedBuffer buf(100);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(buf.data()) % kCacheLineSize, 0u);
  for (size_t i = 0; i < 100; ++i) EXPECT_EQ(buf.data()[i], 0);
}

TEST(AlignedBufferTest, MoveTransfersOwnership) {
  AlignedBuffer a(64);
  a.data()[0] = 42;
  AlignedBuffer b = std::move(a);
  EXPECT_EQ(b.data()[0], 42);
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(a.size(), 0u);
}

TEST(AlignedBufferTest, EmptyBufferIsSafe) {
  AlignedBuffer buf;
  EXPECT_EQ(buf.size(), 0u);
  AlignedBuffer moved = std::move(buf);
  EXPECT_EQ(moved.size(), 0u);
}

// ---- Mix64 -----------------------------------------------------------------

TEST(Mix64Test, KnownSplitMix64Values) {
  // First outputs of a splitmix64 stream seeded 0 are Mix64(0),
  // Mix64(gamma), Mix64(2*gamma), ... with gamma = 0x9E3779B97F4A7C15.
  EXPECT_EQ(Mix64(0), 0xE220A8397B1DCDAFull);
  EXPECT_EQ(Mix64(0x9E3779B97F4A7C15ull), 0x6E789E6AA1B965F4ull);
}

TEST(Mix64Test, IsInjectiveOnSample) {
  // Mix64 is a bijection on uint64_t; no collisions on any sample.
  std::unordered_set<uint64_t> seen;
  for (uint64_t i = 0; i < 100000; ++i) {
    EXPECT_TRUE(seen.insert(Mix64(i)).second) << "collision at " << i;
  }
}

TEST(Mix64Test, AvalancheFlipsHalfTheOutputBits) {
  // Flipping any single input bit must flip each output bit with
  // probability ~1/2. Measured over 64 bit positions x 256 inputs;
  // a weak finalizer (e.g. multiply-only) fails this by an order of
  // magnitude in the low bits.
  Rng rng(7);
  for (int bit = 0; bit < 64; ++bit) {
    int flipped = 0;
    constexpr int kTrials = 256;
    for (int t = 0; t < kTrials; ++t) {
      const uint64_t x = rng.Next();
      flipped += __builtin_popcountll(Mix64(x) ^ Mix64(x ^ (1ull << bit)));
    }
    const double mean = static_cast<double>(flipped) / kTrials;
    EXPECT_GT(mean, 28.0) << "weak avalanche from input bit " << bit;
    EXPECT_LT(mean, 36.0) << "weak avalanche from input bit " << bit;
  }
}

TEST(Mix64Test, HighAndLowHalvesUniformOnSequentialKeys) {
  // Sequential keys (the common join-key shape) must spread evenly
  // through both the high 32 bits (Bloom block choice) and low 32
  // bits (lane bit positions). 16 buckets x 64k keys: every bucket
  // within 10% of the expected 4096.
  constexpr int kBuckets = 16;
  constexpr uint64_t kKeys = 1 << 16;
  int high[kBuckets] = {0};
  int low[kBuckets] = {0};
  for (uint64_t i = 0; i < kKeys; ++i) {
    const uint64_t h = Mix64(i);
    ++high[(h >> 32) & (kBuckets - 1)];
    ++low[h & (kBuckets - 1)];
  }
  const int expect = kKeys / kBuckets;
  for (int b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(high[b], expect, expect / 10) << "high-half bucket " << b;
    EXPECT_NEAR(low[b], expect, expect / 10) << "low-half bucket " << b;
  }
}

TEST(Mix64Test, IndependentFromCrc32OnCollidingKeys) {
  // Keys crafted to share Crc32U64 low bits must not concentrate in
  // Mix64 blocks: the families are independent by construction.
  std::vector<uint64_t> colliders;
  for (uint64_t i = 0; colliders.size() < 1024 && i < 1u << 22; ++i) {
    if ((Crc32U64(i) & 0xFF) == 0) colliders.push_back(i);
  }
  ASSERT_GE(colliders.size(), 512u);
  constexpr int kBuckets = 8;
  int counts[kBuckets] = {0};
  for (uint64_t k : colliders) {
    ++counts[(Mix64(k) >> 32) & (kBuckets - 1)];
  }
  const int expect = static_cast<int>(colliders.size()) / kBuckets;
  for (int b = 0; b < kBuckets; ++b) {
    EXPECT_GT(counts[b], expect / 2) << "bucket " << b;
    EXPECT_LT(counts[b], expect * 2) << "bucket " << b;
  }
}

TEST(Mix64Test, CombineDiffersFromPlainHashAndKeepsAvalanche) {
  // Composite-key combining must not degenerate to hashing either
  // component alone, and must be order-sensitive: (a, b) and (b, a)
  // are different composite keys.
  EXPECT_NE(Mix64Combine(0, 42), Mix64(42));
  EXPECT_NE(Mix64Combine(Mix64(1), 2), Mix64Combine(Mix64(2), 1));
  std::unordered_set<uint64_t> seen;
  for (uint64_t a = 0; a < 64; ++a) {
    for (uint64_t b = 0; b < 64; ++b) {
      seen.insert(Mix64Combine(Mix64(a), b));
    }
  }
  EXPECT_EQ(seen.size(), 64u * 64u);
}

// ---- Config ----------------------------------------------------------------

// Resolves a config from an environment holding only `name=value`.
Config FromOne(const char* name, const char* value,
               std::vector<std::string>* warnings) {
  return Config::FromEnv(
      [&](const char* var) {
        return std::strcmp(var, name) == 0 ? value : nullptr;
      },
      warnings);
}

Config Defaults() {
  std::vector<std::string> warnings;
  const Config config =
      Config::FromEnv([](const char*) -> const char* { return nullptr; },
                      &warnings);
  EXPECT_TRUE(warnings.empty());
  return config;
}

const char* const kEnvVars[] = {
    "RAPID_SIMD",       "RAPID_ENCODED_SCAN", "RAPID_JOIN_FILTER",
    "RAPID_TRACE",      "RAPID_TRACE_PATH",   "RAPID_LOG_LEVEL",
    "RAPID_CORES",
};

TEST(ConfigTest, UnsetEnvironmentGivesDefaults) {
  const Config config = Defaults();
  EXPECT_EQ(config.simd, SimdLevelSupported());
  EXPECT_EQ(config.encoded_scan, EncodedScanMode::kAuto);
  EXPECT_EQ(config.join_filter, JoinFilterMode::kAuto);
  EXPECT_EQ(config.trace, TraceMode::kOff);
  EXPECT_EQ(config.trace_path, "");
  EXPECT_EQ(config.log_level, LogLevel::kWarn);
  EXPECT_EQ(config.cores, 32);
  EXPECT_FALSE(config.tile_pool_bypass);
}

// `name=value` must set `field` to `expected`, touch no other field and
// warn about nothing.
template <typename T>
void ExpectSpelling(const char* name, const char* value, T Config::*field,
                    std::type_identity_t<T> expected) {
  std::vector<std::string> warnings;
  Config want = Defaults();
  want.*field = expected;
  EXPECT_TRUE(FromOne(name, value, &warnings) == want) << name << "=" << value;
  EXPECT_TRUE(warnings.empty()) << name << "=" << value;
}

TEST(ConfigTest, AcceptsEverySpelling) {
  // Every SIMD request is clamped to what the CPU supports.
  const SimdLevel cpu = SimdLevelSupported();
  ExpectSpelling("RAPID_SIMD", "off", &Config::simd, SimdLevel::kScalar);
  ExpectSpelling("RAPID_SIMD", "scalar", &Config::simd, SimdLevel::kScalar);
  ExpectSpelling("RAPID_SIMD", "avx2", &Config::simd, cpu);
  ExpectSpelling("RAPID_SIMD", "auto", &Config::simd, cpu);
  ExpectSpelling("RAPID_ENCODED_SCAN", "off", &Config::encoded_scan,
                 EncodedScanMode::kOff);
  ExpectSpelling("RAPID_ENCODED_SCAN", "auto", &Config::encoded_scan,
                 EncodedScanMode::kAuto);
  ExpectSpelling("RAPID_JOIN_FILTER", "off", &Config::join_filter,
                 JoinFilterMode::kOff);
  ExpectSpelling("RAPID_JOIN_FILTER", "auto", &Config::join_filter,
                 JoinFilterMode::kAuto);
  ExpectSpelling("RAPID_TRACE", "off", &Config::trace, TraceMode::kOff);
  ExpectSpelling("RAPID_TRACE", "summary", &Config::trace, TraceMode::kSummary);
  ExpectSpelling("RAPID_TRACE", "full", &Config::trace, TraceMode::kFull);
  ExpectSpelling("RAPID_TRACE_PATH", "out/trace.json", &Config::trace_path,
                 "out/trace.json");
  ExpectSpelling("RAPID_LOG_LEVEL", "error", &Config::log_level,
                 LogLevel::kError);
  ExpectSpelling("RAPID_LOG_LEVEL", "warn", &Config::log_level,
                 LogLevel::kWarn);
  ExpectSpelling("RAPID_LOG_LEVEL", "info", &Config::log_level,
                 LogLevel::kInfo);
  ExpectSpelling("RAPID_LOG_LEVEL", "debug", &Config::log_level,
                 LogLevel::kDebug);
  ExpectSpelling("RAPID_CORES", "1", &Config::cores, 1);
  ExpectSpelling("RAPID_CORES", "4", &Config::cores, 4);
  ExpectSpelling("RAPID_CORES", "1024", &Config::cores, 1024);
}

TEST(ConfigTest, EmptyValueGivesDefault) {
  const Config defaults = Defaults();
  for (const char* name : kEnvVars) {
    std::vector<std::string> warnings;
    EXPECT_TRUE(FromOne(name, "", &warnings) == defaults) << name;
    EXPECT_TRUE(warnings.empty()) << name;
  }
}

TEST(ConfigTest, UnknownValueGivesDefaultAndOneWarning) {
  const Config defaults = Defaults();
  std::vector<std::pair<const char*, const char*>> cases;
  for (const char* name : kEnvVars) {
    if (std::strcmp(name, "RAPID_TRACE_PATH") == 0) continue;  // any path
    cases.emplace_back(name, "bogus");
  }
  // `sse42` names no tier: an unknown value like any other.
  cases.emplace_back("RAPID_SIMD", "sse42");
  for (const auto& [name, value] : cases) {
    std::vector<std::string> warnings;
    EXPECT_TRUE(FromOne(name, value, &warnings) == defaults)
        << name << "=" << value;
    ASSERT_EQ(warnings.size(), 1u) << name << "=" << value;
    EXPECT_NE(warnings[0].find(name), std::string::npos) << warnings[0];
  }
}

TEST(ConfigTest, CoreCountParsesAndClamps) {
  const struct {
    const char* value;
    int cores;
    size_t warnings;
  } cases[] = {{"abc", 32, 1}, {"0", 32, 1}, {"5000", 1024, 0}};
  for (const auto& tc : cases) {
    std::vector<std::string> warnings;
    EXPECT_EQ(FromOne("RAPID_CORES", tc.value, &warnings).cores, tc.cores)
        << tc.value;
    EXPECT_EQ(warnings.size(), tc.warnings) << tc.value;
  }
}

TEST(ConfigTest, ScopedConfigClampsAndRestores) {
  const Config before = GetConfig();
  {
    ScopedConfig config(&Config::trace, TraceMode::kFull);
    EXPECT_EQ(GetConfig().trace, TraceMode::kFull);
    config.Set(&Config::simd, SimdLevel::kAvx2);
    EXPECT_EQ(GetConfig().simd, SimdLevelSupported());
    EXPECT_EQ(SimdLevelActive(), SimdLevelSupported());
    config.Set(&Config::cores, 5000);
    EXPECT_EQ(GetConfig().cores, Config::kMaxCores);
    EXPECT_EQ(GetConfig().trace, TraceMode::kFull);
  }
  EXPECT_TRUE(GetConfig() == before);
  Config changed = before;
  changed.encoded_scan = before.encoded_scan == EncodedScanMode::kOff
                             ? EncodedScanMode::kAuto
                             : EncodedScanMode::kOff;
  EXPECT_TRUE(SetConfig(changed) == before);
  EXPECT_TRUE(SetConfig(before) == changed);
}

TEST(ConfigTest, NamesAreCanonicalSpellings) {
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx2), "avx2");
  EXPECT_STREQ(TraceModeName(TraceMode::kSummary), "summary");
  EXPECT_STREQ(LogLevelName(LogLevel::kDebug), "debug");
}

}  // namespace
}  // namespace rapid
