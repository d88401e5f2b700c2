// Scalar vs SIMD-dispatched primitive throughput.
//
// Measures every dispatched kernel family (filter, agg, arith, hash,
// partition map, bucket indices) with dispatch pinned to scalar and
// then to the best level the host supports, prints the speedups, and
// emits BENCH_primitives.json with the raw rows/s so the CostParams::
// HostCalibrated() multipliers can be re-derived after kernel changes.
// An end-to-end TPC-H Q6-style scan (wall-clock, not modeled cycles)
// shows how much of the kernel-level win survives a whole query.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/bitvector.h"
#include "common/config.h"
#include "common/rng.h"
#include "common/simd.h"
#include "primitives/agg.h"
#include "primitives/arith.h"
#include "primitives/filter.h"
#include "primitives/hash.h"
#include "primitives/join_kernel.h"
#include "primitives/simd.h"
#include "tpch/queries.h"

namespace {

using namespace rapid;

constexpr size_t kTileRows = 4096;
constexpr size_t kTiles = 2048;  // ~32 MiB of int32 per pass

double SecondsOf(const std::function<void()>& fn) {
  // One warm-up pass, then the best of three timed passes (the VM's
  // scheduler jitter makes min more stable than mean).
  fn();
  double best = 1e30;
  for (int pass = 0; pass < 3; ++pass) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

struct FamilyResult {
  std::string family;
  double scalar_rows_per_sec = 0;
  double simd_rows_per_sec = 0;
  double speedup() const { return simd_rows_per_sec / scalar_rows_per_sec; }
};

FamilyResult Measure(const std::string& family, size_t rows_per_run,
                     const std::function<void()>& fn) {
  FamilyResult r;
  r.family = family;
  ScopedConfig config(&Config::simd, SimdLevel::kScalar);
  r.scalar_rows_per_sec = static_cast<double>(rows_per_run) / SecondsOf(fn);
  config.Set(&Config::simd, SimdLevelSupported());
  r.simd_rows_per_sec = static_cast<double>(rows_per_run) / SecondsOf(fn);
  return r;
}

}  // namespace

int main() {
  bench::Header("Primitives", "scalar vs SIMD-dispatched kernel throughput");
  const SimdLevel best = SimdLevelSupported();
  std::printf("best SIMD level on this host: %s\n\n", SimdLevelName(best));

  Rng rng(7);
  std::vector<int32_t> values(kTileRows);
  std::vector<int32_t> values2(kTileRows);
  std::vector<int64_t> values64(kTileRows);
  std::vector<uint32_t> hashes(kTileRows);
  for (size_t i = 0; i < kTileRows; ++i) {
    values[i] = static_cast<int32_t>(rng.Next());
    values2[i] = static_cast<int32_t>(rng.Next());
    values64[i] = static_cast<int64_t>(rng.Next());
    hashes[i] = static_cast<uint32_t>(rng.Next());
  }
  const size_t total_rows = kTileRows * kTiles;

  std::vector<FamilyResult> results;

  {
    BitVector bv;
    results.push_back(Measure("filter_bv_i32", total_rows, [&] {
      for (size_t t = 0; t < kTiles; ++t) {
        primitives::FilterConstBv<primitives::CmpOp::kLt, int32_t>(
            values.data(), kTileRows, 0, &bv);
      }
    }));
  }
  {
    std::vector<uint32_t> rids;
    results.push_back(Measure("filter_rid_i32", total_rows, [&] {
      for (size_t t = 0; t < kTiles; ++t) {
        rids.clear();
        primitives::FilterConstRid<primitives::CmpOp::kEq, int32_t>(
            values.data(), kTileRows, values[17], &rids);
      }
    }));
  }
  {
    primitives::AggState state;
    results.push_back(Measure("agg_sum_i32", total_rows, [&] {
      for (size_t t = 0; t < kTiles; ++t) {
        primitives::AggTile(values.data(), kTileRows, &state);
      }
    }));
  }
  {
    primitives::AggState state;
    results.push_back(Measure("agg_sum_i64", total_rows, [&] {
      for (size_t t = 0; t < kTiles; ++t) {
        primitives::AggTile(values64.data(), kTileRows, &state);
      }
    }));
  }
  {
    std::vector<int32_t> out(kTileRows);
    results.push_back(Measure("arith_mul_i32", total_rows, [&] {
      for (size_t t = 0; t < kTiles; ++t) {
        primitives::ArithColCol<primitives::ArithOp::kMul, int32_t>(
            values.data(), values2.data(), kTileRows, out.data());
      }
    }));
  }
  {
    std::vector<uint32_t> out(kTileRows);
    results.push_back(Measure("hash_crc32_i64", total_rows, [&] {
      for (size_t t = 0; t < kTiles; ++t) {
        primitives::HashTile(values64.data(), kTileRows, out.data());
      }
    }));
  }
  {
    std::vector<uint16_t> parts(kTileRows);
    std::vector<uint32_t> counts(64);
    results.push_back(Measure("partition_map", total_rows, [&] {
      for (size_t t = 0; t < kTiles; ++t) {
        const auto& kernels = primitives::simd::partition_kernels();
        kernels.partition_of(hashes.data(), kTileRows, 0, 63, parts.data());
        std::fill(counts.begin(), counts.end(), 0u);
        kernels.histogram(parts.data(), kTileRows, counts.data(), 64);
      }
    }));
  }
  {
    std::vector<uint32_t> buckets(kTileRows);
    results.push_back(Measure("bucket_indices", total_rows, [&] {
      for (size_t t = 0; t < kTiles; ++t) {
        primitives::ComputeBucketIndices(hashes.data(), kTileRows, 1024,
                                         buckets.data());
      }
    }));
  }

  std::printf("%-16s | %14s | %14s | %8s\n", "family", "scalar Mrows/s",
              "simd Mrows/s", "speedup");
  std::printf("-----------------+----------------+----------------+---------\n");
  for (const FamilyResult& r : results) {
    std::printf("%-16s | %14.1f | %14.1f | %7.2fx\n", r.family.c_str(),
                r.scalar_rows_per_sec / 1e6, r.simd_rows_per_sec / 1e6,
                r.speedup());
  }

  // ---- End-to-end TPC-H-style query (wall clock) --------------------------
  hostdb::HostDatabase host;
  core::RapidEngine engine;
  const double sf = bench::ScaleFactor();
  RAPID_CHECK_OK(tpch::LoadTpch(sf, &host, &engine));
  auto q6 = tpch::BuildQuery("Q6");
  RAPID_CHECK(q6.ok());
  double e2e_scalar = 0;
  double e2e_simd = 0;
  {
    ScopedConfig config(&Config::simd, SimdLevel::kScalar);
    e2e_scalar = SecondsOf([&] {
      RAPID_CHECK(tpch::RunOnRapid(engine, q6.value()).ok());
    });
    config.Set(&Config::simd, best);
    e2e_simd = SecondsOf([&] {
      RAPID_CHECK(tpch::RunOnRapid(engine, q6.value()).ok());
    });
  }
  std::printf("\nTPC-H Q6 (SF %.2f) wall clock: scalar %.1f ms, %s %.1f ms "
              "(%.2fx)\n",
              sf, e2e_scalar * 1e3, SimdLevelName(best), e2e_simd * 1e3,
              e2e_scalar / e2e_simd);

  // ---- JSON ---------------------------------------------------------------
  FILE* json = std::fopen("BENCH_primitives.json", "w");
  RAPID_CHECK(json != nullptr);
  std::fprintf(json, "{\n  \"simd_level\": \"%s\",\n  \"families\": [\n",
               SimdLevelName(best));
  for (size_t i = 0; i < results.size(); ++i) {
    const FamilyResult& r = results[i];
    std::fprintf(json,
                 "    {\"family\": \"%s\", \"scalar_rows_per_sec\": %.0f, "
                 "\"simd_rows_per_sec\": %.0f, \"speedup\": %.2f}%s\n",
                 r.family.c_str(), r.scalar_rows_per_sec, r.simd_rows_per_sec,
                 r.speedup(), i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json,
               "  ],\n  \"tpch_q6\": {\"sf\": %.2f, \"scalar_seconds\": %.4f, "
               "\"simd_seconds\": %.4f, \"speedup\": %.2f}\n}\n",
               sf, e2e_scalar, e2e_simd, e2e_scalar / e2e_simd);
  std::fclose(json);
  std::printf("wrote BENCH_primitives.json\n");
  return 0;
}
