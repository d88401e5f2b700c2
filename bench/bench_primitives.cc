// Scalar vs SIMD-dispatched primitive throughput.
//
// Measures every dispatched kernel family (filter, agg, arith, hash,
// partition map, bucket indices) with dispatch pinned to scalar and
// then to the best level the host supports, prints the speedups, and
// emits BENCH_primitives.json with the raw rows/s. The modeled cost
// model charges per-row cycles at the dpCore's rates (dpu/cost_model.h)
// and reads none of these host rates.
// An end-to-end TPC-H Q6-style scan (wall-clock, not modeled cycles)
// shows how much of the kernel-level win survives a whole query.
//
// The rid_vs_bv table sets the selection-vector crossovers
// (primitives::k*RidCrossover in filter.h and bloom.h): for each
// predicate kind and each density of still-qualifying rows from 1/64
// to 1/2, it times one refining predicate at the best SIMD level both
// ways. The bit-vector side runs the kernel over the whole tile, ANDs
// the selection, counts it and lists the survivors; the RID side lists
// the selection first and runs the RID kernel over the list. Each side
// thus ends with the RID list the gather reads.

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
#include "primitives/bloom.h"
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

// ---- RID kernel vs bit-vector kernel ---------------------------------------

constexpr size_t kRidTiles = 256;
constexpr size_t kDensities[] = {64, 32, 16, 8, 4, 2};  // 1/k of the rows

struct RidPoint {
  std::string kind;
  size_t density = 0;  // 1/density of the tile's rows qualify
  double bv_rows_per_sec = 0;
  double rid_rows_per_sec = 0;
};

// One predicate kind both ways: `bv(out)` writes the kernel's bit
// vector over the whole tile, `rid(rids, n)` refines a RID list.
template <typename BvFn, typename RidFn>
void MeasureRidVsBv(const std::string& kind, BvFn bv, RidFn rid,
                    std::vector<RidPoint>* points) {
  Rng rng(11);
  std::vector<uint32_t> rids(kTileRows);
  BitVector eval;
  BitVector sel;
  for (size_t density : kDensities) {
    BitVector in(kTileRows);
    for (size_t i = 0; i < kTileRows; ++i) {
      if (rng.Next() % density == 0) in.Set(i);
    }
    size_t sink = 0;
    const double bv_s = SecondsOf([&] {
      for (size_t t = 0; t < kRidTiles; ++t) {
        bv(&eval);
        sel = in;
        sel.And(eval);
        sink += sel.CountOnes();
        sink += sel.ToRids(rids.data());
      }
    });
    const double rid_s = SecondsOf([&] {
      for (size_t t = 0; t < kRidTiles; ++t) {
        sink += rid(rids.data(), in.ToRids(rids.data()));
      }
    });
    RAPID_CHECK(sink != 1);  // keeps both loops observable
    const double rows = static_cast<double>(kTileRows * kRidTiles);
    points->push_back({kind, density, rows / bv_s, rows / rid_s});
  }
}

// The RID side must beat the bit-vector side by this factor for a
// density to count as won (filter.h explains the margin).
constexpr double kRidMargin = 1.25;

// The crossover a kind's measurements imply: walking from the sparsest
// density to the densest, the last 1/k the RID side still wins; 0 when
// it loses even at 1/64.
size_t MeasuredCrossover(const std::vector<RidPoint>& points,
                         const std::string& kind) {
  size_t k = 0;
  for (const RidPoint& p : points) {
    if (p.kind != kind) continue;
    if (p.rid_rows_per_sec < kRidMargin * p.bv_rows_per_sec) break;
    k = p.density;
  }
  return k;
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

  // ---- RID kernel vs bit-vector kernel (best level) ----------------------
  std::vector<RidPoint> rid_points;
  std::vector<std::pair<std::string, size_t>> crossovers;
  {
    using primitives::CmpOp;
    ScopedConfig config(&Config::simd, best);
    std::vector<uint32_t> codes(kTileRows);
    BitVector code_set(256);
    for (size_t i = 0; i < kTileRows; ++i) codes[i] = values2[i] & 255u;
    for (size_t c = 0; c < code_set.size(); c += 2) code_set.Set(c);
    primitives::BlockedBloomFilter bloom(
        primitives::BlockedBloomFilter::BlocksForNdv(1024, 8192));
    for (size_t i = 0; i < 1024; ++i) bloom.Insert(values[i * 4] % 4096);
    std::vector<int32_t> keys(kTileRows);
    for (size_t i = 0; i < kTileRows; ++i) keys[i] = values2[i] % 4096;
    const int32_t mid = 0;

    MeasureRidVsBv(
        "const",
        [&](BitVector* out) {
          primitives::FilterConstBv<CmpOp::kLt, int32_t>(values.data(),
                                                         kTileRows, mid, out);
        },
        [&](uint32_t* r, size_t n) {
          return primitives::FilterConstRidRefine<CmpOp::kLt, int32_t>(
              values.data(), mid, r, n);
        },
        &rid_points);
    MeasureRidVsBv(
        "between",
        [&](BitVector* out) {
          primitives::FilterBetweenBv<int32_t>(values.data(), kTileRows,
                                               -(1 << 30), 1 << 30, out);
        },
        [&](uint32_t* r, size_t n) {
          return primitives::FilterBetweenRidRefine<int32_t>(
              values.data(), -(1 << 30), 1 << 30, r, n);
        },
        &rid_points);
    MeasureRidVsBv(
        "colcol",
        [&](BitVector* out) {
          primitives::FilterColColBv<CmpOp::kLt, int32_t>(
              values.data(), values2.data(), kTileRows, out);
        },
        [&](uint32_t* r, size_t n) {
          return primitives::FilterColColRidRefine<CmpOp::kLt, int32_t,
                                                   int32_t>(
              values.data(), values2.data(), r, n);
        },
        &rid_points);
    MeasureRidVsBv(
        "in_set",
        [&](BitVector* out) {
          primitives::FilterDictSetBv<uint32_t>(codes.data(), kTileRows,
                                                code_set, out);
        },
        [&](uint32_t* r, size_t n) {
          return primitives::FilterDictSetRidRefine<uint32_t>(
              codes.data(), code_set, r, n);
        },
        &rid_points);
    MeasureRidVsBv(
        "bloom",
        [&](BitVector* out) {
          out->Resize(kTileRows);
          primitives::simd::bloom_kernels<int32_t>().probe_bv(
              keys.data(), kTileRows, bloom.blocks(), bloom.block_mask(),
              out->mutable_words());
        },
        [&](uint32_t* r, size_t n) {
          return primitives::BloomProbeRidRefine<int32_t>(keys.data(), bloom,
                                                          r, n);
        },
        &rid_points);
    crossovers = {
        {"const", primitives::kConstRidCrossover},
        {"between", primitives::kBetweenRidCrossover},
        {"colcol", primitives::kColColRidCrossover},
        {"in_set", primitives::kDictSetRidCrossover},
        {"bloom", primitives::kBloomRidCrossover},
    };
  }

  std::printf("%-16s | %14s | %14s | %8s\n", "family", "scalar Mrows/s",
              "simd Mrows/s", "speedup");
  std::printf("-----------------+----------------+----------------+---------\n");
  for (const FamilyResult& r : results) {
    std::printf("%-16s | %14.1f | %14.1f | %7.2fx\n", r.family.c_str(),
                r.scalar_rows_per_sec / 1e6, r.simd_rows_per_sec / 1e6,
                r.speedup());
  }

  std::printf("\nRID kernel vs bit-vector kernel (%s, one refining predicate, "
              "Mrows/s of input tile):\n",
              SimdLevelName(best));
  std::printf("%-8s | %7s | %10s | %10s | %7s\n", "kind", "density", "bit vec",
              "rid", "rid/bv");
  for (const RidPoint& p : rid_points) {
    std::printf("%-8s | %7s | %10.1f | %10.1f | %6.2fx\n", p.kind.c_str(),
                ("1/" + std::to_string(p.density)).c_str(),
                p.bv_rows_per_sec / 1e6, p.rid_rows_per_sec / 1e6,
                p.rid_rows_per_sec / p.bv_rows_per_sec);
  }
  for (const auto& [kind, k] : crossovers) {
    std::printf("crossover %-8s: rows/%zu (measured: rows/%zu)\n", kind.c_str(),
                k, MeasuredCrossover(rid_points, kind));
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
  std::fprintf(json, "  ],\n  \"rid_vs_bv\": [\n");
  for (size_t i = 0; i < rid_points.size(); ++i) {
    const RidPoint& p = rid_points[i];
    std::fprintf(json,
                 "    {\"kind\": \"%s\", \"density\": \"1/%zu\", "
                 "\"bv_rows_per_sec\": %.0f, \"rid_rows_per_sec\": %.0f, "
                 "\"speedup\": %.2f}%s\n",
                 p.kind.c_str(), p.density, p.bv_rows_per_sec,
                 p.rid_rows_per_sec, p.rid_rows_per_sec / p.bv_rows_per_sec,
                 i + 1 < rid_points.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"rid_crossover\": {");
  for (size_t i = 0; i < crossovers.size(); ++i) {
    std::fprintf(json, "\"%s\": %zu%s", crossovers[i].first.c_str(),
                 crossovers[i].second, i + 1 < crossovers.size() ? ", " : "");
  }
  std::fprintf(json,
               "},\n  \"tpch_q6\": {\"sf\": %.2f, \"scalar_seconds\": %.4f, "
               "\"simd_seconds\": %.4f, \"speedup\": %.2f}\n}\n",
               sf, e2e_scalar, e2e_simd, e2e_scalar / e2e_simd);
  std::fclose(json);
  std::printf("wrote BENCH_primitives.json\n");
  return 0;
}
