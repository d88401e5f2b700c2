// Tile-local memory ablation: (1) software-partition column scatter,
// scalar store loop vs the write-combining kernel that stages full
// cache lines in DMEM-modeled scratch and flushes them with streaming
// stores — measured in GB/s at fan-outs crossing the TLB/cache-line
// pressure point, with in-bench bit-identity; (2) heap allocations per
// tile on the TPC-H Q6 and Q14 paths, tile-pool recycling vs the
// pre-pool one-heap-allocation-per-acquire behavior (the config's
// tile_pool_bypass). Emits BENCH_memory.json for the CI trend line.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <random>
#include <vector>

#include "bench/bench_util.h"
#include "common/arena.h"
#include "common/config.h"
#include "common/simd.h"
#include "core/engine.h"
#include "hostdb/database.h"
#include "primitives/simd.h"
#include "tpch/queries.h"

namespace {

using namespace rapid;

struct ScatterPoint {
  size_t fanout = 0;
  double scalar_gbs = 0;
  double vector_gbs = 0;
  bool identical = false;
};

double SecondsOf(const std::function<void()>& fn, int reps) {
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

ScatterPoint RunScatter(size_t fanout, size_t n, int reps) {
  std::mt19937_64 rng(fanout * 7919 + 17);
  std::vector<int64_t> input(n);
  std::vector<uint16_t> pof(n);
  std::vector<uint32_t> counts(fanout, 0);
  for (size_t i = 0; i < n; ++i) {
    input[i] = static_cast<int64_t>(rng());
    pof[i] = static_cast<uint16_t>(rng() % fanout);
    ++counts[pof[i]];
  }
  Arena arena;
  uint8_t* wc = static_cast<uint8_t*>(
      arena.Allocate(primitives::simd::ScatterScratchBytes(fanout)));

  // Two independent destination sets so the levels cannot alias.
  auto make_dst = [&](std::vector<std::vector<int64_t>>* storage,
                      std::vector<int64_t*>* dst) {
    storage->assign(fanout, {});
    dst->assign(fanout, nullptr);
    for (size_t p = 0; p < fanout; ++p) {
      (*storage)[p].assign(counts[p] + 1, 0);
      (*dst)[p] = (*storage)[p].data();
    }
  };
  std::vector<std::vector<int64_t>> sstore, vstore;
  std::vector<int64_t*> sdst, vdst;
  make_dst(&sstore, &sdst);
  make_dst(&vstore, &vdst);

  ScatterPoint point;
  point.fanout = fanout;
  const double bytes = static_cast<double>(n) * sizeof(int64_t) * reps;

  ScopedConfig config(&Config::simd, SimdLevel::kScalar);
  auto scalar_fn = primitives::simd::partition_kernels().scatter_col;
  config.Set(&Config::simd, SimdLevelSupported());
  auto vector_fn = primitives::simd::partition_kernels().scatter_col;

  // Each call restarts its cursors from the dst bases, so repetitions
  // overwrite in place and timing stays allocation-free.
  point.scalar_gbs =
      bytes / SecondsOf([&] { scalar_fn(input.data(), pof.data(), n, fanout,
                                        sdst.data(), wc); }, reps) / 1e9;
  point.vector_gbs =
      bytes / SecondsOf([&] { vector_fn(input.data(), pof.data(), n, fanout,
                                        vdst.data(), wc); }, reps) / 1e9;

  point.identical = true;
  for (size_t p = 0; p < fanout; ++p) {
    if (std::memcmp(sstore[p].data(), vstore[p].data(),
                    counts[p] * sizeof(int64_t)) != 0) {
      point.identical = false;
    }
  }
  return point;
}

struct AllocPoint {
  std::string name;
  uint64_t tiles = 1;
  uint64_t heap_allocs_before = 0;  // pool bypassed: one heap alloc each
  uint64_t heap_allocs_after = 0;   // warm pool: misses only
  double reduction = 0;
};

TilePoolStats PoolNow(core::RapidEngine& engine) {
  TilePoolStats total;
  for (int c = 0; c < engine.dpu().num_cores(); ++c) {
    total.Accumulate(engine.dpu().core(c).pool().stats());
  }
  return total;
}

AllocPoint RunAllocs(core::RapidEngine& engine, const tpch::TpchQuery& query,
                     size_t tile_rows) {
  AllocPoint point;
  point.name = query.name;

  // "Before": the pre-pool engine — every tile-scratch acquire is a
  // heap allocation (and the arena never grows).
  TilePoolStats t0;
  TilePoolStats t1;
  {
    ScopedConfig bypass(&Config::tile_pool_bypass, true);
    t0 = PoolNow(engine);
    auto before = tpch::RunOnRapid(engine, query);
    RAPID_CHECK(before.ok());
    t1 = PoolNow(engine);
  }
  point.heap_allocs_before = t1.acquires - t0.acquires;

  // "After": warm the pool once, then measure the steady state every
  // query after the first actually runs in.
  auto warm = tpch::RunOnRapid(engine, query);
  RAPID_CHECK(warm.ok());
  TilePoolStats t2 = PoolNow(engine);
  auto after = tpch::RunOnRapid(engine, query);
  RAPID_CHECK(after.ok());
  TilePoolStats t3 = PoolNow(engine);
  point.heap_allocs_after = t3.misses - t2.misses;

  const uint64_t scanned = after.value().workload.scanned_rows;
  point.tiles = scanned > 0 ? (scanned + tile_rows - 1) / tile_rows : 1;
  point.reduction =
      static_cast<double>(point.heap_allocs_before) /
      static_cast<double>(std::max<uint64_t>(1, point.heap_allocs_after));
  return point;
}

}  // namespace

int main() {
  bench::Header("Tile-local memory",
                "WC partition scatter + tile-pool allocation ablation");

  // ---- Scatter kernels -----------------------------------------------------
  // Output must exceed the last-level cache for the streaming stores
  // to pay off — that is the regime the partition scatter lives in
  // (fresh destination vectors every tile, fan-out x columns outputs).
  const size_t kRows = 1u << 23;  // 64 MiB of int64 per pass
  const int kReps = 4;
  std::vector<ScatterPoint> scatter;
  for (size_t fanout : {16u, 64u, 256u}) {
    scatter.push_back(RunScatter(fanout, kRows, kReps));
    RAPID_CHECK(scatter.back().identical);
  }

  std::printf("scatter, %zu rows x %d reps, int64 columns (vector tier: %s)\n\n",
              kRows, kReps,
              SimdLevelName(SimdLevelSupported()));
  std::printf("%7s | %11s | %11s | %8s | %9s\n", "fanout", "scalar GB/s",
              "vector GB/s", "speedup", "identical");
  std::printf("--------+-------------+-------------+----------+----------\n");
  for (const ScatterPoint& p : scatter) {
    std::printf("%7zu | %11.2f | %11.2f | %7.2fx | %9s\n", p.fanout,
                p.scalar_gbs, p.vector_gbs, p.vector_gbs / p.scalar_gbs,
                p.identical ? "yes" : "NO");
  }

  // ---- Q6/Q14 allocations per tile ----------------------------------------
  const double sf = rapid::bench::ScaleFactor(0.02);
  const size_t tile_rows = 2048;
  hostdb::HostDatabase host;
  core::RapidEngine engine{dpu::DpuConfig{}};
  RAPID_CHECK(tpch::LoadTpch(sf, &host, &engine, 42, tile_rows).ok());

  std::vector<AllocPoint> allocs;
  for (const char* name : {"Q6", "Q14"}) {
    auto query = tpch::BuildQuery(name);
    RAPID_CHECK(query.ok());
    allocs.push_back(RunAllocs(engine, query.value(), tile_rows));
  }

  std::printf("\nTPC-H SF %.2f, %zu-row tiles; before = pool bypassed (one"
              " heap alloc per acquire), after = warm-pool misses\n\n",
              sf, tile_rows);
  std::printf("%5s | %6s | %13s | %12s | %10s\n", "query", "tiles",
              "allocs before", "allocs after", "reduction");
  std::printf("------+--------+---------------+--------------+-----------\n");
  for (const AllocPoint& p : allocs) {
    std::printf("%5s | %6llu | %13llu | %12llu | %9.1fx\n", p.name.c_str(),
                static_cast<unsigned long long>(p.tiles),
                static_cast<unsigned long long>(p.heap_allocs_before),
                static_cast<unsigned long long>(p.heap_allocs_after),
                p.reduction);
    // Acceptance floor: the pool must at least halve per-tile heap
    // allocations on these paths (steady state is usually alloc-free).
    RAPID_CHECK(p.reduction >= 2.0);
  }

  // ---- JSON ----------------------------------------------------------------
  FILE* json = std::fopen("BENCH_memory.json", "w");
  RAPID_CHECK(json != nullptr);
  std::fprintf(json, "{\n  \"scatter_rows\": %zu,\n  \"scatter\": [\n", kRows);
  for (size_t i = 0; i < scatter.size(); ++i) {
    const ScatterPoint& p = scatter[i];
    std::fprintf(json,
                 "    {\"fanout\": %zu, \"scalar_gbs\": %.3f,"
                 " \"vector_gbs\": %.3f,\n     \"speedup\": %.3f,"
                 " \"identical_results\": %s}%s\n",
                 p.fanout, p.scalar_gbs, p.vector_gbs,
                 p.vector_gbs / p.scalar_gbs, p.identical ? "true" : "false",
                 i + 1 < scatter.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"tile_rows\": %zu,\n  \"allocations\": [\n",
               tile_rows);
  for (size_t i = 0; i < allocs.size(); ++i) {
    const AllocPoint& p = allocs[i];
    std::fprintf(
        json,
        "    {\"query\": \"%s\", \"tiles\": %llu,"
        " \"heap_allocs_before\": %llu,\n     \"heap_allocs_after\": %llu,"
        " \"allocs_per_tile_before\": %.3f,\n"
        "     \"allocs_per_tile_after\": %.3f, \"reduction\": %.1f}%s\n",
        p.name.c_str(), static_cast<unsigned long long>(p.tiles),
        static_cast<unsigned long long>(p.heap_allocs_before),
        static_cast<unsigned long long>(p.heap_allocs_after),
        static_cast<double>(p.heap_allocs_before) /
            static_cast<double>(p.tiles),
        static_cast<double>(p.heap_allocs_after) /
            static_cast<double>(p.tiles),
        p.reduction, i + 1 < allocs.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\nwrote BENCH_memory.json\n");
  return 0;
}
