// Tile-local memory ablation: (1) the partition scatter at the
// engine's call shape: a partition sink's round 1
// (PartitionExec::ExecuteSink) over 2048-row morsels into exact-size
// buckets, at 1/2/4/8-byte column widths on cold 64 MiB passes,
// checked row by row against a per-row reference partitioner; (2) heap
// allocations per tile on the TPC-H Q6 and Q14 paths, tile-pool
// recycling vs the pre-pool one-heap-allocation-per-acquire behavior
// (the config's tile_pool_bypass). Emits BENCH_memory.json for the CI
// trend line.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <random>
#include <vector>

#include "bench/bench_util.h"
#include "common/arena.h"
#include "common/config.h"
#include "common/simd.h"
#include "core/engine.h"
#include "core/ops/partition_exec.h"
#include "hostdb/database.h"
#include "tpch/queries.h"

namespace {

using namespace rapid;

constexpr size_t kMorselRows = 2048;

struct ScatterPoint {
  size_t width = 0;
  size_t columns = 0;
  size_t fanout = 0;
  double ms = 0;  // median pass
  double gbs = 0;
  bool identical = false;
};

// `rows` rows of 8 / width columns, every column `width` bytes wide, so
// a pass moves 8 bytes per row at every width; column 0 is the key. Cut
// into kMorselRows-row morsels, as a partition sink's slots are.
std::vector<core::ColumnSet> MakeMorsels(size_t width, size_t rows,
                                         uint64_t seed) {
  std::vector<core::ColumnMeta> metas(sizeof(int64_t) / width);
  for (size_t c = 0; c < metas.size(); ++c) {
    metas[c].name = "c" + std::to_string(c);
    metas[c].width = width;
  }
  std::mt19937_64 rng(seed);
  std::vector<core::ColumnSet> morsels;
  for (size_t begin = 0; begin < rows; begin += kMorselRows) {
    core::ColumnSet& m = morsels.emplace_back(metas);
    m.Resize(std::min(kMorselRows, rows - begin));
    for (size_t c = 0; c < metas.size(); ++c) {
      m.Visit(c, [&](auto* col) {
        for (size_t i = 0; i < m.num_rows(); ++i) {
          col[i] = static_cast<core::ElementOf<decltype(col)>>(rng());
        }
      });
    }
  }
  return morsels;
}

// The per-row reference: row i of the morsels' concatenation goes to
// partition (hash & (fanout - 1)), after every earlier row of that
// partition. True when `parts` holds exactly that.
bool MatchesReference(const std::vector<core::ColumnSet>& morsels,
                      size_t fanout,
                      const std::vector<core::ColumnSet>& parts) {
  if (parts.size() != fanout) return false;
  std::vector<size_t> cursor(fanout, 0);
  for (const core::ColumnSet& m : morsels) {
    const std::vector<uint32_t> h = core::PartitionExec::HashColumn(m, {0});
    for (size_t i = 0; i < m.num_rows(); ++i) {
      const size_t p = h[i] & (fanout - 1);
      const size_t row = cursor[p]++;
      if (row >= parts[p].num_rows()) return false;
      for (size_t c = 0; c < m.num_columns(); ++c) {
        if (parts[p].Value(row, c) != m.Value(i, c)) return false;
      }
    }
  }
  for (size_t p = 0; p < fanout; ++p) {
    if (cursor[p] != parts[p].num_rows()) return false;
  }
  return true;
}

ScatterPoint RunScatter(dpu::Dpu& dpu, size_t width, size_t fanout,
                        size_t rows, int reps) {
  const std::vector<core::ColumnSet> morsels =
      MakeMorsels(width, rows, width * 7919 + fanout);
  const std::vector<core::ColumnMeta> metas = morsels.front().metas();
  core::PartitionScheme scheme;
  scheme.rounds.push_back({static_cast<int>(fanout), 1});
  ScatterPoint point;
  point.width = width;
  point.columns = metas.size();
  point.fanout = fanout;
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    // ExecuteSink consumes its morsels; the copy is not timed. Every
    // pass writes freshly allocated buckets.
    std::vector<core::ColumnSet> input = morsels;
    const auto start = std::chrono::steady_clock::now();
    auto parts = core::PartitionExec::ExecuteSink(
        dpu, metas, std::move(input), {0}, scheme, kMorselRows,
        /*cancel=*/nullptr, /*progress=*/nullptr);
    const auto end = std::chrono::steady_clock::now();
    RAPID_CHECK(parts.ok());
    ms.push_back(std::chrono::duration<double, std::milli>(end - start)
                     .count());
    if (r == 0) {
      point.identical =
          MatchesReference(morsels, fanout, parts.value().partitions);
    }
  }
  std::sort(ms.begin(), ms.end());
  point.ms = ms[ms.size() / 2];
  point.gbs = static_cast<double>(rows * sizeof(int64_t)) / point.ms / 1e6;
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
                "partition sink scatter + tile-pool allocation ablation");

  // ---- Partition scatter -------------------------------------------------
  // Output must exceed the last-level cache: that is the regime the
  // partition scatter lives in (fresh exact-size buckets every round).
  const size_t kRows = 1u << 23;  // 64 MiB per pass at every width
  const int kReps = 5;
  std::vector<ScatterPoint> scatter;
  {
    dpu::Dpu dpu{dpu::DpuConfig{}};
    for (size_t width : {1u, 2u, 4u, 8u}) {
      for (size_t fanout : {64u, 1024u}) {
        scatter.push_back(RunScatter(dpu, width, fanout, kRows, kReps));
        RAPID_CHECK(scatter.back().identical);
      }
    }
  }

  std::printf("partition sink round 1, %zu rows in %zu-row morsels, median "
              "of %d passes (SIMD tier: %s)\n\n",
              kRows, kMorselRows, kReps, SimdLevelName(SimdLevelActive()));
  std::printf("%5s | %7s | %6s | %9s | %7s | %9s\n", "width", "columns",
              "fanout", "pass ms", "GB/s", "identical");
  std::printf("------+---------+--------+-----------+---------+----------\n");
  for (const ScatterPoint& p : scatter) {
    std::printf("%4zuB | %7zu | %6zu | %9.2f | %7.2f | %9s\n", p.width,
                p.columns, p.fanout, p.ms, p.gbs,
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
  std::fprintf(json,
               "{\n  \"scatter_rows\": %zu,\n  \"morsel_rows\": %zu,\n"
               "  \"scatter\": [\n",
               kRows, kMorselRows);
  for (size_t i = 0; i < scatter.size(); ++i) {
    const ScatterPoint& p = scatter[i];
    std::fprintf(json,
                 "    {\"width\": %zu, \"columns\": %zu, \"fanout\": %zu,"
                 " \"pass_ms\": %.3f,\n     \"gbs\": %.3f,"
                 " \"identical_results\": %s}%s\n",
                 p.width, p.columns, p.fanout, p.ms, p.gbs,
                 p.identical ? "true" : "false",
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
