// The partitioned hash join (JoinExec) against a reference built from
// the join table's per-row Probe: rows, row order and JoinStats of
// every join type over the skew, overflow, heavy-hitter, join-filter
// and row-at-a-time paths, and the exact charges of a join whose build
// partitions are all empty.

#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/config.h"
#include "common/rng.h"
#include "core/ops/join_exec.h"
#include "core/ops/partition_exec.h"
#include "core/ops/sink_op.h"
#include "dpu/cost_model.h"
#include "dpu/dpu.h"
#include "primitives/bloom.h"
#include "primitives/hash.h"
#include "primitives/join_kernel.h"
#include "tests/test_util.h"

namespace rapid::core {
namespace {

using rapid::testing::MakeColumnSet;
using rapid::testing::Rows;
using Row = std::vector<int64_t>;

size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void ExpectSameStats(const JoinStats& got, const JoinStats& want,
                     const std::string& where) {
  EXPECT_EQ(got.build_rows, want.build_rows) << where;
  EXPECT_EQ(got.probe_rows, want.probe_rows) << where;
  EXPECT_EQ(got.matches, want.matches) << where;
  EXPECT_EQ(got.chain_steps, want.chain_steps) << where;
  EXPECT_EQ(got.overflow_steps, want.overflow_steps) << where;
  EXPECT_EQ(got.overflowed_partitions, want.overflowed_partitions) << where;
  EXPECT_EQ(got.repartitioned_partitions, want.repartitioned_partitions)
      << where;
  EXPECT_EQ(got.overflow_recoveries, want.overflow_recoveries) << where;
  EXPECT_EQ(got.heavy_hitter_keys, want.heavy_hitter_keys) << where;
  EXPECT_EQ(got.heavy_hitter_matches, want.heavy_hitter_matches) << where;
}

// One partition pair joined row by row through CompactJoinTable::Probe,
// following the kernel's rules: large-skew repartitioning, heavy keys
// (by exact count) on a side list, the DRAM overflow region, the
// per-pair Bloom filter and the emission order of each join type.
class ReferenceJoin {
 public:
  ReferenceJoin(dpu::Dpu& dpu, const JoinSpec& spec) : dpu_(dpu), spec_(spec) {}

  void Pair(const ColumnSet& build, const ColumnSet& probe, int bits_used) {
    const size_t nb = build.num_rows();
    const size_t np = probe.num_rows();
    stats.build_rows += nb;
    stats.probe_rows += np;
    if (spec_.est_rows_per_partition > 0 &&
        static_cast<double>(nb) >
            spec_.large_skew_factor *
                static_cast<double>(spec_.est_rows_per_partition) &&
        bits_used + 1 < 32) {
      const size_t target = (nb + spec_.est_rows_per_partition - 1) /
                            spec_.est_rows_per_partition;
      int extra = static_cast<int>(NextPow2(std::max<size_t>(2, target)));
      const int max_extra_bits = 31 - bits_used;
      if (__builtin_ctz(static_cast<unsigned>(extra)) > max_extra_bits) {
        extra = 1 << max_extra_bits;
      }
      extra = std::min(extra, kMaxRoundFanout);
      auto sub_build = PartitionExec::Repartition(
          dpu_.core(0), dpu_.dms(), build, spec_.build_keys, extra, bits_used,
          spec_.tile_rows);
      auto sub_probe = PartitionExec::Repartition(
          dpu_.core(0), dpu_.dms(), probe, spec_.probe_keys, extra, bits_used,
          spec_.tile_rows);
      ASSERT_TRUE(sub_build.ok() && sub_probe.ok());
      ++stats.repartitioned_partitions;
      const uint64_t saved_build = stats.build_rows;
      const uint64_t saved_probe = stats.probe_rows;
      const int extra_bits = __builtin_ctz(static_cast<unsigned>(extra));
      for (int p = 0; p < extra; ++p) {
        Pair(sub_build.value()[static_cast<size_t>(p)],
             sub_probe.value()[static_cast<size_t>(p)],
             bits_used + extra_bits);
      }
      stats.build_rows = saved_build;
      stats.probe_rows = saved_probe;
      return;
    }

    const size_t nkeys = spec_.build_keys.size();
    auto bkey = [&](size_t row, size_t k) {
      return build.Value(row, spec_.build_keys[k]);
    };
    auto pkey = [&](size_t row, size_t k) {
      return probe.Value(row, spec_.probe_keys[k]);
    };

    // Heavy keys by exact count; the tests keep them far above
    // 1/64 of their partition, where the kernel's sketch finds them.
    std::map<int64_t, std::vector<size_t>> heavy;
    if (spec_.heavy_hitter_threshold > 0 && nkeys == 1) {
      std::map<int64_t, size_t> counts;
      for (size_t i = 0; i < nb; ++i) ++counts[bkey(i, 0)];
      for (const auto& [key, count] : counts) {
        if (count >= spec_.heavy_hitter_threshold) heavy[key];
      }
      stats.heavy_hitter_keys += heavy.size();
    }

    const size_t reduced = std::max<size_t>(
        1, static_cast<size_t>(static_cast<double>(std::max<size_t>(nb, 1)) /
                               spec_.bucket_reduction));
    const int shift = std::min(bits_used, 31);
    primitives::CompactJoinTable table(nb, NextPow2(reduced),
                                       std::min(spec_.dmem_capacity_rows, nb));
    if (nb > spec_.dmem_capacity_rows) ++stats.overflowed_partitions;
    auto hash_of = [&](auto key_of, size_t row) {
      uint32_t h = 0xFFFFFFFFu;
      for (size_t k = 0; k < nkeys; ++k) {
        h = Crc32Combine(h, static_cast<uint64_t>(key_of(row, k)));
      }
      return h >> shift;
    };
    for (size_t i = 0; i < nb; ++i) {
      auto it = heavy.find(bkey(i, 0));
      if (!heavy.empty() && it != heavy.end()) {
        it->second.push_back(i);
      } else {
        table.Insert(hash_of(bkey, i), i);
      }
    }

    primitives::BlockedBloomFilter filter;
    bool use_filter = false;
    if (spec_.build_join_filter &&
        GetConfig().join_filter == JoinFilterMode::kAuto && nkeys == 1 &&
        nb > 0 && np > 0) {
      const size_t blocks = primitives::BlockedBloomFilter::BlocksForNdv(
          nb, dpu_.core(0).dmem().capacity() / 4);
      if (blocks > 0) {
        filter = primitives::BlockedBloomFilter(blocks);
        for (size_t i = 0; i < nb; ++i) {
          filter.Insert(static_cast<uint64_t>(bkey(i, 0)));
        }
        use_filter = true;
      }
    }

    primitives::ProbeStats probe_stats;
    for (size_t prow = 0; prow < np; ++prow) {
      std::vector<size_t> brows;
      if (!use_filter || filter.MayContain(static_cast<uint64_t>(pkey(prow, 0)))) {
        table.Probe(
            hash_of(pkey, prow),
            [&](size_t brow) {
              for (size_t k = 0; k < nkeys; ++k) {
                if (bkey(brow, k) != pkey(prow, k)) return false;
              }
              return true;
            },
            [&](size_t brow) { brows.push_back(brow); }, &probe_stats);
        auto it = heavy.find(pkey(prow, 0));
        if (!heavy.empty() && it != heavy.end()) {
          brows.insert(brows.end(), it->second.begin(), it->second.end());
          stats.heavy_hitter_matches += it->second.size();
        }
      }
      stats.matches += brows.size();
      switch (spec_.type) {
        case JoinType::kInner:
          for (size_t brow : brows) Emit(build, probe, brow, prow);
          break;
        case JoinType::kLeftOuter:
          for (size_t brow : brows) Emit(build, probe, brow, prow);
          if (brows.empty()) Emit(build, probe, SIZE_MAX, prow);
          break;
        case JoinType::kSemi:
          if (!brows.empty()) Emit(build, probe, SIZE_MAX, prow);
          break;
        case JoinType::kAnti:
          if (brows.empty()) Emit(build, probe, SIZE_MAX, prow);
          break;
      }
    }
    stats.chain_steps += probe_stats.chain_steps;
    stats.overflow_steps += probe_stats.overflow_steps;
  }

  std::vector<Row> rows;
  JoinStats stats;

 private:
  void Emit(const ColumnSet& build, const ColumnSet& probe, size_t brow,
            size_t prow) {
    Row row;
    for (const JoinSpec::Output& o : spec_.outputs) {
      if (o.from_build) {
        row.push_back(brow == SIZE_MAX ? kJoinNull
                                       : build.Value(brow, o.column));
      } else {
        row.push_back(probe.Value(prow, o.column));
      }
    }
    rows.push_back(std::move(row));
  }

  dpu::Dpu& dpu_;
  const JoinSpec& spec_;
};

// Columns (k1, k2, v). Keys draw from [0, key_range); `heavy_share`
// of the rows take key 7 on both key columns.
ColumnSet KeyedRows(size_t n, int64_t key_range, uint64_t seed,
                    double heavy_share = 0) {
  Rng rng(seed);
  std::vector<int64_t> k1(n), k2(n), v(n);
  for (size_t i = 0; i < n; ++i) {
    const bool heavy = rng.NextDouble() < heavy_share;
    k1[i] = heavy ? 7 : rng.NextInRange(0, key_range - 1);
    k2[i] = heavy ? 7 : k1[i] % 3;
    v[i] = static_cast<int64_t>(rng.NextBounded(1000000));
  }
  return MakeColumnSet({"k1", "k2", "v"}, {k1, k2, v});
}

struct Case {
  const char* name;
  size_t build_rows;
  int64_t build_key_range;
  double build_heavy_share = 0;
  int fanout = 16;
  size_t dmem_capacity_rows = std::numeric_limits<size_t>::max();
  size_t est_rows_per_partition = 0;
  size_t heavy_hitter_threshold = 0;
  bool vectorized = true;
};

class JoinExecDifferentialTest : public ::testing::Test {
 protected:
  dpu::Dpu dpu_;
};

TEST_F(JoinExecDifferentialTest, EveryPathMatchesThePerRowProbe) {
  const Case cases[] = {
      {"plain", 600, 400},
      {"empty build partitions", 6, 400},
      {"dram overflow", 600, 300, 0, 16, /*dmem_capacity_rows=*/5},
      {"large skew", 1200, 12, 0, 4, SIZE_MAX, /*est_rows_per_partition=*/40},
      {"heavy hitters", 600, 400, 0.4, 4, SIZE_MAX, 0,
       /*heavy_hitter_threshold=*/20},
      {"row at a time", 600, 400, 0, 16, SIZE_MAX, 0, 0,
       /*vectorized=*/false},
  };
  const JoinType types[] = {JoinType::kInner, JoinType::kSemi,
                            JoinType::kAnti, JoinType::kLeftOuter};
  const JoinFilterMode filters[] = {JoinFilterMode::kOff,
                                    JoinFilterMode::kAuto};
  const ColumnSet probe = KeyedRows(1500, 450, 99, 0.05);
  int runs = 0;
  int nonempty_outputs = 0;
  for (const Case& c : cases) {
    const ColumnSet build =
        KeyedRows(c.build_rows, c.build_key_range, 17, c.build_heavy_share);
    for (size_t nkeys : {1, 2}) {
      std::vector<size_t> keys = {0};
      if (nkeys == 2) keys.push_back(1);
      PartitionScheme scheme;
      scheme.rounds.push_back(PartitionRound{c.fanout, c.fanout});
      ASSERT_OK_AND_ASSIGN(PartitionedData bp,
                           PartitionExec::Execute(dpu_, build, keys, scheme, 128));
      ASSERT_OK_AND_ASSIGN(PartitionedData pp,
                           PartitionExec::Execute(dpu_, probe, keys, scheme, 128));
      for (JoinType type : types) {
        for (JoinFilterMode filter : filters) {
          ScopedConfig config(&Config::join_filter, filter);
          JoinSpec spec;
          spec.type = type;
          spec.build_keys = keys;
          spec.probe_keys = keys;
          spec.tile_rows = 64;
          spec.vectorized = c.vectorized;
          spec.dmem_capacity_rows = c.dmem_capacity_rows;
          spec.est_rows_per_partition = c.est_rows_per_partition;
          spec.large_skew_factor = 2.0;
          spec.heavy_hitter_threshold = c.heavy_hitter_threshold;
          spec.build_join_filter = true;
          if (type == JoinType::kSemi || type == JoinType::kAnti) {
            spec.outputs = {{false, 2}, {false, 0}};
          } else {
            spec.outputs = {{true, 2}, {false, 0}, {true, 1}, {false, 2}};
          }
          const std::string where =
              std::string(c.name) + ", " + std::to_string(nkeys) +
              " keys, type " + std::to_string(static_cast<int>(type)) +
              ", filter " + std::to_string(static_cast<int>(filter));

          ReferenceJoin ref(dpu_, spec);
          for (size_t p = 0; p < bp.partitions.size(); ++p) {
            ref.Pair(bp.partitions[p], pp.partitions[p], bp.bits_used);
          }
          JoinStats stats;
          ASSERT_OK_AND_ASSIGN(ColumnSet got,
                               JoinExec::Execute(dpu_, bp, pp, spec, &stats));
          EXPECT_EQ(Rows(got), ref.rows) << where;
          ExpectSameStats(stats, ref.stats, where);
          ++runs;
          if (!ref.rows.empty()) ++nonempty_outputs;
          if (std::string(c.name) == "large skew") {
            EXPECT_GT(stats.repartitioned_partitions, 0u) << where;
          }
          if (std::string(c.name) == "dram overflow") {
            EXPECT_GT(stats.overflow_steps, 0u) << where;
          }
          if (std::string(c.name) == "heavy hitters" && nkeys == 1) {
            EXPECT_GT(stats.heavy_hitter_keys, 0u) << where;
          }
        }
      }
      if (std::string(c.name) == "empty build partitions") {
        size_t empty = 0;
        for (const ColumnSet& part : bp.partitions) {
          if (part.num_rows() == 0) ++empty;
        }
        EXPECT_GT(empty, 0u);
      }
    }
  }
  // Every combination emits rows, so the comparison is never vacuous.
  EXPECT_EQ(nonempty_outputs, runs);
}

// A build partition more than 65,536 times its estimate asks the
// large-skew handler for more ways than a 16-bit partition index holds.
// The handler splits it kMaxRoundFanout ways instead, and the join
// equals the per-row reference.
TEST_F(JoinExecDifferentialTest, LargeSkewFanOutStaysWithinThePartitionIndex) {
  const ColumnSet build = KeyedRows(140000, 1 << 20, 5);
  const ColumnSet probe = KeyedRows(3000, 1 << 20, 6);
  PartitionScheme scheme;
  scheme.rounds.push_back(PartitionRound{2, 2});
  ASSERT_OK_AND_ASSIGN(PartitionedData bp,
                       PartitionExec::Execute(dpu_, build, {0}, scheme, 1024));
  ASSERT_OK_AND_ASSIGN(PartitionedData pp,
                       PartitionExec::Execute(dpu_, probe, {0}, scheme, 1024));
  for (const ColumnSet& part : bp.partitions) {
    ASSERT_GT(part.num_rows(), static_cast<size_t>(kMaxRoundFanout));
  }
  JoinSpec spec;
  spec.type = JoinType::kInner;
  spec.build_keys = {0};
  spec.probe_keys = {0};
  spec.tile_rows = 1024;
  spec.est_rows_per_partition = 1;
  spec.large_skew_factor = 2.0;
  spec.outputs = {{true, 2}, {false, 0}, {false, 2}};
  ReferenceJoin ref(dpu_, spec);
  for (size_t p = 0; p < bp.partitions.size(); ++p) {
    ref.Pair(bp.partitions[p], pp.partitions[p], bp.bits_used);
  }
  JoinStats stats;
  ASSERT_OK_AND_ASSIGN(ColumnSet got,
                       JoinExec::Execute(dpu_, bp, pp, spec, &stats));
  EXPECT_FALSE(ref.rows.empty());
  EXPECT_EQ(Rows(got), ref.rows);
  ExpectSameStats(stats, ref.stats, "large skew past the index");
  EXPECT_GT(stats.repartitioned_partitions, 0u);
}

// A join whose build partitions are all empty does no probe work but
// still pays, per probe tile, the probe formula at zero chain steps and
// matches, the row-at-a-time charge and the probe-key load; its output
// pays its store. Anti and left-outer joins keep every probe row, in
// row order.
TEST_F(JoinExecDifferentialTest, AllEmptyBuildChargesExactlyTheCostFormula) {
  const ColumnSet build = KeyedRows(0, 10, 1);
  const ColumnSet probe = KeyedRows(1000, 50, 2);
  PartitionScheme scheme;
  scheme.rounds.push_back(PartitionRound{8, 8});
  ASSERT_OK_AND_ASSIGN(PartitionedData bp,
                       PartitionExec::Execute(dpu_, build, {0, 1}, scheme, 128));
  ASSERT_OK_AND_ASSIGN(PartitionedData pp,
                       PartitionExec::Execute(dpu_, probe, {0, 1}, scheme, 128));
  const dpu::CostParams& params = dpu_.params();
  const JoinType types[] = {JoinType::kInner, JoinType::kSemi,
                            JoinType::kAnti, JoinType::kLeftOuter};
  for (JoinType type : types) {
    for (bool vectorized : {true, false}) {
      JoinSpec spec;
      spec.type = type;
      spec.build_keys = {0, 1};
      spec.probe_keys = {0, 1};
      spec.tile_rows = 48;
      spec.vectorized = vectorized;
      spec.build_join_filter = true;
      const bool keeps_probe =
          type == JoinType::kAnti || type == JoinType::kLeftOuter;
      if (type == JoinType::kSemi || type == JoinType::kAnti) {
        spec.outputs = {{false, 2}, {false, 0}};
      } else {
        spec.outputs = {{true, 2}, {false, 2}};
      }
      const std::string where = "type " + std::to_string(static_cast<int>(type)) +
                                (vectorized ? "" : ", row at a time");

      dpu_.ResetCores();
      JoinStats stats;
      ASSERT_OK_AND_ASSIGN(ColumnSet got,
                           JoinExec::Execute(dpu_, bp, pp, spec, &stats));
      double compute = 0;
      double dms = 0;
      for (int c = 0; c < dpu_.num_cores(); ++c) {
        compute += dpu_.core(c).cycles().compute_cycles();
        dms += dpu_.core(c).cycles().dms_cycles();
      }

      double want_compute = 0;
      double want_dms = 0;
      std::vector<Row> want_rows;
      const std::vector<ColumnMeta> metas =
          JoinExec::OutputMetas(bp.partitions[0], pp.partitions[0], spec);
      for (const ColumnSet& part : pp.partitions) {
        const size_t n = part.num_rows();
        for (size_t start = 0; start < n; start += spec.tile_rows) {
          const size_t rows = std::min(spec.tile_rows, n - start);
          want_compute += dpu::JoinProbeTileCycles(params, rows, 0, 0);
          if (!vectorized) {
            want_compute += params.row_at_a_time_overhead_cycles *
                            static_cast<double>(rows);
          }
          want_dms += dpu::DmsChainCycles(params, 2,
                                          rows * part.RowBytes({0, 1}),
                                          /*read_write=*/false);
        }
        if (!keeps_probe) continue;
        ColumnSet out(metas);
        for (size_t r = 0; r < n; ++r) {
          Row row;
          for (const JoinSpec::Output& o : spec.outputs) {
            row.push_back(o.from_build ? kJoinNull : part.Value(r, o.column));
          }
          want_rows.push_back(row);
          out.AppendRow(row);
        }
        const size_t half = StagingHalfRows(out, spec.tile_rows);
        for (size_t start = 0; start < n; start += half) {
          want_dms += dpu::DmsChainCycles(
              params, static_cast<int>(out.num_columns()),
              std::min(half, n - start) * out.RowBytes(),
              /*read_write=*/false);
        }
      }
      EXPECT_DOUBLE_EQ(compute, want_compute) << where;
      EXPECT_DOUBLE_EQ(dms, want_dms) << where;
      EXPECT_EQ(Rows(got), want_rows) << where;
      EXPECT_EQ(stats.build_rows, 0u) << where;
      EXPECT_EQ(stats.probe_rows, 1000u) << where;
      EXPECT_EQ(stats.matches, 0u) << where;
      EXPECT_EQ(stats.chain_steps, 0u) << where;
      EXPECT_EQ(stats.overflow_steps, 0u) << where;
    }
  }
}

}  // namespace
}  // namespace rapid::core
