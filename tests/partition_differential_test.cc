// PartitionExec against a per-row reference partitioner, under every
// SIMD tier: Execute, ExecuteSink and Repartition must place every row
// where hashing its widened keys row by row says, in input order within
// each bucket, with the same carried hashes. Keys and payloads are 1, 2,
// 4 (a dictionary code) and 8 bytes wide; fan-outs 2, 64 and 1024 leave
// buckets empty; 77- and 100-row tiles and odd morsel sizes start the
// units' and tiles' shares of a bucket at unaligned offsets.

#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "common/config.h"
#include "common/fault.h"
#include "common/simd.h"
#include "core/ops/partition_exec.h"
#include "primitives/hash.h"
#include "tests/test_util.h"

namespace rapid {
namespace {

using core::ColumnMeta;
using core::ColumnSet;
using core::PartitionExec;
using core::PartitionRound;
using core::PartitionScheme;
using storage::DataType;

constexpr size_t kRows = 3001;
constexpr size_t kWidths[] = {1, 2, 4, 8};
constexpr int kFanouts[] = {2, 64, 1024};

std::vector<SimdLevel> Levels() {
  std::vector<SimdLevel> levels;
  for (int l = 0; l <= static_cast<int>(SimdLevelSupported()); ++l) {
    levels.push_back(static_cast<SimdLevel>(l));
  }
  return levels;
}

ColumnMeta Meta(const char* name, DataType type, size_t width) {
  ColumnMeta m;
  m.name = name;
  m.type = type;
  m.width = width;
  return m;
}

// Column 0 is the key at `key_width` (a dictionary code at 4 bytes);
// the payloads are 1, 2, 4 and 8 bytes wide. Values span each width's
// range, negatives included.
ColumnSet MakeInput(size_t key_width, uint64_t seed) {
  ColumnSet set({Meta("k", key_width == 4 ? DataType::kDictCode
                                          : DataType::kInt64,
                      key_width),
                 Meta("p1", DataType::kInt8, 1),
                 Meta("p2", DataType::kInt16, 2),
                 Meta("p4", DataType::kDictCode, 4),
                 Meta("p8", DataType::kInt64, 8)});
  std::mt19937_64 rng(seed);
  set.Resize(kRows);
  for (size_t c = 0; c < set.num_columns(); ++c) {
    set.Visit(c, [&](auto* col) {
      for (size_t i = 0; i < kRows; ++i) {
        col[i] = static_cast<core::ElementOf<decltype(col)>>(rng());
      }
    });
  }
  return set;
}

// Concatenation of `sets` (one schema).
ColumnSet Concat(const std::vector<ColumnSet>& sets) {
  ColumnSet out(sets.front().metas());
  for (const ColumnSet& s : sets) out.Append(s);
  return out;
}

// Hashes of `set`'s column 0 widened to int64, row by row through the
// int64 kernels: the values every width must reproduce.
std::vector<uint32_t> WidenedHashes(const ColumnSet& set) {
  const std::vector<int64_t> keys = set.Values(0);
  const int64_t* cols[] = {keys.data()};
  std::vector<uint32_t> h(keys.size());
  primitives::HashKeysTile(cols, 1, 0, h.size(), 0, h.data());
  return h;
}

// Per-row reference: row i goes to the bucket its hash bits name, round
// by round from bit `shift`, after every earlier row of that bucket.
struct Reference {
  std::vector<std::vector<size_t>> rows;  // per bucket, input row ids
  std::vector<std::vector<uint32_t>> hashes;
};

Reference PerRow(const std::vector<uint32_t>& h,
                 const std::vector<int>& fanouts, int shift) {
  size_t total = 1;
  for (int f : fanouts) total *= static_cast<size_t>(f);
  Reference ref;
  ref.rows.resize(total);
  ref.hashes.resize(total);
  for (size_t i = 0; i < h.size(); ++i) {
    size_t bucket = 0;
    int bit = shift;
    for (int f : fanouts) {
      bucket = bucket * static_cast<size_t>(f) +
               ((h[i] >> bit) & static_cast<uint32_t>(f - 1));
      bit += std::countr_zero(static_cast<unsigned>(f));
    }
    ref.rows[bucket].push_back(i);
    ref.hashes[bucket].push_back(h[i]);
  }
  return ref;
}

// `got` holds exactly the reference's rows of `input`, bucket by
// bucket, in order, at the input's metas.
void ExpectBuckets(const ColumnSet& input, const Reference& ref,
                   const std::vector<ColumnSet>& got, const char* what) {
  ASSERT_EQ(got.size(), ref.rows.size()) << what;
  size_t empty = 0;
  for (size_t b = 0; b < got.size(); ++b) {
    const ColumnSet& bucket = got[b];
    ASSERT_EQ(bucket.num_rows(), ref.rows[b].size()) << what << " bucket " << b;
    empty += bucket.num_rows() == 0;
    for (size_t c = 0; c < input.num_columns(); ++c) {
      ASSERT_EQ(bucket.meta(c).width, input.meta(c).width) << what;
      ASSERT_EQ(bucket.meta(c).type, input.meta(c).type) << what;
      for (size_t r = 0; r < bucket.num_rows(); ++r) {
        ASSERT_EQ(bucket.Value(r, c), input.Value(ref.rows[b][r], c))
            << what << " bucket " << b << " row " << r << " col " << c;
      }
    }
  }
  if (got.size() >= 1024) {
    EXPECT_GT(empty, 0u) << what;
  }
}

TEST(PartitionDifferentialTest, HashColumnHashesEveryWidthAsItsWidening) {
  for (const SimdLevel level : Levels()) {
    ScopedConfig config(&Config::simd, level);
    for (const size_t width : kWidths) {
      const ColumnSet input = MakeInput(width, 100 + width);
      EXPECT_EQ(PartitionExec::HashColumn(input, {0}), WidenedHashes(input))
          << "width " << width;
      std::vector<uint32_t> shifted(kRows - 5);
      PartitionExec::HashRows(input, {0, 1}, 5, shifted.size(), 3,
                              shifted.data());
      const std::vector<uint32_t> both =
          PartitionExec::HashColumn(input, {0, 1});
      for (size_t i = 0; i < shifted.size(); ++i) {
        ASSERT_EQ(shifted[i], both[i + 5] >> 3) << "width " << width;
      }
    }
  }
}

TEST(PartitionDifferentialTest, ExecuteMatchesPerRowReference) {
  dpu::Dpu dpu;
  for (const size_t width : kWidths) {
    const ColumnSet input = MakeInput(width, width);
    const std::vector<uint32_t> h = WidenedHashes(input);
    for (const int fanout : kFanouts) {
      PartitionScheme one;
      one.rounds = {PartitionRound{fanout, fanout >= 32 ? 32 : fanout}};
      PartitionScheme two;
      two.rounds = {PartitionRound{8, 8}, PartitionRound{fanout, 1}};
      const Reference ref1 = PerRow(h, {fanout}, 0);
      const Reference ref2 = PerRow(h, {8, fanout}, 0);
      const Reference ref_round1 = PerRow(h, {8}, 0);
      PartitionScheme first;
      first.rounds = {two.rounds.front()};
      const uint64_t round1_polls =
          rapid::testing::CleanPollCount(faults::kDmsPartition, [&] {
            ASSERT_OK(PartitionExec::Execute(dpu, input, {0}, first, 77)
                          .status());
          });
      for (const SimdLevel level : Levels()) {
        ScopedConfig config(&Config::simd, level);
        ASSERT_OK_AND_ASSIGN(core::PartitionedData out1,
                             PartitionExec::Execute(dpu, input, {0}, one, 77));
        ExpectBuckets(input, ref1, out1.partitions, "one round");
        ASSERT_OK_AND_ASSIGN(core::PartitionedData out2,
                             PartitionExec::Execute(dpu, input, {0}, two, 77));
        ExpectBuckets(input, ref2, out2.partitions, "two rounds");

        // Round 1's carried hashes come back through the checkpoint
        // when every round-2 descriptor fails.
        core::PartitionProgress progress;
        {
          ScopedFaultInjection fi(3);
          FaultInjector::SiteSpec spec;
          spec.skip_first = round1_polls;
          fi.Arm(faults::kDmsPartition, spec);
          ASSERT_FALSE(PartitionExec::Execute(dpu, input, {0}, two, 77,
                                              nullptr, &progress)
                           .ok());
        }
        ASSERT_EQ(progress.rounds_done, 1);
        ExpectBuckets(input, ref_round1, progress.buckets, "checkpoint");
        EXPECT_EQ(progress.bucket_hashes, ref_round1.hashes);
      }
    }
  }
}

TEST(PartitionDifferentialTest, ExecuteSinkMatchesPerRowReference) {
  dpu::Dpu dpu;
  // Odd morsel sizes, two of them empty, one larger than a tile.
  const size_t sizes[] = {0, 1, 333, 2048, 17, 0, 599, 3};
  for (const size_t width : kWidths) {
    const ColumnSet all = MakeInput(width, 50 + width);
    std::vector<ColumnSet> morsels;
    size_t begin = 0;
    for (const size_t n : sizes) {
      ColumnSet& m = morsels.emplace_back(all.metas());
      for (size_t r = begin; r < begin + n; ++r) {
        std::vector<int64_t> row(all.num_columns());
        for (size_t c = 0; c < row.size(); ++c) row[c] = all.Value(r, c);
        ASSERT_OK(m.AppendRow(row));
      }
      begin += n;
    }
    const ColumnSet input = Concat(morsels);
    const std::vector<uint32_t> h = WidenedHashes(input);
    for (const int fanout : kFanouts) {
      PartitionScheme one;
      one.rounds = {PartitionRound{fanout, 1}};
      PartitionScheme two;
      two.rounds = {PartitionRound{4, 4}, PartitionRound{fanout, 1}};
      const Reference ref1 = PerRow(h, {fanout}, 0);
      const Reference ref2 = PerRow(h, {4, fanout}, 0);
      const Reference ref_round1 = PerRow(h, {4}, 0);
      for (const SimdLevel level : Levels()) {
        ScopedConfig config(&Config::simd, level);
        ASSERT_OK_AND_ASSIGN(
            core::PartitionedData out1,
            PartitionExec::ExecuteSink(dpu, input.metas(), morsels, {0}, one,
                                       100, nullptr, nullptr));
        ExpectBuckets(input, ref1, out1.partitions, "sink one round");
        ASSERT_OK_AND_ASSIGN(
            core::PartitionedData out2,
            PartitionExec::ExecuteSink(dpu, input.metas(), morsels, {0}, two,
                                       100, nullptr, nullptr));
        ExpectBuckets(input, ref2, out2.partitions, "sink two rounds");

        // The sink's round 1 polls nothing: failing every descriptor
        // fails round 2 and checkpoints round 1 with its hashes.
        core::PartitionProgress progress;
        {
          ScopedFaultInjection fi(4);
          fi.Arm(faults::kDmsPartition, FaultInjector::SiteSpec{});
          ASSERT_FALSE(PartitionExec::ExecuteSink(dpu, input.metas(), morsels,
                                                  {0}, two, 100, nullptr,
                                                  &progress)
                           .ok());
        }
        ASSERT_EQ(progress.rounds_done, 1);
        ExpectBuckets(input, ref_round1, progress.buckets, "sink checkpoint");
        EXPECT_EQ(progress.bucket_hashes, ref_round1.hashes);
      }
    }
  }
}

TEST(PartitionDifferentialTest, RepartitionMatchesPerRowReference) {
  dpu::Dpu dpu;
  constexpr int kBitsUsed = 3;
  for (const size_t width : kWidths) {
    const ColumnSet input = MakeInput(width, 200 + width);
    const std::vector<uint32_t> h = WidenedHashes(input);
    for (const int fanout : kFanouts) {
      const Reference ref = PerRow(h, {fanout}, kBitsUsed);
      for (const SimdLevel level : Levels()) {
        ScopedConfig config(&Config::simd, level);
        ASSERT_OK_AND_ASSIGN(
            std::vector<ColumnSet> out,
            PartitionExec::Repartition(dpu.core(0), dpu.dms(), input, {0},
                                       fanout, kBitsUsed, 77));
        ExpectBuckets(input, ref, out, "repartition");
      }
    }
  }
}

}  // namespace
}  // namespace rapid
