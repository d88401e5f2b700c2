// Figure 10: software partitioning operator performance.
//
// Fan-out sweep with 2 columns of 4 bytes and several input tile
// sizes. The paper reports ~948 M rows/s at 32-way fan-out on 32
// cores (7-7.6 GiB/s with tiles > 128 rows), feasibility up to 64-way
// without a significant drop, and larger tiles helping at high
// fan-outs.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/ops/partition_exec.h"
#include "dpu/dpu.h"

namespace {

using namespace rapid;
using namespace rapid::core;

ColumnSet MakeInput(size_t rows) {
  std::vector<ColumnMeta> metas(2);
  metas[0].name = "k";
  metas[0].type = storage::DataType::kInt32;  // 2 x 4-byte columns
  metas[1].name = "v";
  metas[1].type = storage::DataType::kInt32;
  ColumnSet set(metas);
  Rng rng(42);
  set.Reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    RAPID_CHECK_OK(set.AppendRow(
        {rng.NextInRange(0, 1 << 20), static_cast<int64_t>(i)}));
  }
  return set;
}

// Modeled throughput of software-partitioning `input` `fanout` ways.
double MRowsPerSec(dpu::Dpu& dpu, const ColumnSet& input, int fanout,
                   size_t tile_rows) {
  dpu.ResetCores();
  PartitionScheme scheme;
  scheme.rounds.push_back(PartitionRound{fanout, /*hw_fanout=*/1});
  auto result = PartitionExec::Execute(dpu, input, {0}, scheme, tile_rows);
  RAPID_CHECK(result.ok());
  const double seconds = dpu.ModeledPhaseSeconds();
  return static_cast<double>(input.num_rows()) / seconds / 1e6;
}

}  // namespace

int main() {
  bench::Header("Figure 10", "Software partitioning operator performance");
  dpu::Dpu dpu;
  const ColumnSet input = MakeInput(1 << 20);

  std::printf("%-8s", "fanout");
  for (size_t tile : {64u, 128u, 256u, 512u}) {
    std::printf(" | tile=%-4zu", tile);
  }
  std::printf("   (M rows/s, 32 cores)\n");
  std::printf("--------+-----------+-----------+-----------+-----------\n");
  double at32 = 0;
  for (int fanout : {2, 4, 8, 16, 32, 64, 128, 256}) {
    std::printf("%-8d", fanout);
    for (size_t tile : {64u, 128u, 256u, 512u}) {
      const double mrows = MRowsPerSec(dpu, input, fanout, tile);
      if (fanout == 32 && tile == 256) at32 = mrows;
      std::printf(" | %9.0f", mrows);
    }
    std::printf("\n");
  }
  std::printf(
      "\nPaper: ~948 M rows/s at 32-way (reproduced: %.0f M rows/s at\n"
      "tile 256); feasible to 64-way without a significant drop; larger\n"
      "tiles win at high fan-outs (per-partition loop overhead\n"
      "amortizes over more rows).\n",
      at32);
  return 0;
}
