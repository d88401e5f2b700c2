#include "core/ops/setop_exec.h"

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/fault.h"

namespace rapid::core {

namespace {

uint32_t RowHash(const ColumnSet& set, size_t row) {
  uint32_t h = 0xFFFFFFFFu;
  for (size_t c = 0; c < set.num_columns(); ++c) {
    h = Crc32Combine(h, static_cast<uint64_t>(set.Value(row, c)));
  }
  return h;
}

std::vector<int64_t> RowTuple(const ColumnSet& set, size_t row) {
  std::vector<int64_t> t(set.num_columns());
  for (size_t c = 0; c < set.num_columns(); ++c) t[c] = set.Value(row, c);
  return t;
}

}  // namespace

Result<ColumnSet> SetOpExec::Execute(dpu::Dpu& dpu, SetOpKind kind,
                                     const ColumnSet& left,
                                     const ColumnSet& right) {
  if (left.num_columns() != right.num_columns()) {
    return Status::InvalidArgument("set operation inputs must align");
  }
  // Fixed fan-out independent of the core count: partition contents —
  // and so the merged output order — are the same no matter how many
  // cores execute. Partitions are morsels, balanced by the scheduler.
  constexpr uint32_t kFanout = 64;

  // Hash-partition both sides by full-row hash (modulo fan-out —
  // hardware round-robin engine handles non-power-of-two fanouts).
  std::vector<std::vector<uint32_t>> lpart(kFanout);
  std::vector<std::vector<uint32_t>> rpart(kFanout);
  for (size_t i = 0; i < left.num_rows(); ++i) {
    lpart[RowHash(left, i) % kFanout].push_back(static_cast<uint32_t>(i));
  }
  for (size_t i = 0; i < right.num_rows(); ++i) {
    rpart[RowHash(right, i) % kFanout].push_back(static_cast<uint32_t>(i));
  }
  // One partition-engine pass over both inputs, each row at its
  // columns' physical widths, on one descriptor chain.
  dpu::CycleCounter& cycles = dpu.core(0).cycles();
  RAPID_RETURN_NOT_OK(dpu.dms().RunDescriptor(&cycles, faults::kDmsPartition));
  dpu.dms().ChargePartition(
      &cycles, /*hardware=*/true, static_cast<int>(left.num_columns()),
      left.num_rows() + right.num_rows(),
      left.num_rows() * left.RowBytes() + right.num_rows() * right.RowBytes());

  // A UNION's rows come from both inputs: each column is as wide as
  // the wider side's, and 8 bytes wide when the sides' element types
  // differ.
  std::vector<ColumnMeta> metas = left.metas();
  if (kind == SetOpKind::kUnion) {
    for (size_t c = 0; c < metas.size(); ++c) {
      const ColumnMeta& r = right.meta(c);
      metas[c].width = metas[c].type == r.type
                           ? std::max(metas[c].width, r.width)
                           : sizeof(int64_t);
    }
  }
  std::vector<ColumnSet> per_part(kFanout, ColumnSet(metas));
  std::vector<double> weights(kFanout);
  for (size_t p = 0; p < kFanout; ++p) {
    weights[p] = static_cast<double>(lpart[p].size() + rpart[p].size());
  }
  RAPID_RETURN_NOT_OK(dpu.ParallelForMorsels(
      weights, /*cancel=*/nullptr, [&](dpu::DpCore& core, size_t p) -> Status {
        const auto& lrows = lpart[p];
        const auto& rrows = rpart[p];
        std::set<std::vector<int64_t>> rset;
        for (uint32_t r : rrows) rset.insert(RowTuple(right, r));
        std::set<std::vector<int64_t>> emitted;
        ColumnSet& out = per_part[p];

        switch (kind) {
          case SetOpKind::kUnion: {
            for (uint32_t r : lrows) {
              auto t = RowTuple(left, r);
              if (emitted.insert(t).second) {
                RAPID_RETURN_NOT_OK(out.AppendRow(t));
              }
            }
            for (const auto& t : rset) {
              if (emitted.insert(t).second) {
                RAPID_RETURN_NOT_OK(out.AppendRow(t));
              }
            }
            break;
          }
          case SetOpKind::kIntersect: {
            for (uint32_t r : lrows) {
              auto t = RowTuple(left, r);
              if (rset.count(t) != 0 && emitted.insert(t).second) {
                RAPID_RETURN_NOT_OK(out.AppendRow(t));
              }
            }
            break;
          }
          case SetOpKind::kMinus: {
            for (uint32_t r : lrows) {
              auto t = RowTuple(left, r);
              if (rset.count(t) == 0 && emitted.insert(t).second) {
                RAPID_RETURN_NOT_OK(out.AppendRow(t));
              }
            }
            break;
          }
        }
        core.cycles().ChargeCompute(
            dpu.params().groupby_cycles_per_row *
            static_cast<double>(lrows.size() + rrows.size()));
        return Status::OK();
      }));

  ColumnSet merged(metas);
  for (const ColumnSet& cs : per_part) merged.Append(cs);
  return merged;
}

}  // namespace rapid::core
