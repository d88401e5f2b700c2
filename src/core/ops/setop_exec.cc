#include "core/ops/setop_exec.h"

#include <set>
#include <utility>
#include <vector>

#include "common/crc32.h"

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
  dpu.core(0).cycles().ChargeDms(dpu::HwPartitionCycles(
      dpu.params(), dpu::HwPartitionStrategy::kHash,
      static_cast<int>(left.num_columns()),
      left.num_rows() + right.num_rows(),
      (left.num_rows() + right.num_rows()) * left.num_columns() *
          sizeof(int64_t)));

  std::vector<ColumnSet> per_part(kFanout, ColumnSet(left.metas()));
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
              if (emitted.insert(t).second) out.AppendRow(t);
            }
            for (const auto& t : rset) {
              if (emitted.insert(t).second) out.AppendRow(t);
            }
            break;
          }
          case SetOpKind::kIntersect: {
            for (uint32_t r : lrows) {
              auto t = RowTuple(left, r);
              if (rset.count(t) != 0 && emitted.insert(t).second) {
                out.AppendRow(t);
              }
            }
            break;
          }
          case SetOpKind::kMinus: {
            for (uint32_t r : lrows) {
              auto t = RowTuple(left, r);
              if (rset.count(t) == 0 && emitted.insert(t).second) {
                out.AppendRow(t);
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

  ColumnSet merged(left.metas());
  for (const ColumnSet& cs : per_part) merged.Append(cs);
  return merged;
}

}  // namespace rapid::core
