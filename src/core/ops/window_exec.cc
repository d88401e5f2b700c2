#include "core/ops/window_exec.h"

#include <algorithm>
#include <utility>

namespace rapid::core {

namespace {

bool SamePartition(const ColumnSet& set, const std::vector<size_t>& keys,
                   size_t a, size_t b) {
  for (size_t k : keys) {
    if (set.Value(a, k) != set.Value(b, k)) return false;
  }
  return true;
}

bool SameOrderKeys(const ColumnSet& set, const std::vector<SortKey>& keys,
                   size_t a, size_t b) {
  for (const SortKey& k : keys) {
    if (set.Value(a, k.column) != set.Value(b, k.column)) return false;
  }
  return true;
}

}  // namespace

Result<ColumnSet> WindowExec::Execute(dpu::Dpu& dpu, const ColumnSet& input,
                                      const std::vector<WindowSpec>& specs) {
  if (specs.empty()) {
    return Status::InvalidArgument("window exec needs >= 1 function");
  }
  // All specs must share the partition/order clause (one sort pass);
  // the planner splits incompatible clauses into separate steps.
  for (const WindowSpec& spec : specs) {
    if (spec.partition_by != specs[0].partition_by ||
        spec.order_by.size() != specs[0].order_by.size()) {
      return Status::NotSupported(
          "window functions in one step must share partition/order clause");
    }
    if ((spec.func == WindowFunc::kRunningSum ||
         spec.func == WindowFunc::kPartitionSum) &&
        spec.value_column >= input.num_columns()) {
      return Status::InvalidArgument("window value column out of range");
    }
  }

  // Order by (partition keys, order keys).
  std::vector<SortKey> sort_keys;
  for (size_t k : specs[0].partition_by) sort_keys.push_back(SortKey{k, true});
  for (const SortKey& k : specs[0].order_by) sort_keys.push_back(k);
  RAPID_ASSIGN_OR_RETURN(ColumnSet sorted,
                         SortExec::Execute(dpu, input, sort_keys));

  const size_t n = sorted.num_rows();

  // Locate partition runs.
  std::vector<size_t> starts;
  for (size_t i = 0; i < n; ++i) {
    if (i == 0 ||
        !SamePartition(sorted, specs[0].partition_by, i - 1, i)) {
      starts.push_back(i);
    }
  }
  starts.push_back(n);

  // Output = sorted input + one column per function.
  std::vector<ColumnMeta> metas = sorted.metas();
  for (const WindowSpec& spec : specs) {
    ColumnMeta m;
    m.name = spec.output_name;
    if (spec.func == WindowFunc::kRunningSum ||
        spec.func == WindowFunc::kPartitionSum) {
      m = sorted.meta(spec.value_column);
      m.name = spec.output_name;
      m.width = sizeof(int64_t);  // a sum outgrows its input's width
    }
    metas.push_back(m);
  }
  // The runs below write every row of the function columns.
  ColumnSet out(metas);
  out.Resize(n);
  for (size_t c = 0; c < sorted.num_columns(); ++c) {
    sorted.Visit(c, [&](const auto* src) {
      std::copy_n(src, n, out.data<ElementOf<decltype(src)>>(c));
    });
  }

  // Each run is independent and writes its rows by absolute index, so
  // any core may take any run: runs are morsels weighted by length —
  // one giant partition no longer serializes behind a striped core.
  const size_t num_runs = starts.size() - 1;
  std::vector<double> run_weights(num_runs);
  for (size_t run = 0; run < num_runs; ++run) {
    run_weights[run] = static_cast<double>(starts[run + 1] - starts[run]);
  }
  RAPID_RETURN_NOT_OK(dpu.ParallelForMorsels(
      run_weights, /*cancel=*/nullptr,
      [&](dpu::DpCore& core, size_t run) -> Status {
        const size_t begin = starts[run];
        const size_t end = starts[run + 1];
        for (size_t f = 0; f < specs.size(); ++f) {
          const WindowSpec& spec = specs[f];
          int64_t* dst = out.data<int64_t>(sorted.num_columns() + f);
          switch (spec.func) {
            case WindowFunc::kRowNumber: {
              for (size_t i = begin; i < end; ++i) {
                dst[i] = static_cast<int64_t>(i - begin + 1);
              }
              break;
            }
            case WindowFunc::kRank: {
              int64_t rank = 1;
              for (size_t i = begin; i < end; ++i) {
                if (i > begin && !SameOrderKeys(sorted, spec.order_by, i - 1, i)) {
                  rank = static_cast<int64_t>(i - begin + 1);
                }
                dst[i] = rank;
              }
              break;
            }
            case WindowFunc::kDenseRank: {
              int64_t rank = 1;
              for (size_t i = begin; i < end; ++i) {
                if (i > begin &&
                    !SameOrderKeys(sorted, spec.order_by, i - 1, i)) {
                  ++rank;
                }
                dst[i] = rank;
              }
              break;
            }
            case WindowFunc::kRunningSum: {
              int64_t sum = 0;
              for (size_t i = begin; i < end; ++i) {
                sum += sorted.Value(i, spec.value_column);
                dst[i] = sum;
              }
              break;
            }
            case WindowFunc::kPartitionSum: {
              int64_t sum = 0;
              for (size_t i = begin; i < end; ++i) {
                sum += sorted.Value(i, spec.value_column);
              }
              for (size_t i = begin; i < end; ++i) dst[i] = sum;
              break;
            }
          }
        }
        core.cycles().ChargeCompute(
            dpu.params().agg_cycles_per_row *
            static_cast<double>((end - begin) * specs.size()));
        return Status::OK();
      }));

  return out;
}

}  // namespace rapid::core
