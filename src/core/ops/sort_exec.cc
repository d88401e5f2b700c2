#include "core/ops/sort_exec.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "common/trace.h"

namespace rapid::core {

namespace {

// Maps a signed key to an order-preserving unsigned key; descending
// keys are complemented so ascending radix passes produce the right
// order for both directions.
inline uint64_t BiasKey(int64_t v, bool ascending) {
  const uint64_t biased = static_cast<uint64_t>(v) ^ (uint64_t{1} << 63);
  return ascending ? biased : ~biased;
}

// One stable LSD radix sort pass over 8-bit digits of `keys`,
// permuting `perm`. Returns cycle charge units (rows touched).
void RadixPass(const std::vector<uint64_t>& keys, int digit,
               std::vector<uint32_t>* perm, std::vector<uint32_t>* scratch) {
  const int shift = digit * 8;
  uint32_t counts[257] = {0};
  for (uint32_t r : *perm) {
    ++counts[((keys[r] >> shift) & 0xFF) + 1];
  }
  for (int i = 0; i < 256; ++i) counts[i + 1] += counts[i];
  scratch->resize(perm->size());
  for (uint32_t r : *perm) {
    (*scratch)[counts[(keys[r] >> shift) & 0xFF]++] = r;
  }
  perm->swap(*scratch);
}

// Radix-sorts `perm` (row indices into `set`) by `keys`, stable,
// least-significant key last... i.e. passes run from the last sort key
// to the first so the primary key dominates. Charges sort cycles.
void RadixSortRows(dpu::DpCore& core, const dpu::CostParams& params,
                   const ColumnSet& set, const std::vector<SortKey>& sort_keys,
                   std::vector<uint32_t>* perm) {
  std::vector<uint32_t> scratch;
  // Keys are indexed by global row id because the permutation entries
  // are row ids into `set` (a bucket is a sparse subset of rows).
  std::vector<uint64_t> keys(set.num_rows());
  int passes = 0;
  for (auto it = sort_keys.rbegin(); it != sort_keys.rend(); ++it) {
    uint64_t max_key = 0;
    set.Visit(it->column, [&](const auto* col) {
      for (uint32_t r : *perm) {
        keys[r] = BiasKey(col[r], it->ascending);
        if (keys[r] > max_key) max_key = keys[r];
      }
    });
    // Only the digits that can differ need passes.
    int digits = 1;
    while (digits < 8 && (max_key >> (digits * 8)) != 0) ++digits;
    for (int d = 0; d < digits; ++d) {
      RadixPass(keys, d, perm, &scratch);
      ++passes;
    }
  }
  core.cycles().ChargeCompute(params.sort_cycles_per_row_per_pass *
                              static_cast<double>(perm->size()) * passes);
}

// Strict total order: sort keys, then the row id as a tiebreak. The
// tiebreak makes top-k selection canonical — the k winners (and their
// order) are unique, so the result is independent of how the input is
// carved into morsels or how candidates merge.
bool RowLess(const ColumnSet& set, const std::vector<SortKey>& keys, size_t a,
             size_t b) {
  for (const SortKey& k : keys) {
    const int64_t va = set.Value(a, k.column);
    const int64_t vb = set.Value(b, k.column);
    if (va != vb) return k.ascending ? va < vb : va > vb;
  }
  return a < b;
}

}  // namespace

std::vector<uint32_t> SortExec::SortedPermutation(
    dpu::Dpu& dpu, const ColumnSet& input, const std::vector<SortKey>& keys) {
  const size_t n = input.num_rows();
  const int num_cores = dpu.num_cores();

  // Range partition on the primary key: sample bounds, then assign
  // each row to a core range (the DMS range-partitioning engine).
  std::vector<uint32_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = static_cast<uint32_t>(i);
  if (n == 0 || keys.empty()) return perm;

  const SortKey& primary = keys[0];

  // Sampled bounds: take up to 1024 evenly spaced rows.
  std::vector<int64_t> sample;
  const size_t step = std::max<size_t>(1, n / 1024);
  for (size_t i = 0; i < n; i += step) {
    sample.push_back(input.Value(i, primary.column));
  }
  std::sort(sample.begin(), sample.end());
  if (!primary.ascending) std::reverse(sample.begin(), sample.end());

  // Oversubscribe the range partition ~4x so the morsel queue can
  // rebalance value-skewed buckets. The result is identical for any
  // bucket count: rows with equal primary keys always land in the same
  // bucket, the radix sort within a bucket is stable, and buckets
  // concatenate in bound order — together a total order independent of
  // where the bounds fall.
  const size_t num_buckets = std::max<size_t>(
      1, std::min(static_cast<size_t>(num_cores) * 4, (n + 63) / 64));
  std::vector<int64_t> bounds;  // num_buckets-1 split points
  for (size_t b = 1; b < num_buckets; ++b) {
    bounds.push_back(sample[sample.size() * b / num_buckets]);
  }

  // Assign rows to range buckets.
  std::vector<std::vector<uint32_t>> buckets(num_buckets);
  input.Visit(primary.column, [&](const auto* pcol) {
    for (size_t i = 0; i < n; ++i) {
      const int64_t v = pcol[i];
      size_t b = 0;
      // Linear scan over the bounds, matching the DMS comparator tree.
      while (b < bounds.size() &&
             (primary.ascending ? v >= bounds[b] : v <= bounds[b])) {
        ++b;
      }
      buckets[b].push_back(static_cast<uint32_t>(i));
    }
  });

  // Radix sort of each bucket, one bucket per morsel weighted by size.
  std::vector<double> bucket_weights(num_buckets);
  for (size_t b = 0; b < num_buckets; ++b) {
    bucket_weights[b] = static_cast<double>(buckets[b].size());
  }
  const Status st = dpu.ParallelForMorsels(
      bucket_weights, /*cancel=*/nullptr,
      [&](dpu::DpCore& core, size_t b) -> Status {
        TraceSpan span(TraceMode::kFull, core.id(), "sort.bucket",
                       &dpu::TraceClockNow, &core.cycles());
        span.Annotate("bucket", static_cast<int64_t>(b));
        span.Annotate("rows", static_cast<uint64_t>(buckets[b].size()));
        if (!buckets[b].empty()) {
          RadixSortRows(core, dpu.params(), input, keys, &buckets[b]);
        }
        return Status::OK();
      });
  RAPID_CHECK(st.ok());

  // Concatenate in bound order.
  perm.clear();
  for (const auto& bucket : buckets) {
    perm.insert(perm.end(), bucket.begin(), bucket.end());
  }
  return perm;
}

Result<ColumnSet> SortExec::Execute(dpu::Dpu& dpu, const ColumnSet& input,
                                    const std::vector<SortKey>& keys) {
  for (const SortKey& k : keys) {
    if (k.column >= input.num_columns()) {
      return Status::InvalidArgument("sort key column out of range");
    }
  }
  const std::vector<uint32_t> perm = SortedPermutation(dpu, input, keys);
  ColumnSet out(input.metas());
  out.Resize(perm.size());
  for (size_t c = 0; c < input.num_columns(); ++c) {
    input.Visit(c, [&](const auto* src) {
      auto* dst = out.data<ElementOf<decltype(src)>>(c);
      for (size_t i = 0; i < perm.size(); ++i) dst[i] = src[perm[i]];
    });
  }
  // Gathering the payload by the sorted permutation is a DMS gather of
  // each row's columns at their physical widths.
  dpu.dms().ChargeGather(&dpu.core(0).cycles(), perm.size(), input.RowBytes());
  return out;
}

Result<ColumnSet> TopKExec::Execute(dpu::Dpu& dpu, const ColumnSet& input,
                                    const std::vector<SortKey>& keys,
                                    size_t k) {
  if (keys.empty()) return Status::InvalidArgument("top-k needs sort keys");
  for (const SortKey& key : keys) {
    if (key.column >= input.num_columns()) {
      return Status::InvalidArgument("top-k key column out of range");
    }
  }
  const size_t n = input.num_rows();
  const int num_cores = dpu.num_cores();

  // ~4 morsels per core; candidate sets are indexed by morsel id so
  // the merge order — and with RowLess's row-id tiebreak, the result —
  // is independent of which core ran which morsel.
  const size_t slots = static_cast<size_t>(num_cores) * 4;
  const size_t target = std::max<size_t>(64, (n + slots - 1) / slots);
  std::vector<std::pair<size_t, size_t>> ranges;
  for (size_t begin = 0; begin < n; begin += target) {
    ranges.emplace_back(begin, std::min(n, begin + target));
  }
  if (ranges.empty()) ranges.emplace_back(0, 0);

  // Vectorized per-morsel selection: a bounded candidate set plus a
  // running threshold (the current k-th row). Each tile is first
  // pruned against the threshold with one branch-free comparison per
  // row; only survivors pay the insertion cost. This is the
  // "vectorized Top-K" of Section 5.4.
  std::vector<std::vector<uint32_t>> local(ranges.size());
  std::vector<double> range_weights(ranges.size());
  for (size_t m = 0; m < ranges.size(); ++m) {
    range_weights[m] = static_cast<double>(ranges[m].second - ranges[m].first);
  }
  RAPID_RETURN_NOT_OK(dpu.ParallelForMorsels(
      range_weights, /*cancel=*/nullptr,
      [&](dpu::DpCore& core, size_t m) -> Status {
        const size_t begin = ranges[m].first;
        const size_t end = ranges[m].second;
        if (begin >= end) return Status::OK();
        auto& rows = local[m];
        auto less = [&](uint32_t a, uint32_t b) {
          return RowLess(input, keys, a, b);
        };

        constexpr size_t kTileRows = 1024;
        uint64_t inserted = 0;
        bool have_threshold = false;
        uint32_t threshold_row = 0;
        for (size_t start = begin; start < end; start += kTileRows) {
          const size_t tile_end = std::min(end, start + kTileRows);
          for (size_t i = start; i < tile_end; ++i) {
            const auto row = static_cast<uint32_t>(i);
            // Prune against the running k-th value (1 cycle/row below).
            if (have_threshold && !less(row, threshold_row)) continue;
            rows.push_back(row);
            ++inserted;
          }
          // Re-establish the bound once the candidate set overflows 2k.
          if (rows.size() >= 2 * k) {
            std::nth_element(rows.begin(),
                             rows.begin() + static_cast<ptrdiff_t>(k - 1),
                             rows.end(), less);
            rows.resize(k);
            threshold_row = rows[k - 1];
            have_threshold = true;
          }
        }
        const size_t keep = std::min(k, rows.size());
        std::partial_sort(rows.begin(),
                          rows.begin() + static_cast<ptrdiff_t>(keep),
                          rows.end(), less);
        rows.resize(keep);
        // Charge: one pruning comparison per row plus the heap work for
        // the rows that survived the threshold.
        core.cycles().ChargeCompute(
            static_cast<double>(end - begin) +
            dpu.params().topk_cycles_per_row * static_cast<double>(inserted));
        return Status::OK();
      }));

  // Merge per-morsel candidates; final selection on one core.
  std::vector<uint32_t> merged;
  for (const auto& rows : local) {
    merged.insert(merged.end(), rows.begin(), rows.end());
  }
  const size_t keep = std::min(k, merged.size());
  std::partial_sort(merged.begin(),
                    merged.begin() + static_cast<ptrdiff_t>(keep),
                    merged.end(), [&](uint32_t a, uint32_t b) {
                      return RowLess(input, keys, a, b);
                    });
  merged.resize(keep);
  dpu.core(0).cycles().ChargeCompute(dpu.params().topk_cycles_per_row *
                                     static_cast<double>(merged.size()));

  ColumnSet out(input.metas());
  for (uint32_t r : merged) {
    std::vector<int64_t> row(input.num_columns());
    for (size_t c = 0; c < input.num_columns(); ++c) {
      row[c] = input.Value(r, c);
    }
    RAPID_RETURN_NOT_OK(out.AppendRow(row));
  }
  return out;
}

}  // namespace rapid::core
