#include "hostdb/volcano.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

#include "common/crc32.h"
#include "storage/dsb.h"

namespace rapid::hostdb {

namespace {

using core::ColumnMeta;
using core::ColumnSet;
using core::LogicalNode;
using core::LogicalPtr;

// Output meta of a projection or group key named `name` computing
// `expr` over `input`: a bare column keeps its source column's type,
// scale and dictionary, as in RAPID; an expression gets its static
// scale (derived from a zero row) and is decimal when scaled.
Result<ColumnMeta> DerivedMeta(const std::string& name, const core::Expr& expr,
                               const Row& zero,
                               const std::vector<ColumnMeta>& input) {
  if (expr.kind == core::Expr::Kind::kColumn) {
    for (const ColumnMeta& in : input) {
      if (in.name != expr.column) continue;
      ColumnMeta m = in;
      m.name = name;
      return m;
    }
  }
  int scale = 0;
  RAPID_RETURN_NOT_OK(EvalExprRow(expr, zero, input, &scale).status());
  ColumnMeta m;
  m.name = name;
  m.dsb_scale = scale;
  m.type = scale != 0 ? storage::DataType::kDecimal : storage::DataType::kInt64;
  return m;
}

// ---- Scan ------------------------------------------------------------------

class ScanIter : public Iterator {
 public:
  ScanIter(const storage::Table* table, std::vector<std::string> columns,
           std::vector<core::Predicate> predicates)
      : table_(table),
        columns_(std::move(columns)),
        predicates_(std::move(predicates)) {}

  Status Start() override {
    col_indices_.clear();
    schema_.clear();
    // The scan exposes the union of requested columns and predicate
    // columns; a parent projection trims.
    std::vector<std::string> cols = columns_;
    for (const core::Predicate& p : predicates_) {
      if (std::find(cols.begin(), cols.end(), p.column) == cols.end()) {
        cols.push_back(p.column);
      }
      if (p.kind == core::Predicate::Kind::kCmpCol &&
          std::find(cols.begin(), cols.end(), p.column2) == cols.end()) {
        cols.push_back(p.column2);
      }
    }
    for (const std::string& name : cols) {
      RAPID_ASSIGN_OR_RETURN(size_t idx, table_->schema().IndexOf(name));
      col_indices_.push_back(idx);
      ColumnMeta m;
      m.name = name;
      m.type = table_->schema().field(idx).type;
      m.dsb_scale = table_->stats(idx).dsb_scale;
      m.dict = table_->dictionary(idx);
      schema_.push_back(m);
    }
    partition_ = 0;
    chunk_ = 0;
    row_ = 0;
    return Status::OK();
  }

  Result<bool> Fetch(Row* row) override {
    for (;;) {
      const storage::Chunk* chunk = CurrentChunk();
      if (chunk == nullptr) return false;
      if (row_ >= chunk->num_rows()) {
        Advance();
        continue;
      }
      row->resize(col_indices_.size());
      for (size_t c = 0; c < col_indices_.size(); ++c) {
        const storage::Vector& v = chunk->column(col_indices_[c]);
        int64_t value = v.GetInt(row_);
        // Normalize per-vector DSB scales to the column scale.
        if (v.type() == storage::DataType::kDecimal &&
            v.dsb_scale() != schema_[c].dsb_scale) {
          value *= storage::Pow10(schema_[c].dsb_scale - v.dsb_scale());
        }
        (*row)[c] = value;
      }
      ++row_;
      // Row-at-a-time predicate interpretation (the System X way).
      bool pass = true;
      for (const core::Predicate& p : predicates_) {
        RAPID_ASSIGN_OR_RETURN(bool ok, EvalPredicateRow(p, *row, schema_));
        if (!ok) {
          pass = false;
          break;
        }
      }
      if (pass) return true;
    }
  }

  void Close() override {}

 private:
  const storage::Chunk* CurrentChunk() {
    while (partition_ < table_->num_partitions()) {
      const storage::Partition& part = table_->partition(partition_);
      if (chunk_ < part.num_chunks()) return &part.chunk(chunk_);
      ++partition_;
      chunk_ = 0;
    }
    return nullptr;
  }

  void Advance() {
    ++chunk_;
    row_ = 0;
  }

  const storage::Table* table_;
  std::vector<std::string> columns_;
  std::vector<core::Predicate> predicates_;
  std::vector<size_t> col_indices_;
  size_t partition_ = 0;
  size_t chunk_ = 0;
  size_t row_ = 0;
};

// ---- Filter / Project ------------------------------------------------------

class FilterIter : public Iterator {
 public:
  FilterIter(IteratorPtr child, std::vector<core::Predicate> predicates)
      : child_(std::move(child)), predicates_(std::move(predicates)) {}

  Status Start() override {
    RAPID_RETURN_NOT_OK(child_->Start());
    schema_ = child_->schema();
    return Status::OK();
  }

  Result<bool> Fetch(Row* row) override {
    for (;;) {
      RAPID_ASSIGN_OR_RETURN(bool ok, child_->Fetch(row));
      if (!ok) return false;
      bool pass = true;
      for (const core::Predicate& p : predicates_) {
        RAPID_ASSIGN_OR_RETURN(bool hit, EvalPredicateRow(p, *row, schema_));
        if (!hit) {
          pass = false;
          break;
        }
      }
      if (pass) return true;
    }
  }

  void Close() override { child_->Close(); }

 private:
  IteratorPtr child_;
  std::vector<core::Predicate> predicates_;
};

class ProjectIter : public Iterator {
 public:
  ProjectIter(IteratorPtr child,
              std::vector<std::pair<std::string, core::ExprPtr>> projections)
      : child_(std::move(child)), projections_(std::move(projections)) {}

  Status Start() override {
    RAPID_RETURN_NOT_OK(child_->Start());
    schema_.clear();
    // Scales are value-independent; derive them from a zero row.
    Row zero(child_->schema().size(), 0);
    for (const auto& [name, expr] : projections_) {
      RAPID_ASSIGN_OR_RETURN(ColumnMeta m,
                             DerivedMeta(name, *expr, zero, child_->schema()));
      schema_.push_back(m);
    }
    return Status::OK();
  }

  Result<bool> Fetch(Row* row) override {
    Row in;
    RAPID_ASSIGN_OR_RETURN(bool ok, child_->Fetch(&in));
    if (!ok) return false;
    row->resize(projections_.size());
    for (size_t c = 0; c < projections_.size(); ++c) {
      int scale = 0;
      RAPID_ASSIGN_OR_RETURN(
          (*row)[c],
          EvalExprRow(*projections_[c].second, in, child_->schema(), &scale));
    }
    return true;
  }

  void Close() override { child_->Close(); }

 private:
  IteratorPtr child_;
  std::vector<std::pair<std::string, core::ExprPtr>> projections_;
};

// ---- Hash join ---------------------------------------------------------

class HashJoinIter : public Iterator {
 public:
  HashJoinIter(IteratorPtr build, IteratorPtr probe,
               std::vector<std::string> build_keys,
               std::vector<std::string> probe_keys,
               std::vector<std::string> output_columns, core::JoinType type)
      : build_(std::move(build)),
        probe_(std::move(probe)),
        build_key_names_(std::move(build_keys)),
        probe_key_names_(std::move(probe_keys)),
        output_columns_(std::move(output_columns)),
        type_(type) {}

  Status Start() override {
    RAPID_RETURN_NOT_OK(build_->Start());
    RAPID_RETURN_NOT_OK(probe_->Start());

    for (const std::string& k : build_key_names_) {
      RAPID_ASSIGN_OR_RETURN(size_t idx, build_->IndexOf(k));
      build_keys_.push_back(idx);
    }
    for (const std::string& k : probe_key_names_) {
      RAPID_ASSIGN_OR_RETURN(size_t idx, probe_->IndexOf(k));
      probe_keys_.push_back(idx);
    }

    // Output columns in request order, resolving build-side first —
    // exactly how RAPID's JoinStep resolves them, so both engines
    // produce identical schemas.
    const bool probe_only =
        type_ == core::JoinType::kSemi || type_ == core::JoinType::kAnti;
    schema_.clear();
    outputs_.clear();
    for (const std::string& name : output_columns_) {
      auto b = build_->IndexOf(name);
      if (b.ok() && !probe_only) {
        outputs_.emplace_back(true, b.value());
        schema_.push_back(build_->schema()[b.value()]);
        continue;
      }
      auto p = probe_->IndexOf(name);
      if (p.ok()) {
        outputs_.emplace_back(false, p.value());
        schema_.push_back(probe_->schema()[p.value()]);
        continue;
      }
      return Status::NotFound("join output column '" + name + "' not found");
    }

    // Drain the build side into the hash table.
    Row row;
    for (;;) {
      RAPID_ASSIGN_OR_RETURN(bool ok, build_->Fetch(&row));
      if (!ok) break;
      table_[HashKeys(row, build_keys_)].push_back(row);
    }
    pending_.clear();
    pending_pos_ = 0;
    return Status::OK();
  }

  Result<bool> Fetch(Row* row) override {
    for (;;) {
      if (pending_pos_ < pending_.size()) {
        *row = pending_[pending_pos_++];
        return true;
      }
      pending_.clear();
      pending_pos_ = 0;

      Row probe_row;
      RAPID_ASSIGN_OR_RETURN(bool ok, probe_->Fetch(&probe_row));
      if (!ok) return false;

      size_t matches = 0;
      auto it = table_.find(HashKeys(probe_row, probe_keys_));
      if (it != table_.end()) {
        for (const Row& build_row : it->second) {
          if (!KeysMatch(build_row, probe_row)) continue;
          ++matches;
          if (type_ == core::JoinType::kInner ||
              type_ == core::JoinType::kLeftOuter) {
            pending_.push_back(Combine(&build_row, probe_row));
          }
        }
      }
      switch (type_) {
        case core::JoinType::kSemi:
          if (matches > 0) pending_.push_back(Combine(nullptr, probe_row));
          break;
        case core::JoinType::kAnti:
          if (matches == 0) pending_.push_back(Combine(nullptr, probe_row));
          break;
        case core::JoinType::kLeftOuter:
          if (matches == 0) pending_.push_back(Combine(nullptr, probe_row));
          break;
        case core::JoinType::kInner:
          break;
      }
    }
  }

  void Close() override {
    build_->Close();
    probe_->Close();
  }

 private:
  uint32_t HashKeys(const Row& row, const std::vector<size_t>& keys) const {
    uint32_t h = 0xFFFFFFFFu;
    for (size_t k : keys) h = Crc32Combine(h, static_cast<uint64_t>(row[k]));
    return h;
  }

  bool KeysMatch(const Row& build_row, const Row& probe_row) const {
    for (size_t k = 0; k < build_keys_.size(); ++k) {
      if (build_row[build_keys_[k]] != probe_row[probe_keys_[k]]) return false;
    }
    return true;
  }

  Row Combine(const Row* build_row, const Row& probe_row) const {
    Row out;
    out.reserve(outputs_.size());
    for (const auto& [from_build, c] : outputs_) {
      if (from_build) {
        out.push_back(build_row == nullptr ? core::kJoinNull
                                           : (*build_row)[c]);
      } else {
        out.push_back(probe_row[c]);
      }
    }
    return out;
  }

  IteratorPtr build_;
  IteratorPtr probe_;
  std::vector<std::string> build_key_names_;
  std::vector<std::string> probe_key_names_;
  std::vector<std::string> output_columns_;
  core::JoinType type_;
  std::vector<size_t> build_keys_;
  std::vector<size_t> probe_keys_;
  std::vector<std::pair<bool, size_t>> outputs_;  // (from_build, column)
  std::unordered_map<uint32_t, std::vector<Row>> table_;
  std::vector<Row> pending_;
  size_t pending_pos_ = 0;
};

// ---- Hash aggregation --------------------------------------------------

class HashAggIter : public Iterator {
 public:
  HashAggIter(IteratorPtr child,
              std::vector<std::pair<std::string, core::ExprPtr>> keys,
              std::vector<core::AggSpec> aggs)
      : child_(std::move(child)), keys_(std::move(keys)),
        aggs_(std::move(aggs)) {}

  Status Start() override {
    RAPID_RETURN_NOT_OK(child_->Start());

    // Output schema: keys then aggregates; scales derived statically.
    schema_.clear();
    Row zero(child_->schema().size(), 0);
    for (const auto& [name, expr] : keys_) {
      RAPID_ASSIGN_OR_RETURN(ColumnMeta m,
                             DerivedMeta(name, *expr, zero, child_->schema()));
      schema_.push_back(m);
    }
    for (const core::AggSpec& a : aggs_) {
      int scale = 0;
      if (a.expr != nullptr && a.func != core::AggFunc::kCount) {
        RAPID_RETURN_NOT_OK(
            EvalExprRow(*a.expr, zero, child_->schema(), &scale).status());
      }
      ColumnMeta m;
      m.name = a.name;
      m.dsb_scale = a.func == core::AggFunc::kCount ? 0 : scale;
      m.type = m.dsb_scale != 0 ? storage::DataType::kDecimal
                                : storage::DataType::kInt64;
      schema_.push_back(m);
    }

    // Drain and aggregate row-at-a-time.
    groups_.clear();
    Row row;
    for (;;) {
      RAPID_ASSIGN_OR_RETURN(bool ok, child_->Fetch(&row));
      if (!ok) break;
      Row key(keys_.size());
      for (size_t k = 0; k < keys_.size(); ++k) {
        int scale = 0;
        RAPID_ASSIGN_OR_RETURN(
            key[k], EvalExprRow(*keys_[k].second, row, child_->schema(),
                                &scale));
      }
      auto [it, inserted] = groups_.try_emplace(
          key, std::vector<primitives::AggState>(aggs_.size()));
      for (size_t a = 0; a < aggs_.size(); ++a) {
        const core::AggSpec& spec = aggs_[a];
        if (spec.filter != nullptr) {
          RAPID_ASSIGN_OR_RETURN(
              bool pass, EvalPredicateRow(*spec.filter, row, child_->schema()));
          if (!pass) continue;
        }
        int64_t value = 0;
        if (spec.expr != nullptr) {
          int scale = 0;
          RAPID_ASSIGN_OR_RETURN(
              value, EvalExprRow(*spec.expr, row, child_->schema(), &scale));
        }
        primitives::AggState& st = it->second[a];
        switch (spec.func) {
          case core::AggFunc::kSum:
            st.sum += value;
            break;
          case core::AggFunc::kMin:
            if (value < st.min) st.min = value;
            break;
          case core::AggFunc::kMax:
            if (value > st.max) st.max = value;
            break;
          case core::AggFunc::kCount:
            ++st.count;
            break;
        }
      }
    }
    if (keys_.empty() && groups_.empty()) {
      // COUNT(*) = 0 (AggState starts at count 0), or the error.
      RAPID_RETURN_NOT_OK(core::KeylessOverNoRows(aggs_));
      groups_.try_emplace(Row{},
                          std::vector<primitives::AggState>(aggs_.size()));
    }
    cursor_ = groups_.begin();
    return Status::OK();
  }

  Result<bool> Fetch(Row* row) override {
    if (cursor_ == groups_.end()) return false;
    row->clear();
    row->insert(row->end(), cursor_->first.begin(), cursor_->first.end());
    for (size_t a = 0; a < aggs_.size(); ++a) {
      const primitives::AggState& st = cursor_->second[a];
      switch (aggs_[a].func) {
        case core::AggFunc::kSum:
          row->push_back(st.sum);
          break;
        case core::AggFunc::kMin:
          row->push_back(st.min);
          break;
        case core::AggFunc::kMax:
          row->push_back(st.max);
          break;
        case core::AggFunc::kCount:
          row->push_back(static_cast<int64_t>(st.count));
          break;
      }
    }
    ++cursor_;
    return true;
  }

  void Close() override { child_->Close(); }

 private:
  IteratorPtr child_;
  std::vector<std::pair<std::string, core::ExprPtr>> keys_;
  std::vector<core::AggSpec> aggs_;
  std::map<Row, std::vector<primitives::AggState>> groups_;
  std::map<Row, std::vector<primitives::AggState>>::iterator cursor_;
};

// ---- Sort / TopK -----------------------------------------------------------

class SortIter : public Iterator {
 public:
  SortIter(IteratorPtr child, std::vector<std::pair<std::string, bool>> keys,
           size_t limit)  // limit 0 = full sort
      : child_(std::move(child)), key_names_(std::move(keys)), limit_(limit) {}

  Status Start() override {
    RAPID_RETURN_NOT_OK(child_->Start());
    schema_ = child_->schema();
    std::vector<std::pair<size_t, bool>> keys;
    for (const auto& [name, asc] : key_names_) {
      RAPID_ASSIGN_OR_RETURN(size_t idx, child_->IndexOf(name));
      keys.emplace_back(idx, asc);
    }
    rows_.clear();
    Row row;
    for (;;) {
      RAPID_ASSIGN_OR_RETURN(bool ok, child_->Fetch(&row));
      if (!ok) break;
      rows_.push_back(row);
    }
    auto less = [&keys](const Row& a, const Row& b) {
      for (const auto& [idx, asc] : keys) {
        if (a[idx] != b[idx]) return asc ? a[idx] < b[idx] : a[idx] > b[idx];
      }
      return false;
    };
    if (limit_ > 0 && limit_ < rows_.size()) {
      std::partial_sort(rows_.begin(),
                        rows_.begin() + static_cast<ptrdiff_t>(limit_),
                        rows_.end(), less);
      rows_.resize(limit_);
    } else {
      std::stable_sort(rows_.begin(), rows_.end(), less);
    }
    cursor_ = 0;
    return Status::OK();
  }

  Result<bool> Fetch(Row* row) override {
    if (cursor_ >= rows_.size()) return false;
    *row = rows_[cursor_++];
    return true;
  }

  void Close() override { child_->Close(); }

 private:
  IteratorPtr child_;
  std::vector<std::pair<std::string, bool>> key_names_;
  size_t limit_;
  std::vector<Row> rows_;
  size_t cursor_ = 0;
};

// ---- Set operations ----------------------------------------------------

class SetOpIter : public Iterator {
 public:
  SetOpIter(IteratorPtr left, IteratorPtr right, core::SetOpKind kind)
      : left_(std::move(left)), right_(std::move(right)), kind_(kind) {}

  Status Start() override {
    RAPID_RETURN_NOT_OK(left_->Start());
    RAPID_RETURN_NOT_OK(right_->Start());
    schema_ = left_->schema();
    if (left_->schema().size() != right_->schema().size()) {
      return Status::InvalidArgument("set operation inputs must align");
    }
    std::set<Row> rset;
    Row row;
    for (;;) {
      RAPID_ASSIGN_OR_RETURN(bool ok, right_->Fetch(&row));
      if (!ok) break;
      rset.insert(row);
    }
    std::set<Row> emitted;
    rows_.clear();
    for (;;) {
      RAPID_ASSIGN_OR_RETURN(bool ok, left_->Fetch(&row));
      if (!ok) break;
      const bool in_right = rset.count(row) != 0;
      const bool keep = kind_ == core::SetOpKind::kUnion ||
                        (kind_ == core::SetOpKind::kIntersect && in_right) ||
                        (kind_ == core::SetOpKind::kMinus && !in_right);
      if (keep && emitted.insert(row).second) rows_.push_back(row);
    }
    if (kind_ == core::SetOpKind::kUnion) {
      for (const Row& r : rset) {
        if (emitted.insert(r).second) rows_.push_back(r);
      }
    }
    cursor_ = 0;
    return Status::OK();
  }

  Result<bool> Fetch(Row* row) override {
    if (cursor_ >= rows_.size()) return false;
    *row = rows_[cursor_++];
    return true;
  }

  void Close() override {
    left_->Close();
    right_->Close();
  }

 private:
  IteratorPtr left_;
  IteratorPtr right_;
  core::SetOpKind kind_;
  std::vector<Row> rows_;
  size_t cursor_ = 0;
};

// ---- Window ------------------------------------------------------------

class WindowIter : public Iterator {
 public:
  WindowIter(IteratorPtr child, std::vector<core::LogicalWindow> windows)
      : child_(std::move(child)), windows_(std::move(windows)) {}

  Status Start() override {
    RAPID_RETURN_NOT_OK(child_->Start());

    std::vector<size_t> part_cols;
    std::vector<std::pair<size_t, bool>> order_cols;
    for (const std::string& name : windows_[0].partition_by) {
      RAPID_ASSIGN_OR_RETURN(size_t idx, child_->IndexOf(name));
      part_cols.push_back(idx);
    }
    for (const auto& [name, asc] : windows_[0].order_by) {
      RAPID_ASSIGN_OR_RETURN(size_t idx, child_->IndexOf(name));
      order_cols.emplace_back(idx, asc);
    }

    schema_ = child_->schema();
    std::vector<size_t> value_cols;
    for (const core::LogicalWindow& w : windows_) {
      ColumnMeta m;
      m.name = w.output_name;
      size_t vc = 0;
      if (!w.value_column.empty()) {
        RAPID_ASSIGN_OR_RETURN(vc, child_->IndexOf(w.value_column));
        m = child_->schema()[vc];
        m.name = w.output_name;
      }
      value_cols.push_back(vc);
      schema_.push_back(m);
    }

    rows_.clear();
    Row row;
    for (;;) {
      RAPID_ASSIGN_OR_RETURN(bool ok, child_->Fetch(&row));
      if (!ok) break;
      rows_.push_back(row);
    }
    std::stable_sort(rows_.begin(), rows_.end(),
                     [&](const Row& a, const Row& b) {
                       for (size_t c : part_cols) {
                         if (a[c] != b[c]) return a[c] < b[c];
                       }
                       for (const auto& [c, asc] : order_cols) {
                         if (a[c] != b[c]) return asc ? a[c] < b[c] : a[c] > b[c];
                       }
                       return false;
                     });

    auto same_part = [&](const Row& a, const Row& b) {
      for (size_t c : part_cols) {
        if (a[c] != b[c]) return false;
      }
      return true;
    };
    auto same_order = [&](const Row& a, const Row& b) {
      for (const auto& [c, asc] : order_cols) {
        if (a[c] != b[c]) return false;
      }
      return true;
    };

    const size_t base = child_->schema().size();
    for (auto& r : rows_) r.resize(base + windows_.size());
    size_t begin = 0;
    while (begin < rows_.size()) {
      size_t end = begin + 1;
      while (end < rows_.size() && same_part(rows_[begin], rows_[end])) ++end;
      for (size_t f = 0; f < windows_.size(); ++f) {
        const core::LogicalWindow& w = windows_[f];
        switch (w.func) {
          case core::WindowFunc::kRowNumber:
            for (size_t i = begin; i < end; ++i) {
              rows_[i][base + f] = static_cast<int64_t>(i - begin + 1);
            }
            break;
          case core::WindowFunc::kRank: {
            int64_t rank = 1;
            for (size_t i = begin; i < end; ++i) {
              if (i > begin && !same_order(rows_[i - 1], rows_[i])) {
                rank = static_cast<int64_t>(i - begin + 1);
              }
              rows_[i][base + f] = rank;
            }
            break;
          }
          case core::WindowFunc::kDenseRank: {
            int64_t rank = 1;
            for (size_t i = begin; i < end; ++i) {
              if (i > begin && !same_order(rows_[i - 1], rows_[i])) ++rank;
              rows_[i][base + f] = rank;
            }
            break;
          }
          case core::WindowFunc::kRunningSum: {
            int64_t sum = 0;
            for (size_t i = begin; i < end; ++i) {
              sum += rows_[i][value_cols[f]];
              rows_[i][base + f] = sum;
            }
            break;
          }
          case core::WindowFunc::kPartitionSum: {
            int64_t sum = 0;
            for (size_t i = begin; i < end; ++i) {
              sum += rows_[i][value_cols[f]];
            }
            for (size_t i = begin; i < end; ++i) rows_[i][base + f] = sum;
            break;
          }
        }
      }
      begin = end;
    }
    cursor_ = 0;
    return Status::OK();
  }

  Result<bool> Fetch(Row* row) override {
    if (cursor_ >= rows_.size()) return false;
    *row = rows_[cursor_++];
    return true;
  }

  void Close() override { child_->Close(); }

 private:
  IteratorPtr child_;
  std::vector<core::LogicalWindow> windows_;
  std::vector<Row> rows_;
  size_t cursor_ = 0;
};

// Owns the ColumnSet it iterates (for overrides, the caller owns it).
class TrimIter : public Iterator {
 public:
  // Restricts the child's output to `columns`.
  TrimIter(IteratorPtr child, std::vector<std::string> columns)
      : child_(std::move(child)), columns_(std::move(columns)) {}

  Status Start() override {
    RAPID_RETURN_NOT_OK(child_->Start());
    schema_.clear();
    indices_.clear();
    for (const std::string& name : columns_) {
      RAPID_ASSIGN_OR_RETURN(size_t idx, child_->IndexOf(name));
      indices_.push_back(idx);
      schema_.push_back(child_->schema()[idx]);
    }
    return Status::OK();
  }

  Result<bool> Fetch(Row* row) override {
    Row in;
    RAPID_ASSIGN_OR_RETURN(bool ok, child_->Fetch(&in));
    if (!ok) return false;
    row->resize(indices_.size());
    for (size_t c = 0; c < indices_.size(); ++c) (*row)[c] = in[indices_[c]];
    return true;
  }

  void Close() override { child_->Close(); }

 private:
  IteratorPtr child_;
  std::vector<std::string> columns_;
  std::vector<size_t> indices_;
};

}  // namespace

Result<IteratorPtr> VolcanoExecutor::Build(const core::LogicalPtr& plan,
                                           const core::Catalog& catalog,
                                           const NodeOverrides& overrides) {
  if (plan == nullptr) {
    return Status::InvalidArgument("logical plan is null");
  }
  auto ov = overrides.find(plan.get());
  if (ov != overrides.end()) {
    return IteratorPtr(new MaterializedIter(ov->second));
  }

  using Kind = LogicalNode::Kind;
  switch (plan->kind) {
    case Kind::kScan: {
      auto it = catalog.find(plan->table);
      if (it == catalog.end()) {
        return Status::NotFound("table '" + plan->table + "' not found");
      }
      IteratorPtr scan(new ScanIter(&it->second, plan->columns,
                                    plan->predicates));
      // Trim predicate-only columns off the scan output.
      return IteratorPtr(new TrimIter(std::move(scan), plan->columns));
    }
    case Kind::kFilter: {
      RAPID_ASSIGN_OR_RETURN(IteratorPtr child,
                             Build(plan->input, catalog, overrides));
      IteratorPtr filtered(
          new FilterIter(std::move(child), plan->predicates));
      if (!plan->columns.empty()) {
        return IteratorPtr(new TrimIter(std::move(filtered), plan->columns));
      }
      return filtered;
    }
    case Kind::kProject: {
      RAPID_ASSIGN_OR_RETURN(IteratorPtr child,
                             Build(plan->input, catalog, overrides));
      return IteratorPtr(new ProjectIter(std::move(child),
                                         plan->projections));
    }
    case Kind::kJoin: {
      RAPID_ASSIGN_OR_RETURN(IteratorPtr build,
                             Build(plan->input, catalog, overrides));
      RAPID_ASSIGN_OR_RETURN(IteratorPtr probe,
                             Build(plan->right, catalog, overrides));
      return IteratorPtr(new HashJoinIter(
          std::move(build), std::move(probe), plan->left_keys,
          plan->right_keys, plan->output_columns, plan->join_type));
    }
    case Kind::kGroupBy: {
      RAPID_ASSIGN_OR_RETURN(IteratorPtr child,
                             Build(plan->input, catalog, overrides));
      return IteratorPtr(new HashAggIter(std::move(child), plan->group_keys,
                                         plan->aggregates));
    }
    case Kind::kSort: {
      RAPID_ASSIGN_OR_RETURN(IteratorPtr child,
                             Build(plan->input, catalog, overrides));
      return IteratorPtr(new SortIter(std::move(child), plan->sort_keys, 0));
    }
    case Kind::kTopK: {
      RAPID_ASSIGN_OR_RETURN(IteratorPtr child,
                             Build(plan->input, catalog, overrides));
      return IteratorPtr(
          new SortIter(std::move(child), plan->sort_keys, plan->limit));
    }
    case Kind::kSetOp: {
      RAPID_ASSIGN_OR_RETURN(IteratorPtr left,
                             Build(plan->input, catalog, overrides));
      RAPID_ASSIGN_OR_RETURN(IteratorPtr right,
                             Build(plan->right, catalog, overrides));
      return IteratorPtr(
          new SetOpIter(std::move(left), std::move(right), plan->setop));
    }
    case Kind::kWindow: {
      RAPID_ASSIGN_OR_RETURN(IteratorPtr child,
                             Build(plan->input, catalog, overrides));
      return IteratorPtr(new WindowIter(std::move(child), plan->windows));
    }
  }
  return Status::Internal("unreachable logical node kind");
}

Result<core::ColumnSet> VolcanoExecutor::Execute(
    const core::LogicalPtr& plan, const core::Catalog& catalog,
    const NodeOverrides& overrides) {
  RAPID_ASSIGN_OR_RETURN(IteratorPtr root, Build(plan, catalog, overrides));
  return DrainToColumnSet(root.get());
}

}  // namespace rapid::hostdb
