#include "storage/update.h"

#include <algorithm>

namespace rapid::storage {

Status Tracker::ApplyUpdate(uint64_t scn, std::vector<RowChange> changes) {
  if (scn <= latest_scn_) {
    return Status::InvalidArgument(
        "update SCN must be greater than the latest applied SCN");
  }
  for (const RowChange& change : changes) {
    if (change.values.size() != num_columns_) {
      return Status::InvalidArgument("row change has wrong column count");
    }
  }

  const size_t unit_index = units_.size();
  for (const RowChange& change : changes) {
    auto& versions = row_index_[change.row_id];
    // A row named twice in one batch: this unit is already indexed
    // (and not yet pushed); Resolve picks the batch's last change.
    if (!versions.empty() && versions.back() == unit_index) continue;
    if (!versions.empty()) {
      // The previous version of this row expires now.
      UpdateUnit& prev = units_[versions.back()];
      if (prev.expiration_scn == kScnInfinity) prev.expiration_scn = scn;
    }
    versions.push_back(unit_index);
  }
  units_.push_back(UpdateUnit{scn, kScnInfinity, std::move(changes)});
  latest_scn_ = scn;
  return Status::OK();
}

Result<int64_t> Tracker::Resolve(uint64_t query_scn, uint64_t row_id,
                                 size_t column) const {
  auto it = row_index_.find(row_id);
  if (it == row_index_.end()) return Status::NotFound("row never updated");
  // Walk versions newest-first; pick the newest visible at query_scn.
  const auto& versions = it->second;
  for (auto vi = versions.rbegin(); vi != versions.rend(); ++vi) {
    const UpdateUnit& unit = units_[*vi];
    if (unit.scn <= query_scn) {
      // The last change wins, as when the batch is applied in order.
      for (auto ci = unit.changes.rbegin(); ci != unit.changes.rend(); ++ci) {
        if (ci->row_id == row_id) return ci->values[column];
      }
    }
  }
  return Status::NotFound("no version visible at this SCN");
}

bool Tracker::HasVersionFor(uint64_t query_scn, uint64_t row_id) const {
  auto it = row_index_.find(row_id);
  if (it == row_index_.end()) return false;
  for (size_t vi : it->second) {
    if (units_[vi].scn <= query_scn) return true;
  }
  return false;
}

size_t Tracker::Vacuum(uint64_t min_active_scn) {
  size_t reclaimed = 0;
  for (auto it = row_index_.begin(); it != row_index_.end();) {
    auto& versions = it->second;
    // A version is dead if it expired at or before min_active_scn.
    auto dead_end = std::stable_partition(
        versions.begin(), versions.end(), [&](size_t vi) {
          return units_[vi].expiration_scn <= min_active_scn;
        });
    reclaimed += static_cast<size_t>(dead_end - versions.begin());
    versions.erase(versions.begin(), dead_end);
    if (versions.empty()) {
      it = row_index_.erase(it);
    } else {
      ++it;
    }
  }
  return reclaimed;
}

}  // namespace rapid::storage
