#include "hbase/cell.h"

#include <algorithm>
#include <utility>

namespace synergy::hbase {

namespace {

std::vector<CellVersion>::iterator FindSlot(std::vector<CellVersion>& versions,
                                            int64_t ts) {
  return std::lower_bound(
      versions.begin(), versions.end(), ts,
      [](const CellVersion& a, int64_t t) { return a.timestamp > t; });
}

}  // namespace

std::optional<CellVersion> Cell::AddVersion(CellVersion v) {
  auto it = FindSlot(versions_, v.timestamp);
  if (it != versions_.end() && it->timestamp == v.timestamp) {
    return std::exchange(*it, std::move(v));
  }
  versions_.insert(it, std::move(v));
  return std::nullopt;
}

void Cell::RemoveVersion(int64_t ts) {
  auto it = FindSlot(versions_, ts);
  if (it != versions_.end() && it->timestamp == ts) versions_.erase(it);
}

std::optional<std::string> Cell::Latest() const {
  if (versions_.empty() || versions_.front().tombstone) return std::nullopt;
  return versions_.front().value;
}

std::optional<std::string> Cell::LatestVisible(
    int64_t ts, const std::vector<int64_t>* exclude_ids) const {
  for (const CellVersion& v : versions_) {
    if (v.timestamp > ts) continue;
    if (exclude_ids != nullptr &&
        std::find(exclude_ids->begin(), exclude_ids->end(), v.timestamp) !=
            exclude_ids->end()) {
      continue;  // version written by an invalid/in-flight transaction
    }
    if (v.tombstone) return std::nullopt;
    return v.value;
  }
  return std::nullopt;
}

size_t Cell::Compact(int max_versions) {
  size_t freed = 0;
  std::vector<CellVersion> kept;
  kept.reserve(versions_.size());
  for (const CellVersion& v : versions_) {
    if (v.tombstone) {
      freed += v.value.size() + 16;
      break;  // tombstone and everything older is dropped
    }
    if (static_cast<int>(kept.size()) < max_versions) {
      kept.push_back(v);
    } else {
      freed += v.value.size() + 16;
    }
  }
  versions_ = std::move(kept);
  return freed;
}

size_t Cell::ByteSize() const {
  size_t total = 0;
  for (const CellVersion& v : versions_) total += v.value.size() + 16;
  return total;
}

size_t RowResult::PayloadBytes() const {
  size_t total = row_key.size();
  for (const auto& [qual, value] : columns) total += qual.size() + value.size();
  return total;
}

}  // namespace synergy::hbase
