#include "hbase/region.h"

#include <algorithm>
#include <charconv>
#include <mutex>

namespace synergy::hbase {
namespace {

std::optional<RowResult> ResolveRow(const std::string& key, const RowData& row,
                                    const ReadView& view) {
  RowResult out;
  out.row_key = key;
  out.columns.reserve(row.size());
  for (const auto& [qual, cell] : row) {
    std::optional<std::string> v = cell.LatestVisible(view.read_ts, view.exclude);
    if (v.has_value()) out.columns.Append(qual, std::move(*v));
  }
  if (out.columns.empty()) return std::nullopt;
  return out;
}

/// Writes `columns` at `ts` into `row`, noting in `edit` (if logged) each
/// version overwritten at an equal timestamp. A qualifier repeated within
/// one edit overwrites the edit's own value, which is not noted.
void ApplyColumns(RowData& row, const RegionEdit::Columns& columns, int64_t ts,
                  bool tombstone, RegionEdit* edit) {
  for (auto col = columns.begin(); col != columns.end(); ++col) {
    std::optional<CellVersion> old =
        row[col->first].AddVersion(CellVersion{ts, col->second, tombstone});
    if (edit == nullptr || !old.has_value()) continue;
    if (std::none_of(columns.begin(), col, [&](const auto& earlier) {
          return earlier.first == col->first;
        })) {
      edit->displaced.emplace_back(col->first, std::move(*old));
    }
  }
}

}  // namespace

void Region::Put(
    const std::string& row_key,
    const std::vector<std::pair<std::string, std::string>>& columns,
    std::optional<int64_t> ts, Durability durability) {
  std::unique_lock lock(mutex_);
  const int64_t t = AllocTs(ts);
  RegionEdit* edit = AppendEdit(durability, row_key, t, /*tombstone=*/false);
  ApplyColumns(rows_[row_key], columns, t, /*tombstone=*/false, edit);
  if (edit != nullptr) edit->columns = columns;
}

void Region::Delete(const std::string& row_key, std::optional<int64_t> ts,
                    Durability durability) {
  std::unique_lock lock(mutex_);
  auto it = rows_.find(row_key);
  if (it == rows_.end()) return;
  const int64_t t = AllocTs(ts);
  RegionEdit::Columns columns;
  columns.reserve(it->second.size());
  for (const auto& [qual, cell] : it->second) columns.emplace_back(qual, "");
  RegionEdit* edit = AppendEdit(durability, row_key, t, /*tombstone=*/true);
  ApplyColumns(it->second, columns, t, /*tombstone=*/true, edit);
  if (edit != nullptr) edit->columns = std::move(columns);
}

void Region::DeleteColumn(const std::string& row_key,
                          const std::string& qualifier,
                          std::optional<int64_t> ts) {
  std::unique_lock lock(mutex_);
  auto it = rows_.find(row_key);
  if (it == rows_.end() || !it->second.contains(qualifier)) return;
  const int64_t t = AllocTs(ts);
  RegionEdit* edit =
      AppendEdit(Durability::kLogged, row_key, t, /*tombstone=*/true);
  edit->columns = {{qualifier, ""}};
  ApplyColumns(it->second, edit->columns, t, /*tombstone=*/true, edit);
}

std::optional<RowResult> Region::Get(const std::string& row_key,
                                     const ReadView& view) const {
  std::shared_lock lock(mutex_);
  auto it = rows_.find(row_key);
  if (it == rows_.end()) return std::nullopt;
  return ResolveRow(row_key, it->second, view);
}

bool Region::CheckAndPut(const std::string& row_key,
                         const std::string& qualifier,
                         const std::optional<std::string>& expected,
                         const std::string& new_value, Durability durability) {
  std::unique_lock lock(mutex_);
  std::optional<std::string> current;
  if (auto rit = rows_.find(row_key); rit != rows_.end()) {
    auto cit = rit->second.find(qualifier);
    if (cit != rit->second.end()) current = cit->second.Latest();
  }
  if (current != expected) return false;
  // Freshly allocated timestamps never collide, so nothing is displaced.
  const int64_t t = AllocTs(std::nullopt);
  rows_[row_key][qualifier].AddVersion(
      CellVersion{t, new_value, /*tombstone=*/false});
  if (RegionEdit* edit = AppendEdit(durability, row_key, t, false)) {
    edit->columns.emplace_back(qualifier, new_value);
  }
  return true;
}

StatusOr<int64_t> Region::Increment(const std::string& row_key,
                                    const std::string& qualifier,
                                    int64_t delta, Durability durability) {
  std::unique_lock lock(mutex_);
  RowData& row = rows_[row_key];
  int64_t current = 0;
  auto cit = row.find(qualifier);
  if (cit != row.end()) {
    std::optional<std::string> v = cit->second.Latest();
    if (v.has_value()) {
      auto [ptr, ec] =
          std::from_chars(v->data(), v->data() + v->size(), current);
      if (ec != std::errc{}) {
        return Status::InvalidArgument("Increment on non-integer column");
      }
    }
  }
  const int64_t next = current + delta;
  const int64_t t = AllocTs(std::nullopt);
  std::string encoded = std::to_string(next);
  row[qualifier].AddVersion(CellVersion{t, encoded, /*tombstone=*/false});
  if (RegionEdit* edit = AppendEdit(durability, row_key, t, false)) {
    edit->columns.emplace_back(qualifier, std::move(encoded));
  }
  return next;
}

ScanBatchResult Region::ScanBatch(const std::string& from,
                                  const std::string& stop, size_t limit,
                                  const ReadView& view) const {
  std::shared_lock lock(mutex_);
  ScanBatchResult out;
  out.rows.reserve(std::min(limit, rows_.size()));
  auto it = rows_.lower_bound(std::max(from, start_key_));
  for (; it != rows_.end(); ++it) {
    if (!end_key_.empty() && it->first >= end_key_) break;
    if (!stop.empty() && it->first >= stop) break;
    ++out.rows_examined;
    std::optional<RowResult> row = ResolveRow(it->first, it->second, view);
    if (row.has_value()) {
      out.rows.push_back(std::move(*row));
      if (out.rows.size() >= limit) {
        ++it;
        break;
      }
    }
  }
  if (it == rows_.end() || (!end_key_.empty() && it->first >= end_key_) ||
      (!stop.empty() && it->first >= stop)) {
    out.exhausted = true;
  } else {
    out.next_start_key = it->first;
  }
  return out;
}

void Region::MajorCompact(int max_versions) {
  std::unique_lock lock(mutex_);
  // A crashed region has no memstore to flush; its log tail still awaits
  // replay.
  if (store_lost_.load(std::memory_order_relaxed)) return;
  // Flush: the memstore is now durable, so its edits need no replay. Swap
  // rather than clear() so the log's memory is returned.
  std::vector<RegionEdit>().swap(log_);
  for (auto row_it = rows_.begin(); row_it != rows_.end();) {
    RowData& row = row_it->second;
    for (auto cell_it = row.begin(); cell_it != row.end();) {
      cell_it->second.Compact(max_versions);
      if (cell_it->second.versions().empty()) {
        cell_it = row.erase(cell_it);
      } else {
        ++cell_it;
      }
    }
    if (row.empty()) {
      row_it = rows_.erase(row_it);
    } else {
      ++row_it;
    }
  }
}

size_t Region::RowCount() const {
  std::shared_lock lock(mutex_);
  size_t live = 0;
  for (const auto& [key, row] : rows_) {
    for (const auto& [qual, cell] : row) {
      if (cell.Latest().has_value()) {
        ++live;
        break;
      }
    }
  }
  return live;
}

size_t Region::ByteSize() const {
  std::shared_lock lock(mutex_);
  size_t total = 0;
  for (const auto& [key, row] : rows_) {
    total += key.size();
    for (const auto& [qual, cell] : row) total += qual.size() + cell.ByteSize();
  }
  return total;
}

size_t Region::ApproxRowCount() const {
  std::shared_lock lock(mutex_);
  return rows_.size();
}

std::string Region::MedianKey() const {
  std::shared_lock lock(mutex_);
  if (rows_.size() < 2) return {};
  auto it = rows_.begin();
  std::advance(it, rows_.size() / 2);
  return it->first;
}

void Region::SplitInto(const std::string& split, Region* right) {
  std::unique_lock lock(mutex_);
  std::unique_lock rlock(right->mutex_);
  auto it = rows_.lower_bound(split);
  right->rows_.insert(std::make_move_iterator(it),
                      std::make_move_iterator(rows_.end()));
  rows_.erase(it, rows_.end());
  // Partition the edit log with the rows so each daughter can replay its own
  // half after a crash (append order within each half is preserved).
  std::vector<RegionEdit> keep;
  keep.reserve(log_.size());
  for (RegionEdit& edit : log_) {
    if (edit.row_key >= split) {
      right->log_.push_back(std::move(edit));
    } else {
      keep.push_back(std::move(edit));
    }
  }
  log_ = std::move(keep);
}

void Region::DropStore() {
  std::unique_lock lock(mutex_);
  for (auto edit = log_.rbegin(); edit != log_.rend(); ++edit) {
    auto row_it = rows_.find(edit->row_key);
    if (row_it == rows_.end()) continue;
    RowData& row = row_it->second;
    for (const auto& [qual, value] : edit->columns) {
      auto cit = row.find(qual);
      if (cit != row.end()) cit->second.RemoveVersion(edit->ts);
    }
    for (auto d = edit->displaced.rbegin(); d != edit->displaced.rend(); ++d) {
      row[d->first].AddVersion(d->second);
    }
    std::erase_if(row,
                  [](const auto& e) { return e.second.versions().empty(); });
    if (row.empty()) rows_.erase(row_it);
  }
  store_lost_.store(true, std::memory_order_release);
}

void Region::ReplayEdits() {
  std::unique_lock lock(mutex_);
  for (RegionEdit& edit : log_) {
    edit.displaced.clear();
    ApplyColumns(rows_[edit.row_key], edit.columns, edit.ts, edit.tombstone,
                 &edit);
  }
  store_lost_.store(false, std::memory_order_release);
}

size_t Region::EditLogSize() const {
  std::shared_lock lock(mutex_);
  return log_.size();
}

}  // namespace synergy::hbase
