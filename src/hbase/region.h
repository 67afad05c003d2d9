// A region: one contiguous row-key range of a table, with its own latch.
//
// Regions provide the atomicity granule of the store: single-row operations
// (Put/Get/Delete/CheckAndPut/Increment) are atomic under the region latch,
// matching HBase's row-level atomicity guarantees.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "hbase/cell.h"

namespace synergy::hbase {

/// Visibility control for reads: resolve versions at/below `read_ts`,
/// skipping versions whose timestamp is in `exclude` (MVCC invalid list).
struct ReadView {
  int64_t read_ts = INT64_MAX;
  const std::vector<int64_t>* exclude = nullptr;
};

struct ScanBatchResult {
  std::vector<RowResult> rows;
  std::string next_start_key;  // exclusive resume point; empty => exhausted
  bool exhausted = false;
  size_t rows_examined = 0;  // server-side work including filtered rows
};

/// One logged mutation of a region, recorded under the region latch with the
/// exact cell timestamp it applied at. The log holds only the *memstore*:
/// the edits since the last flush (MajorCompact). Flushed and bulk-loaded
/// data is durable in the store itself, so a crash loses just this tail,
/// and failover rolls it back (DropStore) and re-applies it (ReplayEdits)
/// with the same versions and timestamps, losing no acknowledged write.
/// CheckAndPut/Increment log their *resulting* value, so replay needs no
/// re-evaluation.
struct RegionEdit {
  using Columns = std::vector<std::pair<std::string, std::string>>;
  std::string row_key;
  Columns columns;
  int64_t ts = 0;
  bool tombstone = false;  // true: each column entry is a tombstone marker
  /// Versions this edit overwrote at an equal timestamp (qualifier, old
  /// version), in overwrite order; rollback puts them back.
  std::vector<std::pair<std::string, CellVersion>> displaced;
};

/// Whether a mutation enters the region's edit log. Bulk loads (HBase's
/// bulk load / SKIP_WAL) write straight into the durable store: they are
/// offline and precede the online writes, so they never need a rollback.
enum class Durability { kLogged, kBulkLoad };

class Region {
 public:
  /// `clock` allocates write timestamps *inside* the region latch when the
  /// caller does not supply one, guaranteeing per-cell monotonicity under
  /// concurrency (a pre-allocated timestamp could be written after a newer
  /// one and be silently hidden). `server_id` names the region server this
  /// region is assigned to; fault schedules use it to take down all regions
  /// of one server at once (see testing/fault_injector.h).
  Region(std::string start_key, std::string end_key,
         std::atomic<int64_t>* clock, int server_id = 0)
      : start_key_(std::move(start_key)), end_key_(std::move(end_key)),
        clock_(clock), server_id_(server_id) {}

  const std::string& start_key() const { return start_key_; }
  const std::string& end_key() const { return end_key_; }
  int server_id() const { return server_id_.load(std::memory_order_acquire); }
  /// Reassigns the region to another server (failover). The release store
  /// pairs with the acquire load in server_id(): a client that routes to the
  /// new server sees the replayed store.
  void set_server_id(int id) {
    server_id_.store(id, std::memory_order_release);
  }

  /// Key containment: [start_key, end_key); empty end_key = unbounded.
  bool Contains(const std::string& key) const {
    return key >= start_key_ && (end_key_.empty() || key < end_key_);
  }

  /// ts == nullopt allocates from the clock inside the latch (the normal
  /// path); explicit timestamps are for MVCC writes tagged with a txid.
  /// A Durability of kBulkLoad skips the edit log.
  void Put(const std::string& row_key,
           const std::vector<std::pair<std::string, std::string>>& columns,
           std::optional<int64_t> ts = std::nullopt,
           Durability durability = Durability::kLogged);

  void Delete(const std::string& row_key,
              std::optional<int64_t> ts = std::nullopt,
              Durability durability = Durability::kLogged);
  void DeleteColumn(const std::string& row_key, const std::string& qualifier,
                    std::optional<int64_t> ts = std::nullopt);

  std::optional<RowResult> Get(const std::string& row_key,
                               const ReadView& view) const;

  /// Atomic compare-and-set: writes iff the current latest value of
  /// `qualifier` equals `expected` (nullopt expected == column absent).
  /// A failed compare leaves the store untouched.
  bool CheckAndPut(const std::string& row_key, const std::string& qualifier,
                   const std::optional<std::string>& expected,
                   const std::string& new_value,
                   Durability durability = Durability::kLogged);

  /// Atomic add on a decimal-encoded integer column; returns new value.
  StatusOr<int64_t> Increment(const std::string& row_key,
                              const std::string& qualifier, int64_t delta,
                              Durability durability = Durability::kLogged);

  /// Returns up to `limit` rows with key in [from, end) ∩ [start_key_,
  /// end_key_), resolved through `view`. Rows with no visible cells are
  /// skipped but counted in rows_examined.
  ScanBatchResult ScanBatch(const std::string& from, const std::string& stop,
                            size_t limit, const ReadView& view) const;

  /// Flush + compaction: the memstore becomes durable (the edit log is
  /// emptied), then tombstones/excess versions are dropped and rows left
  /// empty removed. No-op while the store is lost (before ReplayEdits).
  void MajorCompact(int max_versions);

  /// Number of live rows (rows whose cells are all tombstoned don't count).
  size_t RowCount() const;
  /// O(1) row count including not-yet-compacted deleted rows (planner
  /// estimates; exact liveness does not matter there).
  size_t ApproxRowCount() const;
  size_t ByteSize() const;

  /// Median row key, for region splits. Empty if too few rows.
  std::string MedianKey() const;

  /// Moves rows with key >= split into `right`. Caller fixes key ranges.
  void SplitInto(const std::string& split, Region* right);

  /// Shrinks this region's upper bound after a split.
  void SetEndKey(std::string end_key) { end_key_ = std::move(end_key); }

  // ---- Failover support (see hbase/failover.h) ----

  /// Simulates the server process dying: the memstore is lost. The edit
  /// log (the region WAL, durably replicated in real HBase) survives, and
  /// the store rolls back to its state at the last flush: the log tail is
  /// undone newest edit first (each edit's versions removed, the versions
  /// it overwrote put back, cells and rows left empty erased). Reads and
  /// writes are fenced by the failover layer until ReplayEdits().
  void DropStore();

  /// Re-applies the log tail in append order with the original timestamps,
  /// restoring the store as it was before the crash. Valid only after
  /// DropStore(): replaying into an intact store would re-apply edits
  /// whose versions are already there, which is why fenced-but-alive
  /// servers (heartbeat loss) skip replay.
  void ReplayEdits();

  /// True between DropStore() and ReplayEdits(): the store content is gone
  /// and even stale reads would be wrong (silently empty).
  bool store_lost() const {
    return store_lost_.load(std::memory_order_acquire);
  }

  /// Edits since the last flush (the memstore a crash would lose).
  size_t EditLogSize() const;

 private:
  int64_t AllocTs(std::optional<int64_t> ts) {
    return ts.has_value() ? *ts : clock_->fetch_add(1) + 1;
  }

  /// Opens a log entry (columns still empty) for a mutation at `ts`, or
  /// returns null for a bulk load. Caller holds mutex_ exclusively.
  RegionEdit* AppendEdit(Durability durability, const std::string& row_key,
                         int64_t ts, bool tombstone) {
    if (durability == Durability::kBulkLoad) return nullptr;
    return &log_.emplace_back(RegionEdit{row_key, {}, ts, tombstone, {}});
  }

  std::string start_key_;
  std::string end_key_;
  std::atomic<int64_t>* clock_;
  std::atomic<int> server_id_{0};
  std::atomic<bool> store_lost_{false};
  mutable std::shared_mutex mutex_;
  std::map<std::string, RowData> rows_;
  // Region WAL since the last flush; split-partitioned with rows_.
  std::vector<RegionEdit> log_;
};

}  // namespace synergy::hbase
