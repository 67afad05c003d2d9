#include "hbase/cluster.h"

#include <cmath>

#include "testing/fault_injector.h"

namespace synergy::hbase {

ClusterOpCounters ClusterOpCounters::Resolve(obs::MetricsRegistry& registry) {
  ClusterOpCounters c;
  c.rpcs = registry.GetCounter(
      "hbase_rpcs_total", "RPC attempts at the region-server boundary");
  c.scan_batches = registry.GetCounter(
      "hbase_scan_batches_total", "scan batch RPCs (subset of hbase_rpcs)");
  c.faults_injected = registry.GetCounter(
      "hbase_faults_injected_total",
      "injected RPC faults (request-lost, timeout, ack-lost)");
  c.retries = registry.GetCounter(
      "client_retries_total", "retry attempts granted by session policies");
  c.degraded_reads = registry.GetCounter(
      "client_degraded_reads_total",
      "bounded-staleness reads served mid-reassignment");
  c.deadline_exceeded = registry.GetCounter(
      "client_deadline_exceeded_total", "ops that exhausted their deadline");
  c.overload_rejected = registry.GetCounter(
      "client_overload_rejected_total",
      "ops shed by admission control or a tripped breaker");
  c.scan_errors_dropped = registry.GetCounter(
      "client_scan_errors_dropped_total",
      "scanners destroyed with an unchecked error status");
  c.breaker_fastfail = registry.GetCounter(
      "client_breaker_fastfail_total",
      "ops failed fast by an open circuit breaker");
  c.retry_budget_exhausted = registry.GetCounter(
      "client_retry_budget_exhausted_total",
      "retries denied by an empty token-bucket budget");
  c.admission_queue_wait_us = registry.GetHistogram(
      "hbase_admission_queue_wait_us",
      "virtual queueing delay charged per admitted RPC");
  return c;
}

Session::Session(Cluster* cluster)
    : cluster_(cluster), counters_(&cluster->counters()) {}

template <typename Fn>
auto Cluster::RunWithRetries(Session& s, Fn&& fn) -> decltype(fn()) {
  return RunWithRetryProtection(*this, s, std::forward<Fn>(fn), [] {});
}

Status Cluster::CreateTable(const TableDescriptor& desc,
                            const std::vector<std::string>& split_keys) {
  std::unique_lock lock(tables_mutex_);
  if (tables_.contains(desc.name)) {
    return Status::AlreadyExists("table " + desc.name);
  }
  tables_.emplace(desc.name,
                  std::make_unique<Table>(desc, split_keys, &clock_,
                                          num_region_servers_));
  return Status::Ok();
}

Status Cluster::InjectRequestFault(const std::string& table,
                                   const Region* region) {
  if (faults_ == nullptr) return Status::Ok();
  const fault::FaultSite site{table, region->server_id()};
  if (faults_->ShouldFire(fault::FaultPoint::kRegionRpcFailure, site)) {
    counters_.faults_injected->Inc();
    return faults_->InjectedFault(fault::FaultPoint::kRegionRpcFailure);
  }
  if (faults_->ShouldFire(fault::FaultPoint::kRpcTimeout, site)) {
    counters_.faults_injected->Inc();
    return faults_->InjectedFault(fault::FaultPoint::kRpcTimeout);
  }
  return Status::Ok();
}

Status Cluster::InjectAckFault(const std::string& table,
                               const Region* region) {
  if (faults_ == nullptr) return Status::Ok();
  const fault::FaultSite site{table, region->server_id()};
  if (faults_->ShouldFire(fault::FaultPoint::kRegionRpcAckLost, site)) {
    counters_.faults_injected->Inc();
    return faults_->InjectedFault(fault::FaultPoint::kRegionRpcAckLost);
  }
  return Status::Ok();
}

Status Cluster::AdmitOp(Session& s, const std::string& table,
                        const Region* region, AdmissionSlot* slot) {
  if (admission_ == nullptr) return Status::Ok();
  const int server = region->server_id();
  // The overload-burst fault slams this server with phantom load *before*
  // the admission decision, so the triggering op already feels the burst.
  if (faults_ != nullptr &&
      faults_->ShouldFire(fault::FaultPoint::kOverloadBurst,
                          fault::FaultSite{table, server})) {
    admission_->InjectBurst(server, admission_->config().burst_ops);
  }
  AdmissionDecision d = admission_->Admit(server, s.OpDeadlineRemaining());
  SYNERGY_RETURN_IF_ERROR(d.status);
  counters_.admission_queue_wait_us->Observe(d.queue_wait_us);
  if (d.queue_wait_us > 0.0) {
    // Queueing delay is modeled time like any other cost, and it advances
    // failure detection the same way retry backoffs do.
    s.meter().Charge(d.queue_wait_us);
    failover_->PumpVirtualTime(d.queue_wait_us);
    if (obs::TraceCollector* trace = s.trace()) {
      trace->NoteCurrent("queue_wait_us", std::to_string(d.queue_wait_us));
    }
  }
  *slot = AdmissionSlot(admission_.get(), server);
  return Status::Ok();
}

Status Cluster::DropTable(const std::string& name) {
  std::unique_lock lock(tables_mutex_);
  if (tables_.erase(name) == 0) return Status::NotFound("table " + name);
  return Status::Ok();
}

bool Cluster::HasTable(const std::string& name) const {
  std::shared_lock lock(tables_mutex_);
  return tables_.contains(name);
}

std::vector<std::string> Cluster::TableNames() const {
  std::shared_lock lock(tables_mutex_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

StatusOr<Table*> Cluster::FindTable(const std::string& name) const {
  std::shared_lock lock(tables_mutex_);
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("table " + name);
  return it->second.get();
}

Status Cluster::Put(
    Session& s, const std::string& table, const std::string& row_key,
    const std::vector<std::pair<std::string, std::string>>& columns,
    std::optional<int64_t> ts) {
  return RunWithRetries(
      s, [&] { return PutOnce(s, table, row_key, columns, ts); });
}

Status Cluster::PutOnce(
    Session& s, const std::string& table, const std::string& row_key,
    const std::vector<std::pair<std::string, std::string>>& columns,
    std::optional<int64_t> ts) {
  failover_->OnRpc();
  s.CountRpc();
  obs::ScopedSpan rpc_span(s.rpc_trace(), "rpc.put");
  rpc_span.Note("table", table);
  SYNERGY_ASSIGN_OR_RETURN(t, FindTable(table));
  size_t payload = row_key.size();
  for (const auto& [qual, value] : columns) payload += qual.size() + value.size();
  s.meter().Charge(sim::RpcCost(model_, payload) + model_.server_seek_us);
  Region* region = t->RouteKey(row_key);
  rpc_span.Note("server", std::to_string(region->server_id()));
  const RegionAccess access = failover_->CheckAccess(region, /*is_write=*/true);
  SYNERGY_RETURN_IF_ERROR(access.status);
  AdmissionSlot slot;
  SYNERGY_RETURN_IF_ERROR(AdmitOp(s, table, region, &slot));
  SYNERGY_RETURN_IF_ERROR(InjectRequestFault(table, region));
  region->Put(row_key, columns, ts, s.durability());
  return InjectAckFault(table, region);
}

StatusOr<RowResult> Cluster::Get(Session& s, const std::string& table,
                                 const std::string& row_key) {
  return RunWithRetries(s, [&] { return GetOnce(s, table, row_key); });
}

StatusOr<RowResult> Cluster::GetOnce(Session& s, const std::string& table,
                                     const std::string& row_key) {
  failover_->OnRpc();
  s.CountRpc();
  obs::ScopedSpan rpc_span(s.rpc_trace(), "rpc.get");
  rpc_span.Note("table", table);
  SYNERGY_ASSIGN_OR_RETURN(t, FindTable(table));
  Region* region = t->RouteKey(row_key);
  rpc_span.Note("server", std::to_string(region->server_id()));
  const RegionAccess access =
      failover_->CheckAccess(region, /*is_write=*/false);
  SYNERGY_RETURN_IF_ERROR(access.status);
  if (access.degraded) {
    s.CountDegradedRead();
    rpc_span.Note("degraded", "1");
  }
  AdmissionSlot slot;
  SYNERGY_RETURN_IF_ERROR(AdmitOp(s, table, region, &slot));
  SYNERGY_RETURN_IF_ERROR(InjectRequestFault(table, region));
  std::optional<RowResult> row = region->Get(row_key, s.read_view());
  const size_t payload = row.has_value() ? row->PayloadBytes() : 0;
  s.meter().Charge(sim::RpcCost(model_, payload) + model_.server_seek_us);
  if (!row.has_value()) {
    return Status::NotFound("row in " + table);
  }
  return std::move(*row);
}

Status Cluster::Delete(Session& s, const std::string& table,
                       const std::string& row_key, std::optional<int64_t> ts) {
  return RunWithRetries(s, [&] { return DeleteOnce(s, table, row_key, ts); });
}

Status Cluster::DeleteOnce(Session& s, const std::string& table,
                           const std::string& row_key,
                           std::optional<int64_t> ts) {
  failover_->OnRpc();
  s.CountRpc();
  obs::ScopedSpan rpc_span(s.rpc_trace(), "rpc.delete");
  rpc_span.Note("table", table);
  SYNERGY_ASSIGN_OR_RETURN(t, FindTable(table));
  s.meter().Charge(sim::RpcCost(model_, row_key.size()) +
                   model_.server_seek_us);
  Region* region = t->RouteKey(row_key);
  rpc_span.Note("server", std::to_string(region->server_id()));
  const RegionAccess access = failover_->CheckAccess(region, /*is_write=*/true);
  SYNERGY_RETURN_IF_ERROR(access.status);
  AdmissionSlot slot;
  SYNERGY_RETURN_IF_ERROR(AdmitOp(s, table, region, &slot));
  SYNERGY_RETURN_IF_ERROR(InjectRequestFault(table, region));
  region->Delete(row_key, ts, s.durability());
  return InjectAckFault(table, region);
}

StatusOr<bool> Cluster::CheckAndPut(Session& s, const std::string& table,
                                    const std::string& row_key,
                                    const std::string& qualifier,
                                    const std::optional<std::string>& expected,
                                    const std::string& new_value) {
  return RunWithRetries(s, [&] {
    return CheckAndPutOnce(s, table, row_key, qualifier, expected, new_value);
  });
}

StatusOr<bool> Cluster::CheckAndPutOnce(
    Session& s, const std::string& table, const std::string& row_key,
    const std::string& qualifier, const std::optional<std::string>& expected,
    const std::string& new_value) {
  failover_->OnRpc();
  s.CountRpc();
  obs::ScopedSpan rpc_span(s.rpc_trace(), "rpc.check_and_put");
  rpc_span.Note("table", table);
  SYNERGY_ASSIGN_OR_RETURN(t, FindTable(table));
  s.meter().Charge(model_.lock_rpc_us);
  // No ack-lost injection here: a CheckAndPut that applies but reports
  // failure is unresolvable ambiguity for the caller (non-idempotent CAS).
  // Request-lost/timeout/failover refusals happen before the CAS applies,
  // so the client retry loop stays safe.
  Region* region = t->RouteKey(row_key);
  rpc_span.Note("server", std::to_string(region->server_id()));
  const RegionAccess access = failover_->CheckAccess(region, /*is_write=*/true);
  SYNERGY_RETURN_IF_ERROR(access.status);
  AdmissionSlot slot;
  SYNERGY_RETURN_IF_ERROR(AdmitOp(s, table, region, &slot));
  SYNERGY_RETURN_IF_ERROR(InjectRequestFault(table, region));
  return region->CheckAndPut(row_key, qualifier, expected, new_value,
                             s.durability());
}

StatusOr<int64_t> Cluster::Increment(Session& s, const std::string& table,
                                     const std::string& row_key,
                                     const std::string& qualifier,
                                     int64_t delta) {
  return RunWithRetries(
      s, [&] { return IncrementOnce(s, table, row_key, qualifier, delta); });
}

StatusOr<int64_t> Cluster::IncrementOnce(Session& s, const std::string& table,
                                         const std::string& row_key,
                                         const std::string& qualifier,
                                         int64_t delta) {
  failover_->OnRpc();
  s.CountRpc();
  obs::ScopedSpan rpc_span(s.rpc_trace(), "rpc.increment");
  rpc_span.Note("table", table);
  SYNERGY_ASSIGN_OR_RETURN(t, FindTable(table));
  s.meter().Charge(sim::RpcCost(model_, row_key.size() + 16) +
                   model_.server_seek_us);
  Region* region = t->RouteKey(row_key);
  rpc_span.Note("server", std::to_string(region->server_id()));
  const RegionAccess access = failover_->CheckAccess(region, /*is_write=*/true);
  SYNERGY_RETURN_IF_ERROR(access.status);
  AdmissionSlot slot;
  SYNERGY_RETURN_IF_ERROR(AdmitOp(s, table, region, &slot));
  SYNERGY_RETURN_IF_ERROR(InjectRequestFault(table, region));
  return region->Increment(row_key, qualifier, delta, s.durability());
}

StatusOr<Scanner> Cluster::OpenScanner(Session& s, const std::string& table,
                                       const std::string& start,
                                       const std::string& stop) {
  SYNERGY_ASSIGN_OR_RETURN(t, FindTable(table));
  (void)t;
  return Scanner(this, &s, table, start, stop,
                 static_cast<size_t>(model_.scan_batch_rows));
}

StatusOr<ScanBatchResult> Cluster::ScanBatchRpc(Session& s,
                                                const std::string& table,
                                                const std::string& from,
                                                const std::string& stop,
                                                size_t limit) {
  return RunWithRetries(
      s, [&] { return ScanBatchRpcOnce(s, table, from, stop, limit); });
}

StatusOr<ScanBatchResult> Cluster::ScanBatchRpcOnce(Session& s,
                                                    const std::string& table,
                                                    const std::string& from,
                                                    const std::string& stop,
                                                    size_t limit) {
  failover_->OnRpc();
  s.CountRpc();
  counters_.scan_batches->Inc();
  obs::ScopedSpan rpc_span(s.rpc_trace(), "rpc.scan_batch");
  rpc_span.Note("table", table);
  SYNERGY_ASSIGN_OR_RETURN(t, FindTable(table));
  Region* region = t->RouteScanStart(from);
  rpc_span.Note("server", std::to_string(region->server_id()));
  const RegionAccess access =
      failover_->CheckAccess(region, /*is_write=*/false);
  SYNERGY_RETURN_IF_ERROR(access.status);
  if (access.degraded) {
    s.CountDegradedRead();
    rpc_span.Note("degraded", "1");
  }
  AdmissionSlot slot;
  SYNERGY_RETURN_IF_ERROR(AdmitOp(s, table, region, &slot));
  SYNERGY_RETURN_IF_ERROR(InjectRequestFault(table, region));
  ScanBatchResult batch = region->ScanBatch(from, stop, limit, s.read_view());
  // If the region was exhausted but the table continues, resume from the
  // region's end key on the next RPC.
  if (batch.exhausted && !region->end_key().empty() &&
      (stop.empty() || region->end_key() < stop)) {
    batch.exhausted = false;
    batch.next_start_key = region->end_key();
  }
  size_t payload = 0;
  for (const RowResult& row : batch.rows) payload += row.PayloadBytes();
  double cost = sim::RpcCost(model_, payload) +
                model_.server_scan_row_us *
                    static_cast<double>(batch.rows_examined) +
                model_.client_row_us * static_cast<double>(batch.rows.size());
  if (s.read_view().exclude != nullptr) {
    // MVCC visibility filtering work per examined row.
    cost += model_.mvcc_read_filter_row_us *
            static_cast<double>(batch.rows_examined);
  }
  s.meter().Charge(cost);
  return batch;
}

bool Scanner::FetchBatch() {
  while (!exhausted_) {
    StatusOr<ScanBatchResult> batch =
        cluster_->ScanBatchRpc(*session_, table_, next_start_, stop_,
                               batch_rows_);
    if (!batch.ok()) {
      status_ = batch.status();
      exhausted_ = true;
      return false;
    }
    buffer_ = std::move(batch->rows);
    buffer_pos_ = 0;
    if (batch->exhausted) {
      exhausted_ = true;
    } else {
      // Resume strictly after the last delivered row, or at the region
      // boundary if the batch ended at one.
      next_start_ = batch->next_start_key;
      if (next_start_.empty()) {
        if (buffer_.empty()) {
          exhausted_ = true;
        } else {
          next_start_ = buffer_.back().row_key + std::string(1, '\0');
        }
      }
    }
    if (!buffer_.empty()) return true;
  }
  return false;
}

bool Scanner::Next(RowResult* out) {
  if (buffer_pos_ >= buffer_.size() && !FetchBatch()) return false;
  *out = std::move(buffer_[buffer_pos_++]);
  ++rows_returned_;
  return true;
}

std::vector<Region*> Cluster::AllRegions() const {
  std::shared_lock lock(tables_mutex_);
  std::vector<Region*> out;
  for (const auto& [name, table] : tables_) {
    for (Region* region : table->SnapshotRegions()) out.push_back(region);
  }
  return out;
}

void Cluster::MajorCompactAll() {
  std::shared_lock lock(tables_mutex_);
  for (auto& [name, table] : tables_) table->MajorCompact();
}

void Cluster::MaybeSplitAll() {
  std::shared_lock lock(tables_mutex_);
  for (auto& [name, table] : tables_) table->MaybeSplit();
}

std::vector<TableSizeInfo> Cluster::SizeReport() const {
  std::shared_lock lock(tables_mutex_);
  std::vector<TableSizeInfo> out;
  out.reserve(tables_.size());
  for (const auto& [name, table] : tables_) {
    TableSizeInfo info;
    info.name = name;
    info.rows = table->RowCount();
    info.regions = table->RegionCount();
    const size_t raw = table->ByteSize();
    // Approximate HFile framing: per-cell key/cf/qualifier/timestamp overhead.
    info.bytes = raw + static_cast<size_t>(
                           model_.hbase_overhead_per_cell *
                           static_cast<double>(info.rows) * 4.0);
    out.push_back(info);
  }
  return out;
}

size_t Cluster::ApproxRowCount(const std::string& table) const {
  StatusOr<Table*> t = FindTable(table);
  if (!t.ok()) return 0;
  return (*t)->ApproxRowCount();
}

StatusOr<int> Cluster::RegionServerOf(const std::string& table) const {
  SYNERGY_ASSIGN_OR_RETURN(t, FindTable(table));
  const std::vector<Region*> regions = t->SnapshotRegions();
  if (regions.empty()) return Status::NotFound("table has no regions");
  return regions.front()->server_id();
}

size_t Cluster::TotalBytes() const {
  size_t total = 0;
  for (const TableSizeInfo& info : SizeReport()) total += info.bytes;
  return total;
}

}  // namespace synergy::hbase
