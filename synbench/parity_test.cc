// Setup-parity self-check: the benchmark's call-by-call SetUp must leave
// the store exactly as systems::SynergyWrapper::Setup does (same
// Cluster::TotalBytes, same row count in every view), so the benchmark's
// copy of the setup sequence cannot drift from the wrapper's.
// Exits 0 on parity, 1 otherwise.
#include <cstdio>
#include <map>
#include <string>

#include "instance.h"
#include "synergy/view_audit.h"
#include "systems/synergy_wrapper.h"

namespace {

using namespace synergy;

/// View name -> live rows, or an empty map (with a message) on failure.
std::map<std::string, size_t> ViewRows(const char* label,
                                       hbase::Cluster* cluster,
                                       core::SynergySystem* system) {
  hbase::Session s(cluster);
  StatusOr<core::ViewAuditReport> report =
      core::AuditViewConsistency(s, system->adapter());
  std::map<std::string, size_t> rows;
  if (!report.ok()) {
    std::fprintf(stderr, "%s audit failed: %s\n", label,
                 report.status().ToString().c_str());
    return rows;
  }
  if (!report->consistent()) {
    std::fprintf(stderr, "%s views inconsistent:\n%s", label,
                 report->ToString().c_str());
    return rows;
  }
  for (const core::ViewAuditEntry& v : report->views) {
    rows[v.view] = v.view_rows;
  }
  return rows;
}

}  // namespace

int main() {
  tpcw::ScaleConfig scale;
  scale.num_customers = 50;

  systems::SynergyWrapper wrapper;
  const Status wrapped = wrapper.Setup(scale);
  StatusOr<std::unique_ptr<synbench::Instance>> bench =
      synbench::SetUp(scale, /*txn_slaves=*/1);
  if (!wrapped.ok() || !bench.ok()) {
    std::fprintf(stderr, "setup failed: wrapper %s, benchmark %s\n",
                 wrapped.ToString().c_str(), bench.status().ToString().c_str());
    return 1;
  }

  bool ok = true;
  const size_t wrapper_bytes = wrapper.cluster()->TotalBytes();
  const size_t bench_bytes = (*bench)->cluster->TotalBytes();
  if (wrapper_bytes != bench_bytes) {
    std::fprintf(stderr, "TotalBytes: wrapper %zu, benchmark %zu\n",
                 wrapper_bytes, bench_bytes);
    ok = false;
  }
  const std::map<std::string, size_t> want =
      ViewRows("wrapper", wrapper.cluster(), wrapper.system());
  const std::map<std::string, size_t> got =
      ViewRows("benchmark", (*bench)->cluster.get(), (*bench)->system.get());
  if (want.empty() || want != got) {
    for (const auto& [view, rows] : want) {
      const auto it = got.find(view);
      std::fprintf(stderr, "%s: wrapper %zu rows, benchmark %s\n",
                   view.c_str(), rows,
                   it == got.end() ? "missing"
                                   : std::to_string(it->second).c_str());
    }
    ok = false;
  }
  std::printf("setup parity at %lld customers: %s (%zu bytes, %zu views)\n",
              static_cast<long long>(scale.num_customers),
              ok ? "ok" : "MISMATCH", bench_bytes, got.size());
  return ok ? 0 : 1;
}
