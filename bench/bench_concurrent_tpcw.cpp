// Concurrent TPC-W closed loop: N client threads per system x mix, virtual
// throughput + latency percentiles.
//
// This is the contention companion to Fig. 11/Fig. 14: single-session
// benches reproduce lock overhead as an isolated cost, here concurrent
// sessions race for the same root locks (lock retries charge virtual time,
// so contention shows up in p95/p99 and in lost throughput). Throughput is
// reported in *virtual* time — run duration is the slowest thread's virtual
// busy time — which keeps the scaling curves host-independent (wall ops/s
// on the side measures only the simulator).
//
// Knobs: SYNERGY_BENCH_THREADS (max client threads, default 8; the sweep is
// {1,2,4,8} capped by it), SYNERGY_TPCW_CUSTOMERS, SYNERGY_BENCH_REPS (ops
// per thread), SYNERGY_BENCH_RESULTS_DIR / SYNERGY_BENCH_LABEL /
// SYNERGY_GIT_REV for the JSON trajectory appended to
// bench-results/BENCH_concurrent_tpcw.json.
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "concurrent/tpcw_mix.h"
#include "hbase/retry_policy.h"
#include "obs/metrics.h"
#include "systems/harness.h"
#include "systems/mvcc_system.h"
#include "systems/synergy_wrapper.h"
#include "testing/fault_injector.h"

namespace {

using namespace synergy;

struct ResultRow {
  std::string system;
  std::string mix;
  int threads = 0;
  concurrent::WorkloadReport report;
};

std::string JsonRun(const std::vector<ResultRow>& rows,
                    const tpcw::ScaleConfig& scale, size_t ops_per_thread,
                    const std::vector<std::pair<std::string, std::string>>&
                        metrics) {
  char stamp[32] = "unknown";
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc{};
  if (gmtime_r(&now, &tm_utc) != nullptr) {
    std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%S+00:00", &tm_utc);
  }
  const char* rev = std::getenv("SYNERGY_GIT_REV");
  const char* label = std::getenv("SYNERGY_BENCH_LABEL");

  std::ostringstream out;
  out << "    {\n"
      << "      \"timestamp\": \"" << stamp << "\",\n"
      << "      \"git_rev\": \"" << (rev != nullptr ? rev : "unknown")
      << "\",\n"
      << "      \"label\": \"" << (label != nullptr ? label : "run") << "\",\n"
      << "      \"num_customers\": " << scale.num_customers << ",\n"
      << "      \"ops_per_thread\": " << ops_per_thread << ",\n"
      << "      \"results\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const ResultRow& r = rows[i];
    char buf[640];
    std::snprintf(
        buf, sizeof(buf),
        "        {\"system\": \"%s\", \"mix\": \"%s\", \"threads\": %d, "
        "\"vthroughput_ops_s\": %.1f, \"p50_ms\": %.2f, \"p95_ms\": %.2f, "
        "\"p99_ms\": %.2f, \"mean_ms\": %.2f, \"errors\": %zu, "
        "\"retries\": %zu, \"degraded_ops\": %zu, \"deadline_errors\": %zu, "
        "\"rpcs_per_op\": %.1f, \"wall_ops_s\": %.0f}%s\n",
        r.system.c_str(), r.mix.c_str(), r.threads,
        r.report.virtual_throughput(), r.report.p50_ms(), r.report.p95_ms(),
        r.report.p99_ms(), r.report.mean_ms(), r.report.total_errors,
        r.report.total_retries, r.report.total_degraded_ops,
        r.report.total_deadline_errors, r.report.rpcs_per_op(),
        r.report.wall_throughput(), i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  out << "      ],\n      \"metrics\": {\n";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << "        \"" << metrics[i].first << "\": " << metrics[i].second
        << (i + 1 < metrics.size() ? "," : "") << "\n";
  }
  out << "      }\n    }";
  return out.str();
}

/// Appends the run object into the trajectory file's `runs` array, creating
/// the file if needed.
bool AppendJson(const std::string& path, const std::string& run) {
  std::string existing;
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      existing = buf.str();
    }
  }
  std::string out;
  const size_t close = existing.rfind(']');
  if (close == std::string::npos) {
    out = "{\n  \"description\": \"Concurrent TPC-W closed-loop trajectory "
          "(see docs/BENCHMARKS.md)\",\n  \"runs\": [\n" +
          run + "\n  ]\n}\n";
  } else {
    const bool empty_array =
        existing.find('{', existing.find("\"runs\"")) == std::string::npos ||
        existing.find('{', existing.find('[')) > close;
    std::string insert = (empty_array ? "\n" : ",\n") + run + "\n  ";
    out = existing.substr(0, close);
    // Trim trailing whitespace before the close bracket.
    while (!out.empty() && (out.back() == ' ' || out.back() == '\n')) {
      out.pop_back();
    }
    out += insert + existing.substr(close);
  }
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  f << out;
  return true;
}

std::string ResultsDir() {
  const char* env = std::getenv("SYNERGY_BENCH_RESULTS_DIR");
  if (env != nullptr) return env;
  struct stat st{};
  if (stat("bench-results", &st) == 0 && S_ISDIR(st.st_mode)) {
    return "bench-results";
  }
  if (stat("../bench-results", &st) == 0 && S_ISDIR(st.st_mode)) {
    return "../bench-results";
  }
  return "bench-results";  // will fail to open; reported by caller
}

}  // namespace

int main() {
  using systems::FormatMs;
  tpcw::ScaleConfig scale;
  scale.num_customers = systems::EnvCustomers(300);
  const int max_threads = systems::EnvThreads(8);
  const size_t ops_per_thread = static_cast<size_t>(systems::EnvReps(80));
  scale.load_threads = std::min(4, max_threads);

  std::vector<int> sweep;
  for (const int t : {1, 2, 4, 8}) {
    if (t <= max_threads) sweep.push_back(t);
  }

  std::printf(
      "=== Concurrent TPC-W closed loop (virtual-time throughput) ===\n"
      "NUM_CUST=%lld, ops/thread=%zu, threads in {",
      static_cast<long long>(scale.num_customers), ops_per_thread);
  for (size_t i = 0; i < sweep.size(); ++i) {
    std::printf("%s%d", i > 0 ? "," : "", sweep[i]);
  }
  std::printf("}.\n\n");

  // Synergy gets a worker slave per client pair so distributed writes
  // overlap; Baseline (no views, Phoenix+Tephra MVCC) is the comparator.
  std::vector<std::unique_ptr<systems::EvaluatedSystem>> evaluated;
  evaluated.push_back(std::make_unique<systems::SynergyWrapper>(
      tpcw::Roots(), "Synergy", std::max(1, max_threads / 2)));
  evaluated.push_back(std::make_unique<systems::MvccSystem>(
      "Baseline", systems::MvccSystem::ViewMode::kNone));
  for (const auto& system : evaluated) {
    const Status setup = system->Setup(scale);
    if (!setup.ok()) {
      std::fprintf(stderr, "%s setup failed: %s\n", system->name().c_str(),
                   setup.ToString().c_str());
      return 1;
    }
  }

  std::vector<ResultRow> rows;
  // Registry snapshots (name -> JSON) embedded into the committed run row.
  std::vector<std::pair<std::string, std::string>> metrics_json;
  double synergy_read_t1 = 0.0, synergy_read_t4 = 0.0;
  for (const concurrent::MixConfig& mix : concurrent::StandardMixes()) {
    std::printf("--- mix: %s (read fraction %.0f%%) ---\n", mix.name.c_str(),
                mix.read_fraction * 100.0);
    systems::TablePrinter table({"system", "threads", "ops/vsec", "p50 ms",
                                 "p95 ms", "p99 ms", "mean ms", "errors",
                                 "retries", "degraded", "rpc/op"});
    for (const auto& system : evaluated) {
      for (const int threads : sweep) {
        const concurrent::WorkloadReport report = systems::MeasureConcurrent(
            *system, scale, mix, threads, ops_per_thread,
            /*base_seed=*/scale.seed ^ 0xC0FFEE);
        if (report.total_ops == 0) {
          std::fprintf(stderr, "%s/%s/%d: no op completed: %s\n",
                       system->name().c_str(), mix.name.c_str(), threads,
                       report.first_error.ToString().c_str());
          return 1;
        }
        rows.push_back({system->name(), mix.name, threads, report});
        if (system->name() == "Synergy" && mix.name == "read") {
          if (threads == 1) synergy_read_t1 = report.virtual_throughput();
          if (threads == 4) synergy_read_t4 = report.virtual_throughput();
        }
        table.AddRow({system->name(), std::to_string(threads),
                      FormatMs(report.virtual_throughput()),
                      FormatMs(report.p50_ms()), FormatMs(report.p95_ms()),
                      FormatMs(report.p99_ms()), FormatMs(report.mean_ms()),
                      std::to_string(report.total_errors),
                      std::to_string(report.total_retries),
                      std::to_string(report.total_degraded_ops),
                      FormatMs(report.rpcs_per_op())});
      }
    }
    table.Print();
    std::printf("\n");
  }

  if (synergy_read_t1 > 0.0 && synergy_read_t4 > 0.0) {
    const double scaling = synergy_read_t4 / synergy_read_t1;
    std::printf(
        "Read-mix virtual throughput scaling, Synergy 1 -> 4 threads: %.2fx "
        "(readers share the region latch; >1x expected)\n",
        scaling);
    if (scaling <= 1.0) {
      std::fprintf(stderr, "FAIL: read-mix scaling %.2fx is not > 1x\n",
                   scaling);
      return 1;
    }
  }

  // --- failover: region-server crash under the write-heavy mix ----------
  //
  // A fresh Synergy instance takes a server crash a few heartbeat rounds
  // into a write storm. Clients run with the default RetryPolicy, so RPCs
  // that land on the dead server's regions back off while the lease
  // expires, regions reassign and their WALs replay; the run must keep
  // nonzero goodput with a degraded (but finite) p99.
  {
    auto failover_sys = std::make_unique<systems::SynergyWrapper>(
        tpcw::Roots(), "Synergy", std::max(1, max_threads / 2));
    const Status setup = failover_sys->Setup(scale);
    if (!setup.ok()) {
      std::fprintf(stderr, "failover setup failed: %s\n",
                   setup.ToString().c_str());
      return 1;
    }
    // Crash the server hosting Orders — the write mix's hottest insert
    // target — so the outage is on the critical path, not a cold shard.
    int victim = 1;
    if (StatusOr<int> host = failover_sys->cluster()->RegionServerOf("Orders");
        host.ok()) {
      victim = *host;
    }
    std::printf("--- failover: server-%d crash (hosts Orders), %s mix, "
                "%d threads ---\n",
                victim, concurrent::WriteHeavyMix().name.c_str(), max_threads);
    // Installed after load so the crash lands mid-run, not mid-population:
    // the victim dies on its third heartbeat round under client traffic.
    fault::FaultInjector faults(static_cast<uint64_t>(scale.seed) ^ 0xFA11);
    faults.AddRule({.point = fault::FaultPoint::kRegionServerCrash,
                    .probability = 1.0,
                    .skip_hits = 2,
                    .max_fires = 1,
                    .table_prefix = "",
                    .server_id = victim});
    failover_sys->system()->SetFaultInjector(&faults);
    failover_sys->SetRetryPolicy(hbase::RetryPolicy{});

    const concurrent::WorkloadReport report = systems::MeasureConcurrent(
        *failover_sys, scale, concurrent::WriteHeavyMix(), max_threads,
        ops_per_thread, /*base_seed=*/scale.seed ^ 0xFA11CAFE);
    const obs::RegistrySnapshot snap =
        failover_sys->cluster()->metrics().Snapshot();
    auto failover_count = [&snap](const char* name) {
      return static_cast<unsigned long long>(snap.CounterValue(name));
    };
    std::printf(
        "goodput %.1f ops/vsec, p99 %s ms, errors %zu (deadline %zu), "
        "retries %zu, degraded reads %zu\n"
        "cluster: crashes %llu, regions reassigned %llu, WAL edits replayed "
        "%llu, writes rejected mid-reassignment %llu\n\n",
        report.virtual_throughput(), FormatMs(report.p99_ms()).c_str(),
        report.total_errors, report.total_deadline_errors,
        report.total_retries, report.total_degraded_ops,
        failover_count("hbase_failover_crashes_total"),
        failover_count("hbase_failover_regions_reassigned_total"),
        failover_count("hbase_failover_edits_replayed_total"),
        failover_count("hbase_failover_writes_rejected_total"));
    if (report.total_ops == 0) {
      std::fprintf(stderr, "FAIL: no goodput through the server crash: %s\n",
                   report.first_error.ToString().c_str());
      return 1;
    }
    rows.push_back({"Synergy+crash", "failover-write", max_threads, report});
    metrics_json.emplace_back("Synergy+crash", failover_sys->MetricsJson());
  }

  for (const auto& system : evaluated) {
    metrics_json.emplace_back(system->name(), system->MetricsJson());
  }

  const std::string path = ResultsDir() + "/BENCH_concurrent_tpcw.json";
  if (AppendJson(path, JsonRun(rows, scale, ops_per_thread, metrics_json))) {
    std::printf("Appended datapoint to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "WARNING: could not write %s\n", path.c_str());
  }
  return 0;
}
