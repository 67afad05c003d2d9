// Synergy two-clock benchmark. Sets up Synergy in-process with the calls
// systems::SynergyWrapper makes, drives a TPC-W statement mix through the
// concurrent layer's closed loop with benchmark-owned sessions, times every
// op on the wall clock and on the virtual clock (sim::CostMeter), audits
// the views after the op windows and prints one JSON result as the last
// line.
//
//   synbench --workload browse|order|contended --seed N --seconds S
//            [--trace 0|1] [--rev REV]
//
// A run executes a fixed op count, the workload's nominal rate times S, so
// one seed gives one op sequence on any machine. The count is split over
// the workload's passes, which all run the same ops: a pass runs them on
// fresh instances, split into the workload's rounds, one instance each; a
// read-only workload replays every pass on one instance. --trace 0 prints
// the end-to-end metrics: set-up time is the median over every instance
// (at least kSetups), each op's wall and CPU time is its minimum over the
// passes, and single-client passes must agree op for op. --trace 1 makes
// one pass untraced and one traced (RPC spans on), checks that the two
// agree, and prints the per-layer metrics. README.md lists the workloads
// and every metric.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "concurrent/session_driver.h"
#include "concurrent/tpcw_mix.h"
#include "instance.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "synergy/view_audit.h"
#include "tpcw/workload.h"

namespace synbench {
namespace {

using namespace synergy;
using Clock = std::chrono::steady_clock;

constexpr double kBytesPerMb = 1024.0 * 1024.0;
// Host speed: a shared host's speed drifts by tens of percent over tens of
// seconds, for every program on it alike. Each client times a fixed probe
// kernel, independent of the code under test, every kProbeEvery; an op's
// wall and CPU time are scaled by kProbeRefUs / (that probe time), i.e. to
// a host on which the probe takes kProbeRefUs.
constexpr double kProbeRefUs = 300.0;
constexpr auto kProbeEvery = std::chrono::milliseconds(100);
constexpr int kSetups = 3;

struct WorkloadSpec {
  std::string name;
  int64_t customers = 0;
  int clients = 1;
  int slaves = 1;
  double ops_per_s = 0.0;  // nominal rate: ops per run = this x --seconds
  int passes = 1;          // repetitions of the same ops (>= kSetups if
                           // the workload writes)
  int rounds = 1;          // fresh instances a pass's ops are split across
  concurrent::MixConfig mix;
};

std::optional<WorkloadSpec> FindWorkload(const std::string& name) {
  if (name == "browse") {
    std::vector<std::string> reads = tpcw::JoinQueryIds();
    for (const std::string& id : tpcw::SingleTableReadIds()) {
      reads.push_back(id);
    }
    return WorkloadSpec{"browse", 2000, 1, 1, 1000.0, 9, 1,
                        {"browse", 1.0, std::move(reads), {}}};
  }
  if (name == "order") {
    return WorkloadSpec{
        "order", 1000, 1, 1, 4000.0, 4, 1,
        {"order", 0.2, {"S1", "S2", "S7"}, tpcw::WriteStatementIds()}};
  }
  if (name == "contended") {
    // Every write lands under one of 10 customers, so the views they touch
    // grow with each op; short rounds on fresh instances keep the
    // contention level the same from the first op to the last.
    return WorkloadSpec{"contended", 10, 2, 2, 2000.0, 3, 10,
                        concurrent::WriteHeavyMix()};
  }
  return std::nullopt;
}

struct OpSample {
  std::string stmt;
  bool write = false;
  bool ok = false;
  size_t rows = 0;
  double wall_us = 0.0;
  double vus = 0.0;  // virtual µs charged to the session's meter
  double cpu_us = 0.0;  // process CPU, slave threads included
  double speed = 1.0;   // kProbeRefUs / probe time around the op
};

/// The probe kernel: 1000 string-keyed std::map inserts and finds, best of
/// three, in µs.
double ProbeUs() {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < 3; ++r) {
    const Clock::time_point t0 = Clock::now();
    std::map<std::string, uint64_t> m;
    for (uint64_t i = 0; i < 1000; ++i) {
      m.emplace("key" + std::to_string(i * 7919 % 1000), i);
    }
    uint64_t sum = 0;
    for (uint64_t i = 0; i < 1000; ++i) {
      sum += m.find("key" + std::to_string(i))->second;
    }
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    if (sum == 499500) best = std::min(best, us);  // sum keeps the work live
  }
  return best;
}

/// Per-layer sums folded from each op's span tree. Self time is a span's
/// duration minus the durations of its children.
struct SpanTotals {
  double select_self_us = 0.0;       // exec.select
  double derive_lock_self_us = 0.0;  // synergy.derive_lock
  double wal_self_us = 0.0;          // txn.wal_append
  double lock_self_us = 0.0;         // txn.lock_acquire + txn.lock_release
  double body_self_us = 0.0;         // txn.body
  double slave_self_us = 0.0;        // txn.slave
  double rpc_us = 0.0;               // rpc.* leaves
  size_t read_scan_batches = 0;      // rpc.scan_batch under synergy.read
  std::vector<double> lock_wait_us;  // txn.lock_acquire durations

  void Fold(const std::vector<obs::TraceSpan>& spans, bool read) {
    std::vector<double> child_us(spans.size(), 0.0);
    for (const obs::TraceSpan& span : spans) {
      if (span.parent >= 0) {
        child_us[static_cast<size_t>(span.parent)] += span.duration_us();
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const obs::TraceSpan& span = spans[i];
      const double self_us = span.duration_us() - child_us[i];
      if (span.name == "exec.select") {
        select_self_us += self_us;
      } else if (span.name == "synergy.derive_lock") {
        derive_lock_self_us += self_us;
      } else if (span.name == "txn.wal_append") {
        wal_self_us += self_us;
      } else if (span.name == "txn.lock_acquire") {
        lock_self_us += self_us;
        lock_wait_us.push_back(span.duration_us());
      } else if (span.name == "txn.lock_release") {
        lock_self_us += self_us;
      } else if (span.name == "txn.body") {
        body_self_us += self_us;
      } else if (span.name == "txn.slave") {
        slave_self_us += self_us;
      } else if (span.name.starts_with("rpc.")) {
        rpc_us += span.duration_us();
        if (read && span.name == "rpc.scan_batch") ++read_scan_batches;
      }
    }
  }

  void Merge(const SpanTotals& o) {
    select_self_us += o.select_self_us;
    derive_lock_self_us += o.derive_lock_self_us;
    wal_self_us += o.wal_self_us;
    lock_self_us += o.lock_self_us;
    body_self_us += o.body_self_us;
    slave_self_us += o.slave_self_us;
    rpc_us += o.rpc_us;
    read_scan_batches += o.read_scan_batches;
    lock_wait_us.insert(lock_wait_us.end(), o.lock_wait_us.begin(),
                        o.lock_wait_us.end());
  }
};

/// One client thread's session, trace and samples. The trace holds the
/// session's meter address, so a Client never moves.
struct Client {
  explicit Client(hbase::Cluster* cluster)
      : session(cluster), trace(&session.meter()) {}
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  hbase::Session session;
  obs::TraceCollector trace;
  std::vector<OpSample> samples;
  SpanTotals spans;
  Clock::time_point first{};
  Clock::time_point last{};
  Clock::time_point probed{};
  double speed = 1.0;
};

/// What the op windows of a run measured, pooled over its rounds.
struct Window {
  std::vector<std::vector<OpSample>> samples;  // per client, in op order
  std::vector<double> client_wall_s;           // per client
  SpanTotals spans;                            // traced windows only
  size_t attempted = 0;
  size_t failed = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;  // process user+sys, slave threads included
  double peak_rss_mb = 0.0;
  std::vector<double> store_mb;   // Cluster::TotalBytes after each window
  double store_growth_bytes = 0;  // TotalBytes growth, summed over rounds
  // Registry counter deltas and histogram-sum deltas, by metric name.
  std::map<std::string, double> deltas;
  std::string audit_errors;  // empty when every view matched its join

  size_t completed() const { return attempted - failed; }
  double Delta(const std::string& name) const {
    const auto it = deltas.find(name);
    return it == deltas.end() ? 0.0 : it->second;
  }

  void Absorb(Window&& round) {
    samples.resize(round.samples.size());
    client_wall_s.resize(round.client_wall_s.size(), 0.0);
    for (size_t c = 0; c < round.samples.size(); ++c) {
      samples[c].insert(samples[c].end(),
                        std::make_move_iterator(round.samples[c].begin()),
                        std::make_move_iterator(round.samples[c].end()));
      client_wall_s[c] += round.client_wall_s[c];
    }
    spans.Merge(round.spans);
    attempted += round.attempted;
    failed += round.failed;
    wall_s += round.wall_s;
    cpu_s += round.cpu_s;
    peak_rss_mb = std::max(peak_rss_mb, round.peak_rss_mb);
    store_mb.insert(store_mb.end(), round.store_mb.begin(),
                    round.store_mb.end());
    store_growth_bytes += round.store_growth_bytes;
    for (const auto& [name, d] : round.deltas) deltas[name] += d;
    audit_errors += round.audit_errors;
  }
};

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Process user+sys CPU, every thread included.
double ProcessCpuUs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) * 1e-3;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Percentile q in [0, 1] of the raw samples by the mid-distribution
/// (Hazen) definition: of n sorted values the k-th sits at (k - 0.5) / n, a
/// run of tied values sits at the middle of its run, and q interpolates
/// linearly between neighbouring distinct values. Virtual costs tie often
/// (a cheap write costs the same every time); a percentile that falls
/// inside a tie run then still moves with how many ops lie on either side.
/// `failed` ops rank after every completed one; NaN when q reaches them.
double Percentile(std::vector<double> completed, size_t failed, double q) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  if (completed.empty()) return failed > 0 ? kNaN : 0.0;
  std::sort(completed.begin(), completed.end());
  const auto n = static_cast<double>(completed.size() + failed);
  double prev_x = completed.front();
  double prev_p = -1.0;
  for (size_t i = 0; i < completed.size();) {
    size_t j = i;
    while (j < completed.size() && completed[j] == completed[i]) ++j;
    const double p = (static_cast<double>(i + j) / 2.0) / n;
    if (q <= p) {
      if (prev_p < 0.0) return completed[i];
      return prev_x + (q - prev_p) / (p - prev_p) * (completed[i] - prev_x);
    }
    prev_x = completed[i];
    prev_p = p;
    i = j;
  }
  return failed > 0 ? kNaN : prev_x;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

Status RunStatement(core::SynergySystem& system, hbase::Session& s,
                    const std::string& stmt_id,
                    const std::vector<Value>& params, OpSample* op) {
  const sql::WorkloadStatement* stmt = system.workload().Find(stmt_id);
  if (stmt == nullptr) return Status::NotFound("statement " + stmt_id);
  if (const auto* sel = std::get_if<sql::SelectStatement>(&stmt->ast)) {
    SYNERGY_ASSIGN_OR_RETURN(
        query, system.ExecuteRead(s, *sel, params, /*collect_rows=*/false));
    op->rows = query.row_count;
  } else {
    op->write = true;
    SYNERGY_ASSIGN_OR_RETURN(write, system.ExecuteWrite(s, stmt->ast, params));
    op->rows = write.base_rows_affected;
  }
  return Status::Ok();
}

/// Registry counters and histogram sums, by name.
std::map<std::string, double> RegistryTotals(hbase::Cluster& cluster) {
  const obs::RegistrySnapshot snap = cluster.metrics().Snapshot();
  std::map<std::string, double> totals;
  for (const auto& row : snap.counters) {
    totals[row.name] = static_cast<double>(row.value);
  }
  for (const auto& row : snap.histograms) totals[row.name] = row.summary.sum;
  return totals;
}

/// The statements of a mix in their exact shares: every read statement
/// the same number of times, every write statement the same number of
/// times, reads read_fraction of the whole. Drawn in a seeded shuffle,
/// reshuffled whenever it runs out.
class Deck {
 public:
  Deck(const concurrent::MixConfig& mix, uint64_t seed) : rng_(seed) {
    const double reads = static_cast<double>(mix.reads.size());
    const double writes = static_cast<double>(mix.writes.size());
    // Smallest deck size k with whole copies of each statement.
    for (int k = 1; k <= 10000; ++k) {
      const double r = mix.read_fraction * k / std::max(reads, 1.0);
      const double w = (1.0 - mix.read_fraction) * k / std::max(writes, 1.0);
      if (std::abs(r - std::round(r)) < 1e-9 &&
          std::abs(w - std::round(w)) < 1e-9) {
        for (const std::string& id : mix.reads) {
          cards_.insert(cards_.end(), static_cast<size_t>(std::round(r)), id);
        }
        for (const std::string& id : mix.writes) {
          cards_.insert(cards_.end(), static_cast<size_t>(std::round(w)), id);
        }
        break;
      }
    }
    next_ = cards_.size();
  }

  const std::string& Next() {
    if (next_ == cards_.size()) {
      for (size_t i = cards_.size(); i > 1; --i) {
        std::swap(cards_[i - 1], cards_[static_cast<size_t>(rng_.Uniform(
                                     0, static_cast<int64_t>(i) - 1))]);
      }
      next_ = 0;
    }
    return cards_[next_++];
  }

 private:
  Rng rng_;
  std::vector<std::string> cards_;
  size_t next_ = 0;
};

/// Runs `ops` statements of `spec`'s mix on `inst` (closed loop, one
/// session per client), then, when `audit`, audits the views outside the
/// timed window. A single client draws from a Deck, so its statement
/// counts do not vary with the seed; several clients run
/// concurrent::RunTpcwMix, which draws each statement independently.
Window RunWindow(Instance& inst, const WorkloadSpec& spec, uint64_t seed,
                 size_t ops, bool traced, bool audit) {
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < spec.clients; ++i) {
    clients.push_back(std::make_unique<Client>(inst.cluster.get()));
    if (traced) {
      clients.back()->trace.set_rpc_spans(true);
      clients.back()->session.SetTrace(&clients.back()->trace);
    }
  }
  const size_t per_client = ops / static_cast<size_t>(spec.clients);
  for (auto& c : clients) c->samples.reserve(per_client);

  Window w;
  const size_t store_before = inst.store_bytes;
  const std::map<std::string, double> before = RegistryTotals(*inst.cluster);
  tpcw::ScaleConfig scale;
  scale.num_customers = spec.customers;
  const concurrent::DriverConfig driver{
      .threads = spec.clients, .ops_per_thread = per_client, .base_seed = seed};
  core::SynergySystem& system = *inst.system;

  const double cpu_start_us = ProcessCpuUs();
  const Clock::time_point start = Clock::now();
  const concurrent::StatementExecFn exec =
      [&](int tid, const std::string& stmt_id,
          const std::vector<Value>& params) -> StatusOr<concurrent::OpOutcome> {
        Client& c = *clients[static_cast<size_t>(tid)];
        if (Clock::now() - c.probed >= kProbeEvery) {
          c.speed = kProbeRefUs / ProbeUs();
          c.probed = Clock::now();
        }
        OpSample op;
        op.stmt = stmt_id;
        op.speed = c.speed;
        const double vus_start = c.session.meter().micros();
        const double op_cpu_us = ProcessCpuUs();
        const Clock::time_point t0 = Clock::now();
        const Status status =
            RunStatement(system, c.session, stmt_id, params, &op);
        const Clock::time_point t1 = Clock::now();
        op.cpu_us = ProcessCpuUs() - op_cpu_us;
        op.ok = status.ok();
        op.vus = c.session.meter().micros() - vus_start;
        op.wall_us = Seconds(t1 - t0) * 1e6;
        if (c.samples.empty()) c.first = t0;
        c.last = t1;
        const double vus = op.vus;
        if (traced) {
          c.spans.Fold(c.trace.spans(), !op.write);
          c.trace.Clear();
        }
        c.samples.push_back(std::move(op));
        if (!status.ok()) return status;
        return concurrent::OpOutcome(vus);
      };
  const concurrent::WorkloadReport report =
      spec.clients > 1
          ? concurrent::RunTpcwMix(driver, scale, spec.mix, exec)
          : concurrent::RunClosedLoop(
                driver, [&](int tid, uint64_t s) -> concurrent::SessionOp {
                  auto params =
                      std::make_shared<tpcw::ParamProvider>(scale, s);
                  auto deck = std::make_shared<Deck>(spec.mix, s);
                  return [&exec, tid, params, deck](size_t)
                             -> StatusOr<concurrent::OpOutcome> {
                    const std::string& id = deck->Next();
                    SYNERGY_ASSIGN_OR_RETURN(bound, params->ParamsFor(id));
                    return exec(tid, id, bound);
                  };
                });
  w.wall_s = Seconds(Clock::now() - start);
  w.cpu_s = (ProcessCpuUs() - cpu_start_us) / 1e6;
  w.peak_rss_mb = PeakRssMb();
  w.attempted = report.total_offered;
  w.failed = report.total_errors;
  if (!report.first_error.ok()) {
    std::fprintf(stderr, "first failed op: %s\n",
                 report.first_error.ToString().c_str());
  }
  for (const auto& [name, total] : RegistryTotals(*inst.cluster)) {
    const auto it = before.find(name);
    w.deltas[name] = total - (it == before.end() ? 0.0 : it->second);
  }
  inst.store_bytes = inst.cluster->TotalBytes();
  w.store_mb.push_back(static_cast<double>(inst.store_bytes) / kBytesPerMb);
  w.store_growth_bytes = static_cast<double>(inst.store_bytes) -
                         static_cast<double>(store_before);
  for (auto& c : clients) {
    w.client_wall_s.push_back(c->samples.empty() ? 0.0
                                                 : Seconds(c->last - c->first));
    w.spans.Merge(c->spans);
    w.samples.push_back(std::move(c->samples));
  }

  std::fprintf(stderr, "%s window: %zu ops in %.3f s\n",
               traced ? "traced" : "untraced", w.attempted, w.wall_s);
  if (!audit) return w;
  hbase::Session session(inst.cluster.get());
  StatusOr<core::ViewAuditReport> audited =
      core::AuditViewConsistency(session, system.adapter());
  if (!audited.ok()) {
    w.audit_errors = audited.status().ToString() + "\n";
  } else if (!audited->consistent()) {
    w.audit_errors = audited->ToString();
  }
  return w;
}

StatusOr<std::unique_ptr<Instance>> SetUpLogged(const WorkloadSpec& spec) {
  tpcw::ScaleConfig scale;
  scale.num_customers = spec.customers;
  SYNERGY_ASSIGN_OR_RETURN(inst, SetUp(scale, spec.slaves));
  std::fprintf(stderr, "setup %.3f s (%zu tuples, store %.1f MB)\n",
               inst->times.total_s, inst->times.tuples,
               static_cast<double>(inst->store_bytes) / kBytesPerMb);
  return std::move(inst);
}

/// One pass: spec.rounds fresh instances set up one after another, each
/// running ops / rounds statements. Appends every set-up's times. With
/// `reuse`, the pass runs its ops on that instance instead (one round).
StatusOr<Window> RunPass(const WorkloadSpec& spec, uint64_t seed, size_t ops,
                         bool traced, bool audit,
                         std::vector<SetupTimes>* times,
                         Instance* reuse = nullptr) {
  if (reuse != nullptr) {
    return RunWindow(*reuse, spec, seed, ops, traced, audit);
  }
  Window pooled;
  for (int round = 0; round < spec.rounds; ++round) {
    SYNERGY_ASSIGN_OR_RETURN(inst, SetUpLogged(spec));
    times->push_back(inst->times);
    // Round 0 runs the run's own seed; later rounds draw fresh sequences.
    const uint64_t round_seed =
        seed + static_cast<uint64_t>(round) * 0x9E3779B97F4A7C15ULL;
    pooled.Absorb(RunWindow(*inst, spec, round_seed,
                            ops / static_cast<size_t>(spec.rounds), traced,
                            audit));
  }
  return pooled;
}

/// Completed-op wall (speed-scaled) and virtual latencies of one class (or
/// all ops).
struct Latencies {
  std::vector<double> wall_us;
  std::vector<double> vms;
  size_t failed = 0;
};

enum class OpClass { kAll, kRead, kWrite };

Latencies Collect(const Window& w, OpClass cls) {
  Latencies l;
  for (const auto& client : w.samples) {
    for (const OpSample& op : client) {
      if ((cls == OpClass::kRead && op.write) ||
          (cls == OpClass::kWrite && !op.write)) {
        continue;
      }
      if (!op.ok) {
        ++l.failed;
        continue;
      }
      l.wall_us.push_back(op.wall_us * op.speed);
      // Whole virtual nanoseconds: the meter's float sums differ in the
      // last bits from op to op, which would split ties that are real.
      l.vms.push_back(std::round(op.vus * 1000.0) / 1e6);
    }
  }
  return l;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Shortest round-trip decimal form; JSON has no NaN, so NaN prints null.
std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0.0;
  bool trace = false;
  std::string rev = "unknown";
};

std::optional<Options> ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      o.trace = val == "1";
    } else if (key == "--rev") {
      o.rev = val;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || o.workload.empty() || !(o.seconds > 0.0)) {
    return std::nullopt;
  }
  return o;
}

/// What produced a result: printed before it and written with the samples.
std::string Provenance(const Options& o, const WorkloadSpec& spec,
                       size_t ops, int passes) {
  const tpcw::ScaleConfig defaults;
  return "{\"git_rev\": \"" + o.rev + "\", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"workload\": \"" + spec.name + "\", \"customers\": " +
         std::to_string(spec.customers) + ", \"data_seed\": " +
         std::to_string(defaults.seed) + ", \"seed\": " +
         std::to_string(o.seed) + ", \"clients\": " +
         std::to_string(spec.clients) + ", \"slaves\": " +
         std::to_string(spec.slaves) +
         ", \"ops_per_pass\": " + std::to_string(ops) +
         ", \"passes\": " + std::to_string(passes) +
         ", \"rounds\": " + std::to_string(spec.rounds) +
         ", \"trace\": " + (o.trace ? "1" : "0") + "}";
}

/// Writes every raw op sample of `windows` as TSV under .bench_out/.
void WriteSamples(const Options& o, const std::string& provenance,
                  const std::vector<std::pair<std::string, const Window*>>&
                      windows) {
  std::filesystem::create_directories(".bench_out");
  const std::string path = ".bench_out/" + o.workload + "-seed" +
                           std::to_string(o.seed) + "-trace" +
                           (o.trace ? "1" : "0") + ".tsv";
  std::ofstream f(path);
  f << "# " << provenance << "\n"
    << "window\tclient\top\tstmt\tclass\tok\trows\twall_us\tcpu_us\tvus"
       "\tspeed\n";
  for (const auto& [name, w] : windows) {
    for (size_t c = 0; c < w->samples.size(); ++c) {
      for (size_t i = 0; i < w->samples[c].size(); ++i) {
        const OpSample& op = w->samples[c][i];
        f << name << '\t' << c << '\t' << i << '\t' << op.stmt << '\t'
          << (op.write ? "write" : "read") << '\t' << op.ok << '\t' << op.rows
          << '\t' << FormatNumber(op.wall_us) << '\t'
          << FormatNumber(op.cpu_us) << '\t' << FormatNumber(op.vus) << '\t'
          << FormatNumber(op.speed) << '\n';
      }
    }
  }
  std::fprintf(stderr, "samples: %s\n", path.c_str());
}

bool ReportAudit(const char* label, const Window& w) {
  if (w.audit_errors.empty()) return true;
  std::fprintf(stderr, "%s view audit failed:\n%s\n", label,
               w.audit_errors.c_str());
  return false;
}

int SetupFailed(const Status& s) {
  std::fprintf(stderr, "setup failed: %s\n", s.ToString().c_str());
  return 1;
}

/// True when the two runs executed the same ops with the same outcomes:
/// per-op (statement, rows, virtual µs) and the final store size for
/// single-client workloads; op and failure counts only for concurrent
/// ones, whose interleaving is up to the scheduler.
bool SameRun(const WorkloadSpec& spec, const Window& a, const Window& b) {
  if (a.attempted != b.attempted || a.failed != b.failed) {
    std::fprintf(stderr,
                 "same-seed runs differ: %zu/%zu vs %zu/%zu ops/failed\n",
                 a.attempted, a.failed, b.attempted, b.failed);
    return false;
  }
  if (spec.clients > 1) return true;
  const std::vector<OpSample>& x = a.samples[0];
  const std::vector<OpSample>& y = b.samples[0];
  if (x.size() != y.size()) {
    std::fprintf(stderr, "same-seed runs differ: %zu vs %zu samples\n",
                 x.size(), y.size());
    return false;
  }
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i].stmt != y[i].stmt || x[i].rows != y[i].rows ||
        x[i].vus != y[i].vus || x[i].ok != y[i].ok) {
      std::fprintf(stderr,
                   "same-seed runs differ at op %zu: %s rows %zu %.17g us vs "
                   "%s rows %zu %.17g us\n",
                   i, x[i].stmt.c_str(), x[i].rows, x[i].vus,
                   y[i].stmt.c_str(), y[i].rows, y[i].vus);
      return false;
    }
  }
  if (a.store_mb != b.store_mb) {
    std::fprintf(stderr,
                 "same-seed runs end with store %.17g MB vs %.17g MB\n",
                 b.store_mb.back(), a.store_mb.back());
    return false;
  }
  return true;
}

/// Speed-scaled wall latencies of the ops that completed in every pass,
/// each the op's minimum over the passes: interference that the probe
/// misses only ever slows an op down, so the minimum is the least disturbed
/// reading of it. Also sums each client's minimum wall times and every
/// op's minimum (speed-scaled) CPU time.
Latencies MinPerOp(const std::vector<Window>& passes,
                   std::vector<double>* client_us, double* cpu_us) {
  Latencies l;
  const Window& first = passes.front();
  for (size_t c = 0; c < first.samples.size(); ++c) {
    double busy_us = 0.0;
    for (size_t i = 0; i < first.samples[c].size(); ++i) {
      double wall_us = std::numeric_limits<double>::infinity();
      double op_cpu_us = wall_us;
      bool ok = true;
      for (const Window& p : passes) {
        if (c >= p.samples.size() || i >= p.samples[c].size() ||
            !p.samples[c][i].ok) {
          ok = false;
          break;
        }
        const OpSample& op = p.samples[c][i];
        wall_us = std::min(wall_us, op.wall_us * op.speed);
        op_cpu_us = std::min(op_cpu_us, op.cpu_us * op.speed);
      }
      if (!ok) {
        ++l.failed;
        continue;
      }
      l.wall_us.push_back(wall_us);
      busy_us += wall_us;
      *cpu_us += op_cpu_us;
    }
    client_us->push_back(busy_us);
  }
  return l;
}

/// --trace 0: spec.passes passes of the same ops; end-to-end metrics.
int RunEndToEnd(const Options& o, const WorkloadSpec& spec, size_t ops,
                const std::string& provenance) {
  std::vector<SetupTimes> times;
  const bool read_only = spec.mix.writes.empty();
  // Reads leave the store as loaded (checked below), so a read-only
  // workload sets up kSetups instances, replays every pass on the last and
  // audits after the last pass only.
  std::unique_ptr<Instance> shared;
  for (int i = 0; read_only && i < kSetups; ++i) {
    shared.reset();
    StatusOr<std::unique_ptr<Instance>> made = SetUpLogged(spec);
    if (!made.ok()) return SetupFailed(made.status());
    shared = std::move(*made);
    times.push_back(shared->times);
  }
  std::vector<Window> passes;
  bool correct = true;
  for (int p = 0; p < spec.passes; ++p) {
    const bool audit = !read_only || p == spec.passes - 1;
    StatusOr<Window> pass =
        RunPass(spec, o.seed, ops, false, audit, &times, shared.get());
    if (!pass.ok()) return SetupFailed(pass.status());
    correct = ReportAudit("end-to-end", *pass) && correct;
    if (spec.mix.writes.empty() && pass->store_growth_bytes != 0.0) {
      std::fprintf(stderr, "read-only window changed the store size\n");
      correct = false;
    }
    if (p > 0) correct = SameRun(spec, passes.front(), *pass) && correct;
    passes.push_back(std::move(*pass));
  }

  std::vector<double> setup_s;
  for (const SetupTimes& t : times) setup_s.push_back(t.total_s);
  std::vector<double> client_us;
  double cpu_us = 0.0;
  const Latencies wall = MinPerOp(passes, &client_us, &cpu_us);
  const auto done = static_cast<double>(wall.wall_us.size());
  // Several clients' ops overlap, so their CPU is only known per pass.
  double pass_cpu_s = std::numeric_limits<double>::infinity();
  Latencies virt;
  std::vector<double> store_mb;
  for (const Window& w : passes) {
    store_mb.insert(store_mb.end(), w.store_mb.begin(), w.store_mb.end());
    pass_cpu_s = std::min(pass_cpu_s, w.cpu_s);
    Latencies v = Collect(w, OpClass::kAll);
    virt.vms.insert(virt.vms.end(), v.vms.begin(), v.vms.end());
    virt.failed += v.failed;
  }
  double vms_sum = 0.0;
  for (double v : virt.vms) vms_sum += v;
  const std::vector<Metric> metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", passes.back().peak_rss_mb, "MB"},
      {"store_mb", Median(store_mb), "MB"},
      {"ops_per_s",
       Ratio(done * 1e6, *std::max_element(client_us.begin(), client_us.end())),
       "ops/s"},
      {"wall_us_p50", Percentile(wall.wall_us, wall.failed, 0.50), "us"},
      {"wall_us_p99", Percentile(wall.wall_us, wall.failed, 0.99), "us"},
      {"cpu_us_per_op",
       spec.clients == 1
           ? Ratio(cpu_us, done)
           : Ratio(pass_cpu_s * 1e6,
                   static_cast<double>(passes.back().completed())),
       "us"},
      {"vms_mean", Ratio(vms_sum, static_cast<double>(virt.vms.size())),
       "ms"},
      {"vms_p50", Percentile(virt.vms, virt.failed, 0.50), "ms"},
      {"vms_p99", Percentile(virt.vms, virt.failed, 0.99), "ms"},
  };
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) correct = false;
  }
  std::vector<std::pair<std::string, const Window*>> windows;
  for (size_t p = 0; p < passes.size(); ++p) {
    windows.emplace_back("pass" + std::to_string(p), &passes[p]);
  }
  WriteSamples(o, provenance, windows);
  size_t attempted = 0;
  size_t failed = 0;
  for (const Window& w : passes) {
    attempted += w.attempted;
    failed += w.failed;
  }
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

/// --trace 1: one pass untraced, then the same pass traced; per-layer
/// metrics from both.
int RunTraced(const Options& o, const WorkloadSpec& spec, size_t ops,
              const std::string& provenance) {
  tpcw::ScaleConfig scale;
  scale.num_customers = spec.customers;
  const Clock::time_point gen_start = Clock::now();
  const Status generated = tpcw::GenerateDatabase(
      scale,
      [](const std::string&, const exec::Tuple&) { return Status::Ok(); });
  const double gen_s = Seconds(Clock::now() - gen_start);
  if (!generated.ok()) return SetupFailed(generated);

  std::vector<SetupTimes> times;
  StatusOr<Window> plain_run =
      RunPass(spec, o.seed, ops, false, true, &times);
  if (!plain_run.ok()) return SetupFailed(plain_run.status());
  StatusOr<Window> traced_run =
      RunPass(spec, o.seed, ops, true, true, &times);
  if (!traced_run.ok()) return SetupFailed(traced_run.status());
  const Window& plain = *plain_run;
  const Window& traced = *traced_run;

  bool correct = ReportAudit("untraced", plain);
  correct = ReportAudit("traced", traced) && correct;
  correct = SameRun(spec, plain, traced) && correct;

  const SetupTimes& setup = times.front();
  const Latencies reads = Collect(plain, OpClass::kRead);
  const Latencies writes = Collect(plain, OpClass::kWrite);
  const auto n_ops = static_cast<double>(traced.completed());
  const auto n_reads =
      static_cast<double>(Collect(traced, OpClass::kRead).vms.size());
  const auto n_writes =
      static_cast<double>(Collect(traced, OpClass::kWrite).vms.size());
  const SpanTotals& sp = traced.spans;
  auto wall_per_op = [](const Window& w) {
    double sum = 0.0;
    for (const auto& client : w.samples) {
      for (const OpSample& op : client) sum += op.wall_us * op.speed;
    }
    return Ratio(sum, static_cast<double>(w.attempted));
  };
  const double store_mb = Median(traced.store_mb);
  const auto [min_wall, max_wall] = std::minmax_element(
      plain.client_wall_s.begin(), plain.client_wall_s.end());

  const std::vector<Metric> metrics = {
      {"tpcw.gen_s", gen_s, "s"},
      {"synergy.build_s", setup.build_s, "s"},
      {"synergy.load_s", setup.load_s, "s"},
      {"synergy.read_wall_us_p50",
       Percentile(reads.wall_us, reads.failed, 0.50), "us"},
      {"synergy.read_wall_us_p99",
       Percentile(reads.wall_us, reads.failed, 0.99), "us"},
      {"synergy.read_vms_p50", Percentile(reads.vms, reads.failed, 0.50),
       "ms"},
      {"synergy.read_vms_p99", Percentile(reads.vms, reads.failed, 0.99),
       "ms"},
      {"synergy.write_wall_us_p50",
       Percentile(writes.wall_us, writes.failed, 0.50), "us"},
      {"synergy.write_wall_us_p99",
       Percentile(writes.wall_us, writes.failed, 0.99), "us"},
      {"synergy.write_vms_p50", Percentile(writes.vms, writes.failed, 0.50),
       "ms"},
      {"synergy.write_vms_p99", Percentile(writes.vms, writes.failed, 0.99),
       "ms"},
      {"synergy.view_rows_per_write",
       Ratio(traced.Delta("synergy_view_rows_updated_total"), n_writes),
       "rows"},
      {"synergy.derive_lock_vus_per_write",
       Ratio(sp.derive_lock_self_us, n_writes), "us"},
      {"exec.select_self_vus_per_read", Ratio(sp.select_self_us, n_reads),
       "us"},
      {"exec.dirty_restarts_per_read",
       Ratio(traced.Delta("exec_dirty_restarts_total"), n_reads), "count"},
      {"hbase.rpcs_per_op", Ratio(traced.Delta("hbase_rpcs_total"), n_ops),
       "count"},
      {"hbase.rpc_vus_per_op", Ratio(sp.rpc_us, n_ops), "us"},
      {"hbase.scan_batches_per_read",
       Ratio(static_cast<double>(sp.read_scan_batches), n_reads), "count"},
      {"hbase.load_rpcs_per_tuple",
       Ratio(static_cast<double>(setup.load_rpcs),
             static_cast<double>(setup.tuples)),
       "count"},
      {"hbase.compact_s", setup.compact_s, "s"},
      {"hbase.rss_over_store", Ratio(traced.peak_rss_mb, store_mb), "ratio"},
      {"hbase.store_kb_per_write",
       Ratio(traced.store_growth_bytes / 1024.0, n_writes), "KB"},
      {"hbase.admission_wait_us_mean",
       Ratio(traced.Delta("hbase_admission_queue_wait_us"), n_ops), "us"},
      {"txn.wal_vus_per_write", Ratio(sp.wal_self_us, n_writes), "us"},
      {"txn.lock_vus_per_write", Ratio(sp.lock_self_us, n_writes), "us"},
      {"txn.body_vus_per_write", Ratio(sp.body_self_us, n_writes), "us"},
      {"txn.slave_self_vus_per_write", Ratio(sp.slave_self_us, n_writes),
       "us"},
      {"txn.wal_appends_per_write",
       Ratio(traced.Delta("txn_wal_appends_total"), n_writes), "count"},
      {"txn.lock_acquire_ratio",
       Ratio(traced.Delta("txn_lock_acquires_total"),
             traced.Delta("txn_lock_acquire_attempts_total")),
       "ratio"},
      {"txn.lock_wait_us_p99", Percentile(sp.lock_wait_us, 0, 0.99), "us"},
      {"concurrent.client_wall_spread", Ratio(*max_wall, *min_wall), "ratio"},
      {"concurrent.cpu_per_wall", Ratio(plain.cpu_s, plain.wall_s), "ratio"},
      {"obs.trace_overhead_pct",
       (Ratio(wall_per_op(traced), wall_per_op(plain)) - 1.0) * 100.0, "%"},
  };
  WriteSamples(o, provenance, {{"untraced", &plain}, {"traced", &traced}});
  PrintResult(correct, plain.attempted + traced.attempted,
              plain.failed + traced.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace synbench

int main(int argc, char** argv) {
  using namespace synbench;
  const std::optional<Options> options = ParseArgs(argc, argv);
  if (!options.has_value()) {
    std::fprintf(stderr,
                 "usage: synbench --workload browse|order|contended --seed N "
                 "--seconds S [--trace 0|1] [--rev REV]\n");
    return 2;
  }
  const std::optional<WorkloadSpec> spec = FindWorkload(options->workload);
  if (!spec.has_value()) {
    std::fprintf(stderr, "unknown workload %s\n", options->workload.c_str());
    return 2;
  }
  // The run's op budget split over the passes, in whole ops per client per
  // round, so every client runs the same count.
  const auto unit = static_cast<size_t>(spec->clients * spec->rounds);
  const auto budget = static_cast<size_t>(spec->ops_per_s * options->seconds);
  const auto passes = static_cast<size_t>(spec->passes);
  const size_t ops = std::max<size_t>(unit, budget / passes / unit * unit);
  const int passes_run = options->trace ? 2 : spec->passes;
  // Run on one CPU per client. A client waits on its txn slave, so one of
  // the two runs at a time; kept on few CPUs, their handoffs mostly wake a
  // busy CPU rather than an idle one, whose wakeup latency swings with host
  // load. Two clients need two CPUs to collide on locks at all. Threads
  // started later (drivers, txn slaves) inherit the mask.
  const int cpu = sched_getcpu();
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (cpu >= 0 && sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    cpu_set_t pinned;
    CPU_ZERO(&pinned);
    int n = 0;
    for (int i = 0; i < CPU_SETSIZE && n < spec->clients; ++i) {
      const int c = (cpu + i) % CPU_SETSIZE;
      if (CPU_ISSET(c, &allowed)) {
        CPU_SET(c, &pinned);
        ++n;
      }
    }
    sched_setaffinity(0, sizeof(pinned), &pinned);
  }
  const std::string provenance = Provenance(*options, *spec, ops, passes_run);
  std::printf("{\"provenance\": %s}\n", provenance.c_str());
  return options->trace ? RunTraced(*options, *spec, ops, provenance)
                        : RunEndToEnd(*options, *spec, ops, provenance);
}
