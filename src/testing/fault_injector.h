// Deterministic fault-injection layer for the txn/view stack.
//
// Subsystems expose *named fault points* (slave crashes at specific steps of
// the write protocol, region RPC loss, WAL append failure, dropped lock
// releases) and consult a shared FaultInjector at each one. Tests arm the
// points with a *schedule*: either deterministic ("let N hits pass, then
// fire K times") or probabilistic (fire with probability p, drawn from a
// seeded RNG). Given the same seed and the same sequence of fault-point
// hits, a schedule fires at exactly the same places, so every chaos run is
// replayable from a single integer (see docs/TESTING.md).
//
// The injector is passive when no rules are armed and absent (nullptr) in
// production paths, so the hooks cost one branch on the hot path.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace synergy::fault {

/// Every named fault point in the system. Keep FaultPointName in sync.
enum class FaultPoint : int {
  /// Slave dies after appending to its WAL, before acquiring the root lock.
  /// Recovery replays the entry; no lock is orphaned.
  kCrashAfterWalAppend = 0,
  /// Slave dies holding the root lock, before executing the body. The lock
  /// is intentionally leaked (§VIII-C read-committed across failures).
  kCrashBeforeExecute,
  /// The lock-release RPC is lost after the body executed; the slave dies
  /// holding the lock with its WAL entry uncommitted. Recovery re-executes
  /// the body (which must be idempotent) and releases the lock.
  kDropLockRelease,
  /// A store RPC (Put/Get/Delete/CheckAndPut/Increment/Scan) fails before
  /// reaching the region: the request is lost, nothing is applied.
  kRegionRpcFailure,
  /// A mutating store RPC (Put/Delete) is applied by the region but the
  /// acknowledgement is lost: the client sees an error for work that
  /// happened. Never injected on CheckAndPut/Increment, whose effects are
  /// not idempotent and would make the ambiguity unrecoverable.
  kRegionRpcAckLost,
  /// The WAL append itself fails (simulated HDFS hiccup); the write is
  /// rejected before any state changed.
  kWalAppendFailure,
  /// A whole region server crashes: its regions lose their memstores (the
  /// edits since the last flush) and the failover layer must detect the
  /// loss, reassign the regions and replay their region-WAL tails. Consulted per live server on each heartbeat round;
  /// filter with FaultRule::server_id to target one server.
  kRegionServerCrash,
  /// A live server's heartbeat is lost for one round: the server keeps its
  /// data but the membership layer sees it as silent. Enough consecutive
  /// losses expire the lease and the server is fenced (regions move without
  /// replay — the store is intact, so replaying would duplicate versions).
  kHeartbeatLoss,
  /// A store RPC times out before reaching the region (lost in flight,
  /// nothing applied) — same recovery contract as region-rpc-failure but
  /// surfaced with a timeout message so retry taxonomies can distinguish it.
  kRpcTimeout,
  /// Forces the §VIII-C dirty-read detection path: a scanned row is treated
  /// as dirty, aborting the statement so the executor's restart loop runs.
  /// Surfaces as kAborted (not kUnavailable) — the only point that does.
  kDirtyReadRestart,
  /// A burst of synthetic load slams the serving region server: the
  /// admission controller is told to account `burst_ops` phantom in-flight
  /// operations against it, which drain one per completed real op (or per
  /// shed decision, so oversized bursts clear instead of wedging the
  /// server). Real traffic behind the burst queues or is shed
  /// (kResourceExhausted) until the burst drains. Only has an effect when
  /// admission control is enabled; the burst lands before the triggering
  /// RPC's own admission decision, so that op already feels it.
  kOverloadBurst,
};

inline constexpr int kNumFaultPoints = 11;

/// Stable, kebab-case name used in schedules, logs and docs.
const char* FaultPointName(FaultPoint point);
std::optional<FaultPoint> FaultPointFromName(std::string_view name);

/// Where a fault-point hit happened; rules can filter on it. RPC-level
/// points carry the store table and serving region server; txn-level points
/// leave the defaults.
struct FaultSite {
  std::string_view table = {};
  int server_id = -1;
};

/// One armed schedule entry. Eligible hits are those matching the point and
/// the table/server filters; of these, the first `skip_hits` pass, then each
/// fires with `probability` until `max_fires` faults have been injected.
struct FaultRule {
  FaultPoint point = FaultPoint::kRegionRpcFailure;
  double probability = 1.0;
  int skip_hits = 0;
  int max_fires = -1;        // -1 = unlimited
  std::string table_prefix;  // empty = any table ("__lock_" targets locks)
  int server_id = -1;        // -1 = any region server
};

class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed) : seed_(seed), rng_(seed) {}

  uint64_t seed() const { return seed_; }

  void AddRule(FaultRule rule);
  /// Deterministic shorthand: let `skip_hits` eligible hits pass, then fire
  /// on the next `max_fires` hits.
  void Arm(FaultPoint point, int skip_hits = 0, int max_fires = 1);
  void Disarm(FaultPoint point);
  void DisarmAll();

  /// Consulted by instrumented code at each fault-point hit. Advances every
  /// matching rule and returns true if any of them fires.
  bool ShouldFire(FaultPoint point, const FaultSite& site = {});

  /// The error an injected fault surfaces as (always kUnavailable, message
  /// prefixed "injected fault:" with the point name).
  Status InjectedFault(FaultPoint point) const;

  int64_t HitCount(FaultPoint point) const;
  int64_t FireCount(FaultPoint point) const;
  int64_t TotalFires() const;
  /// Per-point hits/fires summary for failure messages.
  std::string Report() const;

 private:
  struct ArmedRule {
    FaultRule rule;
    int64_t hits_seen = 0;
    int fires = 0;
  };

  uint64_t seed_;
  mutable std::mutex mutex_;
  Rng rng_;
  std::vector<ArmedRule> rules_;
  std::array<int64_t, kNumFaultPoints> hits_{};
  std::array<int64_t, kNumFaultPoints> fires_{};
};

/// True if `status` came from FaultInjector::InjectedFault.
bool IsInjectedFault(const Status& status);

// ---- Seeded-replay helpers (shared by the randomized test suites) ----

/// SYNERGY_TEST_SEED as an integer, or `default_seed` when unset/invalid.
/// Failing randomized tests print their seed; exporting it replays the run.
uint64_t TestSeedFromEnv(uint64_t default_seed);

/// The default seed list, or the single SYNERGY_TEST_SEED override when set
/// (so a whole parameterized suite collapses to the failing instance).
std::vector<uint64_t> TestSeedsFromEnv(std::vector<uint64_t> defaults);

/// SYNERGY_CHAOS_ITERS as a >=1 iteration multiplier (default 1). The
/// scheduled CI job sets this to run the chaos suite at larger counts.
int ChaosScaleFromEnv();

}  // namespace synergy::fault
