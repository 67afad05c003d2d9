// The five systems of the paper's evaluation (§IX-D2, Fig. 13) behind one
// interface: VoltDB, Synergy, MVCC-A, MVCC-UA and Baseline.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "common/value.h"
#include "hbase/retry_policy.h"
#include "tpcw/generator.h"

namespace synergy::systems {

struct StatementResult {
  double virtual_ms = 0;
  size_t rows = 0;
  bool supported = true;  // false: join not expressible (VoltDB)
  OpCounts counts;        // store work the statement did (incl. retries)
};

/// One statement execution with the cost-even-on-error semantics open-loop
/// accounting needs: `result` (virtual time spent, store work counts) is
/// valid whether or not `status` is OK, because a failed statement still
/// occupied the client while it failed.
struct StatementOutcome {
  Status status;
  StatementResult result;
};

class EvaluatedSystem {
 public:
  virtual ~EvaluatedSystem() = default;

  virtual const std::string& name() const = 0;

  /// Builds schema (+ views where applicable), creates storage, populates
  /// the TPC-W database and major-compacts.
  virtual Status Setup(const tpcw::ScaleConfig& scale) = 0;

  /// Executes one workload statement by id with bound parameters and
  /// returns its simulated response time.
  virtual StatusOr<StatementResult> Execute(
      const std::string& stmt_id, const std::vector<Value>& params) = 0;

  /// Total storage footprint (Table III).
  virtual double DbSizeBytes() const = 0;

  /// One-line description of the views + concurrency mechanisms (Fig. 13).
  virtual std::string Description() const = 0;

  /// Names of materialized views the system created (diagnostics).
  virtual std::vector<std::string> ViewNames() const { return {}; }

  /// JSON snapshot of the system's metrics registry (obs::MetricsRegistry),
  /// embedded into committed bench-result rows. Empty for systems without a
  /// live cluster (VoltDB's analytical model).
  virtual std::string MetricsJson() const { return ""; }

  /// Arms client-side RPC retries for subsequent Execute calls. Default is
  /// a no-op: systems without a retrying client path just run un-retried,
  /// which is also the correct behaviour for deterministic fault tests.
  virtual void SetRetryPolicy(const hbase::RetryPolicy&) {}

  /// Opaque persistent per-client state for open-loop runs: a live session
  /// whose retry budget and circuit breaker survive across statements (a
  /// breaker that resets every statement could never trip).
  class Client {
   public:
    virtual ~Client() = default;
  };

  /// Creates a persistent client, or nullptr when the system has none
  /// (ExecuteOpen then falls back to per-statement Execute).
  virtual std::unique_ptr<Client> MakeClient() { return nullptr; }

  /// Executes one statement for an open-loop client. Unlike Execute, the
  /// returned outcome carries the virtual cost even when the statement
  /// failed. The default adapts Execute (with zero cost on error — systems
  /// without a persistent client cannot recover the partial cost).
  virtual StatementOutcome ExecuteOpen(Client* client,
                                       const std::string& stmt_id,
                                       const std::vector<Value>& params);
};

enum class SystemKind { kVoltDb, kSynergy, kMvccA, kMvccUA, kBaseline };

const char* SystemKindName(SystemKind kind);
std::unique_ptr<EvaluatedSystem> MakeSystem(SystemKind kind);

/// All five, in the paper's figure order.
std::vector<SystemKind> AllSystemKinds();
/// The four HBase-backed systems (VoltDB excluded, as in Table II).
std::vector<SystemKind> HBaseBackedKinds();

}  // namespace synergy::systems
