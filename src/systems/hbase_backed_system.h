// The client path shared by the four HBase-backed systems (Synergy and the
// three Phoenix+Tephra systems): every statement runs on an hbase::Session,
// and its virtual cost and store work are read off that session.
#pragma once

#include <memory>
#include <optional>

#include "hbase/cluster.h"
#include "systems/evaluated_system.h"

namespace synergy::systems {

class HBaseBackedSystem : public EvaluatedSystem {
 public:
  /// ExecuteOpen on a fresh client, so no session state carries over from
  /// earlier statements.
  StatusOr<StatementResult> Execute(
      const std::string& stmt_id, const std::vector<Value>& params) override;
  double DbSizeBytes() const override;
  std::string MetricsJson() const override;

  /// Installed on the session of every client made afterwards, so RPC and
  /// root-txn retries engage for every statement.
  void SetRetryPolicy(const hbase::RetryPolicy& policy) override {
    retry_policy_ = policy;
  }

  /// A client holds one Session for its lifetime, so the policy's retry
  /// budget and circuit breaker accumulate state across statements.
  std::unique_ptr<Client> MakeClient() override;
  /// `client` must come from this system's MakeClient. The statement's cost
  /// and counts are the growth of the session's meter and counts().
  StatementOutcome ExecuteOpen(Client* client, const std::string& stmt_id,
                               const std::vector<Value>& params) override;

  hbase::Cluster* cluster() { return cluster_.get(); }

 protected:
  /// The statement body: charges all its work to `s` and sets `*rows` on
  /// success.
  virtual Status RunStatement(hbase::Session& s, const std::string& stmt_id,
                              const std::vector<Value>& params,
                              size_t* rows) = 0;

  std::unique_ptr<hbase::Cluster> cluster_;

 private:
  std::optional<hbase::RetryPolicy> retry_policy_;
};

}  // namespace synergy::systems
