#include "systems/hbase_backed_system.h"

namespace synergy::systems {
namespace {

struct SessionClient : public EvaluatedSystem::Client {
  explicit SessionClient(hbase::Cluster* cluster) : session(cluster) {}
  hbase::Session session;
};

}  // namespace

StatusOr<StatementResult> HBaseBackedSystem::Execute(
    const std::string& stmt_id, const std::vector<Value>& params) {
  const std::unique_ptr<Client> client = MakeClient();
  StatementOutcome out = ExecuteOpen(client.get(), stmt_id, params);
  SYNERGY_RETURN_IF_ERROR(out.status);
  return out.result;
}

double HBaseBackedSystem::DbSizeBytes() const {
  return static_cast<double>(cluster_->TotalBytes());
}

std::string HBaseBackedSystem::MetricsJson() const {
  return cluster_ != nullptr ? cluster_->metrics().Snapshot().ToJson() : "";
}

std::unique_ptr<EvaluatedSystem::Client> HBaseBackedSystem::MakeClient() {
  auto client = std::make_unique<SessionClient>(cluster_.get());
  if (retry_policy_.has_value()) {
    client->session.SetRetryPolicy(*retry_policy_);
  }
  return client;
}

StatementOutcome HBaseBackedSystem::ExecuteOpen(
    Client* client, const std::string& stmt_id,
    const std::vector<Value>& params) {
  hbase::Session& s = static_cast<SessionClient*>(client)->session;
  const double start_ms = s.meter().millis();
  const OpCounts start = s.counts();
  StatementOutcome out;
  out.status = RunStatement(s, stmt_id, params, &out.result.rows);
  out.result.virtual_ms = s.meter().millis() - start_ms;
  out.result.counts = s.counts() - start;
  return out;
}

}  // namespace synergy::systems
