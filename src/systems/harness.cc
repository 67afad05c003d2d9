#include "systems/harness.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace synergy::systems {

Measurement MeasureStatement(EvaluatedSystem& system,
                             tpcw::ParamProvider& params,
                             const std::string& stmt_id, int reps) {
  Measurement m;
  for (int i = 0; i < reps; ++i) {
    StatusOr<std::vector<Value>> p = params.ParamsFor(stmt_id);
    if (!p.ok()) {
      m.error = p.status();
      return m;
    }
    StatusOr<StatementResult> r = system.Execute(stmt_id, *p);
    if (!r.ok()) {
      m.error = r.status();
      return m;
    }
    if (!r->supported) {
      m.supported = false;
      return m;
    }
    m.rt_ms.Add(r->virtual_ms);
    m.rows = r->rows;
  }
  return m;
}

concurrent::WorkloadReport MeasureConcurrent(EvaluatedSystem& system,
                                             const tpcw::ScaleConfig& scale,
                                             const concurrent::MixConfig& mix,
                                             int threads,
                                             size_t ops_per_thread,
                                             uint64_t base_seed) {
  concurrent::DriverConfig driver;
  driver.threads = threads;
  driver.ops_per_thread = ops_per_thread;
  driver.base_seed = base_seed;
  return concurrent::RunTpcwMix(
      driver, scale, mix,
      [&system](int, const std::string& stmt_id,
                const std::vector<Value>& params)
          -> StatusOr<concurrent::OpOutcome> {
        SYNERGY_ASSIGN_OR_RETURN(r, system.Execute(stmt_id, params));
        if (!r.supported) {
          return Status::Unimplemented("statement " + stmt_id +
                                       " unsupported by " + system.name());
        }
        // Cost is reported in virtual µs, alongside the store work counts.
        return concurrent::OpOutcome(r.virtual_ms * 1000.0, r.counts);
      });
}

concurrent::WorkloadReport MeasureOpenLoop(EvaluatedSystem& system,
                                           const tpcw::ScaleConfig& scale,
                                           const concurrent::MixConfig& mix,
                                           const concurrent::OpenLoopConfig&
                                               config) {
  return concurrent::RunTpcwMixOpenLoop(
      config, scale, mix,
      [&system](int) -> concurrent::OpenStatementExecFn {
        // One persistent client per worker thread, created on that thread.
        auto client = std::shared_ptr<EvaluatedSystem::Client>(
            system.MakeClient());
        return [&system, client](const std::string& stmt_id,
                                 const std::vector<Value>& params)
            -> concurrent::OpResult {
          StatementOutcome out =
              system.ExecuteOpen(client.get(), stmt_id, params);
          const StatementResult& r = out.result;
          const concurrent::OpOutcome outcome(r.virtual_ms * 1000.0,
                                              r.counts);
          if (out.status.ok() && !r.supported) {
            return concurrent::OpResult(
                Status::Unimplemented("statement " + stmt_id +
                                      " unsupported by " + system.name()),
                outcome);
          }
          return concurrent::OpResult(out.status, outcome);
        };
      });
}

std::string FormatMs(double ms) {
  char buf[32];
  if (ms >= 100000.0) {
    std::snprintf(buf, sizeof(buf), "%.3g", ms);
  } else if (ms >= 100.0) {
    std::snprintf(buf, sizeof(buf), "%.0f", ms);
  } else if (ms >= 1.0) {
    std::snprintf(buf, sizeof(buf), "%.1f", ms);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f", ms);
  }
  return buf;
}

TablePrinter::TablePrinter(std::vector<std::string> headers, int col_width)
    : headers_(std::move(headers)), col_width_(col_width) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print() const {
  auto print_row = [&](const std::vector<std::string>& cells) {
    for (size_t i = 0; i < cells.size(); ++i) {
      std::printf("%-*s", i == 0 ? 14 : col_width_, cells[i].c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  size_t total = 14 + col_width_ * (headers_.size() - 1);
  std::printf("%s\n", std::string(total, '-').c_str());
  for (const auto& row : rows_) print_row(row);
}

int64_t EnvCustomers(int64_t default_value) {
  const char* env = std::getenv("SYNERGY_TPCW_CUSTOMERS");
  if (env == nullptr) return default_value;
  const int64_t v = std::atoll(env);
  return v > 0 ? v : default_value;
}

int EnvReps(int default_value) {
  const char* env = std::getenv("SYNERGY_BENCH_REPS");
  if (env == nullptr) return default_value;
  const int v = std::atoi(env);
  return v > 0 ? v : default_value;
}

int EnvThreads(int default_value) {
  const char* env = std::getenv("SYNERGY_BENCH_THREADS");
  if (env == nullptr) return default_value;
  const int v = std::atoi(env);
  return v > 0 ? v : default_value;
}

}  // namespace synergy::systems
