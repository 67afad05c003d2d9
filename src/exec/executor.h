// Query executor: runs SelectPlans against the store, Phoenix-style
// (client-coordinated scans, hash joins and index nested-loop joins),
// charging join/sort/aggregation CPU to the session's virtual meter.
//
// Also implements the dirty-read detection protocol of §VIII-C: when
// ExecOptions.detect_dirty is set and a scan encounters a marked row, the
// whole statement is restarted (bounded retries).
//
// Cost attribution has one path, the trace: on a traced session a statement
// opens an `exec.select` span, and each plan node — plan+bind, every
// PlanStep, the sink's Finish — opens a child `exec.select` span noted with
// its label and row count. Node spans are contiguous, so their durations
// partition each attempt's meter charge. A sink's per-row charges land in
// the node of the step driving the rows. EXPLAIN ANALYZE (AnalyzeTrace,
// via SynergySystem::ExplainAnalyzeRead) is a view over those spans
// (docs/OBSERVABILITY.md).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/expression.h"
#include "exec/planner.h"
#include "exec/table_adapter.h"
#include "obs/trace.h"

namespace synergy::exec {

struct ExecOptions {
  /// Materialize result rows (false = count + cost only; used by benches
  /// over multi-million-row results).
  bool collect_rows = true;
  /// Restart on dirty-marked rows (Synergy read protocol).
  bool detect_dirty = false;
  int max_dirty_retries = 10;
  /// Force client hash joins (micro-benchmark "join algorithm" mode).
  bool force_hash_join = false;
};

struct QueryResult {
  std::vector<std::string> columns;
  std::vector<std::vector<Value>> rows;  // empty when !collect_rows
  size_t row_count = 0;
  int dirty_restarts = 0;
};

/// Runtime stats for one plan node of an analyzed statement, read off its
/// node span: the span's duration, its `rows` note, and the `rpc.*` spans
/// beneath it. Node spans are contiguous, so summing nodes reproduces the
/// statement total.
struct PlanNodeStats {
  std::string label;
  size_t rows = 0;        // rows the node produced
  uint64_t rpcs = 0;      // store RPCs issued while the node was active
  double virtual_us = 0;  // exclusive virtual time
};

/// EXPLAIN ANALYZE output: the query result plus the per-node cost
/// decomposition and the cross-check totals (`node_sum_us` vs
/// `total_virtual_us` — equal up to floating-point rounding).
struct AnalyzeResult {
  QueryResult result;
  std::vector<PlanNodeStats> nodes;
  double total_virtual_us = 0;  // meter delta across the whole statement
  double node_sum_us = 0;       // sum of per-node exclusive times
  uint64_t total_rpcs = 0;
  std::string text;  // rendered table (one line per node + totals)
};

/// EXPLAIN ANALYZE as a view over the trace of one executed SELECT,
/// recorded with RPC spans on. The nodes are the final attempt's node
/// spans; when the statement restarted on dirty rows, a leading
/// `dirty restarts` pseudo-node holds the rest of the statement span (the
/// aborted attempts and their backoffs) with rows = `dirty_restarts`.
/// `total_virtual_us` and `total_rpcs` are the meter and RPC-count deltas
/// the caller measured around the statement, the independent cross-check
/// of the node sums.
AnalyzeResult AnalyzeTrace(const obs::TraceCollector& trace,
                           QueryResult result, double total_virtual_us,
                           uint64_t total_rpcs);

class Executor {
 public:
  /// Resolves the executor's metric handles from the adapter's cluster
  /// registry (exec_statements_total, exec_dirty_restarts_total,
  /// exec_statement_virtual_us).
  explicit Executor(TableAdapter* adapter);

  /// Plans and executes a SELECT, restarting it (with a one-RPC backoff)
  /// on a dirty row when options.detect_dirty is set. The statement must
  /// outlive the call.
  StatusOr<QueryResult> ExecuteSelect(hbase::Session& s,
                                      const sql::SelectStatement& stmt,
                                      BoundParams params,
                                      const ExecOptions& options = {});

  /// Explain the plan that would be chosen (for tests and ablations).
  StatusOr<std::string> Explain(const sql::SelectStatement& stmt,
                                const ExecOptions& options = {});

 private:
  /// One attempt of ExecuteSelect's dirty-read restart loop.
  StatusOr<QueryResult> ExecuteOnce(hbase::Session& s,
                                    const sql::SelectStatement& stmt,
                                    BoundParams params,
                                    const ExecOptions& options);

  TableAdapter* adapter_;
  // Registry handles (cluster->metrics()), resolved at construction.
  obs::Counter* statements_;
  obs::Counter* dirty_restarts_;
  obs::Histogram* statement_us_;
};

}  // namespace synergy::exec
