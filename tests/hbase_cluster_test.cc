#include "hbase/cluster.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "testing/fault_injector.h"

namespace synergy::hbase {
namespace {

class ClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(cluster_.CreateTable({.name = "t"}).ok());
  }
  Cluster cluster_;
};

TEST_F(ClusterTest, CreateTableTwiceFails) {
  EXPECT_EQ(cluster_.CreateTable({.name = "t"}).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(ClusterTest, DropTable) {
  EXPECT_TRUE(cluster_.DropTable("t").ok());
  EXPECT_FALSE(cluster_.HasTable("t"));
  EXPECT_EQ(cluster_.DropTable("t").code(), StatusCode::kNotFound);
}

TEST_F(ClusterTest, PutGetChargesVirtualTime) {
  Session s(&cluster_);
  ASSERT_TRUE(cluster_.Put(s, "t", "row1", {{"a", "1"}}).ok());
  const double after_put = s.meter().micros();
  EXPECT_GT(after_put, 0.0);
  auto row = cluster_.Get(s, "t", "row1");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->columns.at("a"), "1");
  EXPECT_GT(s.meter().micros(), after_put);
}

TEST_F(ClusterTest, GetMissingRowIsNotFound) {
  Session s(&cluster_);
  EXPECT_EQ(cluster_.Get(s, "t", "nope").status().code(),
            StatusCode::kNotFound);
}

TEST_F(ClusterTest, OpsOnMissingTableFail) {
  Session s(&cluster_);
  EXPECT_FALSE(cluster_.Put(s, "zz", "r", {{"a", "1"}}).ok());
  EXPECT_FALSE(cluster_.Get(s, "zz", "r").ok());
  EXPECT_FALSE(cluster_.OpenScanner(s, "zz").ok());
}

TEST_F(ClusterTest, DeleteRemovesRow) {
  Session s(&cluster_);
  ASSERT_TRUE(cluster_.Put(s, "t", "r", {{"a", "1"}}).ok());
  ASSERT_TRUE(cluster_.Delete(s, "t", "r").ok());
  EXPECT_FALSE(cluster_.Get(s, "t", "r").ok());
}

TEST_F(ClusterTest, ScannerIteratesInKeyOrder) {
  Session s(&cluster_);
  for (const char* k : {"c", "a", "b"}) {
    ASSERT_TRUE(cluster_.Put(s, "t", k, {{"v", k}}).ok());
  }
  auto scanner = cluster_.OpenScanner(s, "t");
  ASSERT_TRUE(scanner.ok());
  std::vector<std::string> keys;
  RowResult row;
  while (scanner->Next(&row)) keys.push_back(row.row_key);
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b", "c"}));
}

TEST_F(ClusterTest, ScannerHonorsRange) {
  Session s(&cluster_);
  for (const char* k : {"a", "b", "c", "d"}) {
    ASSERT_TRUE(cluster_.Put(s, "t", k, {{"v", k}}).ok());
  }
  auto scanner = cluster_.OpenScanner(s, "t", "b", "d");
  ASSERT_TRUE(scanner.ok());
  std::vector<std::string> keys;
  RowResult row;
  while (scanner->Next(&row)) keys.push_back(row.row_key);
  EXPECT_EQ(keys, (std::vector<std::string>{"b", "c"}));
}

TEST_F(ClusterTest, ScannerCrossesPresplitRegions) {
  ASSERT_TRUE(cluster_.CreateTable({.name = "split"}, {"g", "p"}).ok());
  Session s(&cluster_);
  for (const char* k : {"a", "h", "q", "z", "g", "p"}) {
    ASSERT_TRUE(cluster_.Put(s, "split", k, {{"v", k}}).ok());
  }
  auto scanner = cluster_.OpenScanner(s, "split");
  ASSERT_TRUE(scanner.ok());
  std::vector<std::string> keys;
  RowResult row;
  while (scanner->Next(&row)) keys.push_back(row.row_key);
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "g", "h", "p", "q", "z"}));
}

TEST_F(ClusterTest, ScanCostScalesWithRows) {
  Session s(&cluster_);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        cluster_.Put(s, "t", "k" + std::to_string(1000 + i), {{"v", "x"}})
            .ok());
  }
  s.meter().Reset();
  auto scanner = cluster_.OpenScanner(s, "t");
  ASSERT_TRUE(scanner.ok());
  RowResult row;
  while (scanner->Next(&row)) {
  }
  const double cost100 = s.meter().micros();

  Session s2(&cluster_);
  auto sc2 = cluster_.OpenScanner(s2, "t", "k1000", "k1010");
  ASSERT_TRUE(sc2.ok());
  while (sc2->Next(&row)) {
  }
  EXPECT_GT(cost100, s2.meter().micros());
}

TEST_F(ClusterTest, CheckAndPutAcquireRelease) {
  Session s(&cluster_);
  auto won = cluster_.CheckAndPut(s, "t", "lockrow", "lock", std::nullopt, "1");
  ASSERT_TRUE(won.ok());
  EXPECT_TRUE(*won);
  auto lost = cluster_.CheckAndPut(s, "t", "lockrow", "lock", std::nullopt, "1");
  ASSERT_TRUE(lost.ok());
  EXPECT_FALSE(*lost);
  auto release = cluster_.CheckAndPut(s, "t", "lockrow", "lock", "1", "0");
  ASSERT_TRUE(release.ok());
  EXPECT_TRUE(*release);
}

TEST_F(ClusterTest, IncrementThroughCluster) {
  Session s(&cluster_);
  auto v = cluster_.Increment(s, "t", "ctr", "n", 7);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 7);
}

TEST_F(ClusterTest, MvccReadViewFiltersInFlightWrites) {
  Session writer(&cluster_);
  ASSERT_TRUE(cluster_.Put(writer, "t", "r", {{"a", "committed"}}, 100).ok());
  ASSERT_TRUE(cluster_.Put(writer, "t", "r", {{"a", "inflight"}}, 200).ok());

  Session reader(&cluster_);
  std::vector<int64_t> exclude = {200};
  reader.SetReadView(ReadView{.read_ts = INT64_MAX, .exclude = &exclude});
  auto row = cluster_.Get(reader, "t", "r");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->columns.at("a"), "committed");
}

TEST_F(ClusterTest, SizeReportTracksData) {
  Session s(&cluster_);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster_.Put(s, "t", "k" + std::to_string(i),
                             {{"v", "payload-data"}})
                    .ok());
  }
  auto report = cluster_.SizeReport();
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].rows, 10u);
  EXPECT_GT(report[0].bytes, 100u);
  EXPECT_GT(cluster_.TotalBytes(), 0u);
}

TEST_F(ClusterTest, AutoSplitCreatesRegions) {
  ASSERT_TRUE(cluster_
                  .CreateTable({.name = "grow", .split_threshold_rows = 100})
                  .ok());
  Session s(&cluster_);
  for (int i = 0; i < 500; ++i) {
    char key[16];
    snprintf(key, sizeof(key), "k%05d", i);
    ASSERT_TRUE(cluster_.Put(s, "grow", key, {{"v", "x"}}).ok());
  }
  cluster_.MaybeSplitAll();
  auto report = cluster_.SizeReport();
  for (const auto& info : report) {
    if (info.name == "grow") {
      EXPECT_GT(info.regions, 1u);
      EXPECT_EQ(info.rows, 500u);
    }
  }
  // Scans still see everything, in order, across the split.
  auto scanner = cluster_.OpenScanner(s, "grow");
  ASSERT_TRUE(scanner.ok());
  RowResult row;
  size_t n = 0;
  std::string prev;
  while (scanner->Next(&row)) {
    EXPECT_LT(prev, row.row_key);
    prev = row.row_key;
    ++n;
  }
  EXPECT_EQ(n, 500u);
}

TEST_F(ClusterTest, ScannerErrorIsSurfacedViaStatus) {
  Session s(&cluster_);
  ASSERT_TRUE(cluster_.Put(s, "t", "r", {{"a", "1"}}).ok());
  fault::FaultInjector faults(7);
  faults.Arm(fault::FaultPoint::kRegionRpcFailure, /*skip_hits=*/0,
             /*max_fires=*/1);
  cluster_.SetFaultInjector(&faults);

  auto scanner = cluster_.OpenScanner(s, "t");
  ASSERT_TRUE(scanner.ok());
  RowResult row;
  EXPECT_FALSE(scanner->Next(&row)) << "failed batch must stop the scan";
  EXPECT_EQ(scanner->status().code(), StatusCode::kUnavailable);
  cluster_.SetFaultInjector(nullptr);
}

TEST_F(ClusterTest, ScannerDroppedWithUncheckedErrorIsCounted) {
  Session s(&cluster_);
  ASSERT_TRUE(cluster_.Put(s, "t", "r", {{"a", "1"}}).ok());
  fault::FaultInjector faults(7);
  cluster_.SetFaultInjector(&faults);
  auto dropped_total = [&] {
    return cluster_.metrics().Snapshot().CounterValue(
        "client_scan_errors_dropped_total");
  };

  // Dropping a scanner that hit an error without ever calling status() is
  // the silent-truncation bug. In every build type the destructor counts
  // it, on the session and in the registry, instead of dying.
  {
    faults.Arm(fault::FaultPoint::kRegionRpcFailure, 0, 1);
    auto scanner = cluster_.OpenScanner(s, "t");
    ASSERT_TRUE(scanner.ok());
    RowResult row;
    EXPECT_FALSE(scanner->Next(&row));
  }
  EXPECT_EQ(s.counts().scan_errors_dropped, 1u);
  EXPECT_EQ(dropped_total(), 1u);

  // Moving a scanner transfers the checking responsibility: the moved-from
  // shell must destruct quietly, the destination still reports the error.
  {
    faults.Arm(fault::FaultPoint::kRegionRpcFailure, 0, 1);
    auto scanner = cluster_.OpenScanner(s, "t");
    ASSERT_TRUE(scanner.ok());
    RowResult row;
    scanner->Next(&row);
    Scanner moved = std::move(*scanner);
    EXPECT_EQ(moved.status().code(), StatusCode::kUnavailable);
  }
  EXPECT_EQ(s.counts().scan_errors_dropped, 1u);
  EXPECT_EQ(dropped_total(), 1u);
  cluster_.SetFaultInjector(nullptr);
}

TEST_F(ClusterTest, MajorCompactionShrinksMultiVersionData) {
  Session s(&cluster_);
  for (int v = 0; v < 10; ++v) {
    ASSERT_TRUE(cluster_.Put(s, "t", "r", {{"a", std::string(100, 'x')}}).ok());
  }
  const size_t before = cluster_.TotalBytes();
  cluster_.MajorCompactAll();
  EXPECT_LT(cluster_.TotalBytes(), before);
}


// ---- the RPC boundary contract, per kind and outcome ----
//
// Every RPC attempt, whatever its outcome, opens exactly one `rpc.<kind>`
// span noted with its table and serving server (and `degraded` when served
// at bounded staleness), counts one RPC on the session and in
// hbase_rpcs_total, and charges what its kind charges on that path:
// Put/Delete/CheckAndPut/Increment charge their request before routing, so
// every outcome pays it; Get and scan batches charge after the read, so
// only served reads pay.

enum class RpcKind {
  kPut,
  kGet,
  kDelete,
  kCheckAndPut,
  kIncrement,
  kScanBatch,
};
enum class Outcome {
  kOk,
  kRequestLost,
  kRpcTimeout,
  kAckLost,
  kCrashedServer,
  kDegradedRead,
  kAdmissionShed,
};

const char* SpanName(RpcKind kind) {
  switch (kind) {
    case RpcKind::kPut: return "rpc.put";
    case RpcKind::kGet: return "rpc.get";
    case RpcKind::kDelete: return "rpc.delete";
    case RpcKind::kCheckAndPut: return "rpc.check_and_put";
    case RpcKind::kIncrement: return "rpc.increment";
    case RpcKind::kScanBatch: return "rpc.scan_batch";
  }
  return "?";
}

const char* OutcomeName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kOk: return "ok";
    case Outcome::kRequestLost: return "request-lost";
    case Outcome::kRpcTimeout: return "rpc-timeout";
    case Outcome::kAckLost: return "ack-lost";
    case Outcome::kCrashedServer: return "crashed-server";
    case Outcome::kDegradedRead: return "degraded-read";
    case Outcome::kAdmissionShed: return "admission-shed";
  }
  return "?";
}

bool IsRead(RpcKind kind) {
  return kind == RpcKind::kGet || kind == RpcKind::kScanBatch;
}

/// One attempt of `kind` against row "r" (seeded as {v: x}) of table "t".
Status Attempt(Cluster& cluster, Session& s, RpcKind kind) {
  switch (kind) {
    case RpcKind::kPut: return cluster.Put(s, "t", "r", {{"v", "y"}});
    case RpcKind::kGet: return cluster.Get(s, "t", "r").status();
    case RpcKind::kDelete: return cluster.Delete(s, "t", "r");
    case RpcKind::kCheckAndPut:
      return cluster.CheckAndPut(s, "t", "r", "lock", std::nullopt, "1")
          .status();
    case RpcKind::kIncrement:
      return cluster.Increment(s, "t", "r", "n", 1).status();
    case RpcKind::kScanBatch: {
      StatusOr<Scanner> scanner = cluster.OpenScanner(s, "t");
      if (!scanner.ok()) return scanner.status();
      RowResult row;
      scanner->Next(&row);  // one row, one region: exactly one batch RPC
      return scanner->status();
    }
  }
  return Status::Internal("bad kind");
}

/// The virtual µs one attempt charges when the path reaches its charge.
double KindCharge(const sim::CostModel& m, RpcKind kind) {
  const size_t row_payload = 3;  // "r" + "v" + "x"
  switch (kind) {
    case RpcKind::kPut:
      return sim::RpcCost(m, 3) + m.server_seek_us;  // "r" + "v" + "y"
    case RpcKind::kGet:
      return sim::RpcCost(m, row_payload) + m.server_seek_us;
    case RpcKind::kDelete: return sim::RpcCost(m, 1) + m.server_seek_us;
    case RpcKind::kCheckAndPut: return m.lock_rpc_us;
    case RpcKind::kIncrement: return sim::RpcCost(m, 1 + 16) + m.server_seek_us;
    case RpcKind::kScanBatch:
      return sim::RpcCost(m, row_payload) + m.server_scan_row_us +
             m.client_row_us;
  }
  return 0.0;
}

TEST(ClusterRpcBoundaryTest, EveryKindAndOutcomeOpensOneCountedSpan) {
  const RpcKind kinds[] = {RpcKind::kPut,         RpcKind::kGet,
                           RpcKind::kDelete,      RpcKind::kCheckAndPut,
                           RpcKind::kIncrement,   RpcKind::kScanBatch};
  const Outcome outcomes[] = {
      Outcome::kOk,           Outcome::kRequestLost,   Outcome::kRpcTimeout,
      Outcome::kAckLost,      Outcome::kCrashedServer, Outcome::kDegradedRead,
      Outcome::kAdmissionShed};
  for (const RpcKind kind : kinds) {
    for (const Outcome outcome : outcomes) {
      // Ack-lost is injected on Put and Delete only; degraded reads exist
      // for Get and scan batches only.
      const bool mutation = kind == RpcKind::kPut || kind == RpcKind::kDelete;
      if (outcome == Outcome::kAckLost && !mutation) continue;
      if (outcome == Outcome::kDegradedRead && !IsRead(kind)) continue;
      SCOPED_TRACE(std::string(SpanName(kind)) + " / " + OutcomeName(outcome));

      FailoverConfig failover;
      failover.reassign_regions_per_round = 0;  // hold dead regions in place
      Cluster cluster;
      cluster.ConfigureFailover(failover);
      ASSERT_TRUE(cluster.CreateTable({.name = "t"}).ok());
      Session s(&cluster);
      ASSERT_TRUE(cluster.Put(s, "t", "r", {{"v", "x"}}).ok());
      const StatusOr<int> server = cluster.RegionServerOf("t");
      ASSERT_TRUE(server.ok());

      fault::FaultInjector faults(7);
      StatusCode want = StatusCode::kUnavailable;
      switch (outcome) {
        case Outcome::kOk:
          want = StatusCode::kOk;
          break;
        case Outcome::kRequestLost:
          faults.Arm(fault::FaultPoint::kRegionRpcFailure);
          break;
        case Outcome::kRpcTimeout:
          faults.Arm(fault::FaultPoint::kRpcTimeout);
          break;
        case Outcome::kAckLost:
          faults.Arm(fault::FaultPoint::kRegionRpcAckLost);
          break;
        case Outcome::kCrashedServer:
          ASSERT_TRUE(cluster.failover().CrashServer(*server));
          break;
        case Outcome::kDegradedRead:
          // A fenced server's lease expires; its intact store then serves
          // reads degraded until the (frozen) reassignment moves it.
          cluster.failover().FenceServer(*server);
          for (int i = 0; i < failover.lease_missed_rounds + 2; ++i) {
            cluster.failover().PumpVirtualTime(failover.heartbeat_every_rpcs *
                                               failover.us_per_tick);
          }
          ASSERT_EQ(cluster.failover().state(*server), ServerState::kDead);
          want = StatusCode::kOk;
          break;
        case Outcome::kAdmissionShed: {
          AdmissionConfig admission;
          admission.enabled = true;
          admission.max_inflight_per_server = 0;
          admission.max_queue_depth = 0;  // every op is shed
          cluster.ConfigureAdmission(admission);
          want = StatusCode::kResourceExhausted;
          break;
        }
      }
      cluster.SetFaultInjector(&faults);
      obs::TraceCollector trace(&s.meter());
      trace.set_rpc_spans(true);
      s.SetTrace(&trace);

      const uint64_t session_rpcs = s.counts().rpcs;
      const uint64_t registry_rpcs = cluster.counters().rpcs->Value();
      const double meter_us = s.meter().micros();
      const Status status = Attempt(cluster, s, kind);
      s.SetTrace(nullptr);
      cluster.SetFaultInjector(nullptr);

      EXPECT_EQ(status.code(), want) << status;
      ASSERT_EQ(trace.spans().size(), 1u) << trace.Render();
      const obs::TraceSpan& span = trace.spans()[0];
      EXPECT_EQ(span.name, SpanName(kind));
      EXPECT_FALSE(span.open);
      std::vector<std::pair<std::string, std::string>> notes = {
          {"table", "t"}, {"server", std::to_string(*server)}};
      if (outcome == Outcome::kDegradedRead) {
        notes.emplace_back("degraded", "1");
      }
      EXPECT_EQ(span.notes, notes);
      EXPECT_EQ(s.counts().rpcs, session_rpcs + 1);
      EXPECT_EQ(cluster.counters().rpcs->Value(), registry_rpcs + 1);
      EXPECT_EQ(s.counts().degraded_reads,
                outcome == Outcome::kDegradedRead ? 1u : 0u);

      const bool charged = !IsRead(kind) || want == StatusCode::kOk;
      const double charge =
          charged ? KindCharge(cluster.cost_model(), kind) : 0.0;
      EXPECT_DOUBLE_EQ(s.meter().micros() - meter_us, charge);
      EXPECT_DOUBLE_EQ(span.duration_us(), charge);
    }
  }
}

}  // namespace
}  // namespace synergy::hbase
