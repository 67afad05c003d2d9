// Region-server failover: heartbeat-driven failure detection, WAL-backed
// region reassignment (crash = store lost + replay; fence = store intact,
// move without replay), degraded reads, and the client retry path riding
// through an outage.
#include "hbase/failover.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <string_view>
#include <vector>

#include "hbase/cluster.h"
#include "hbase/region.h"
#include "testing/fault_injector.h"

namespace synergy::hbase {
namespace {

// One row per region of the 5-way pre-split table; region i lands on
// server i (round-robin assignment starts at 0 for each table).
const char* const kSplits[] = {"d", "h", "m", "r"};
const char* const kRows[] = {"a1", "e1", "i1", "n1", "s1"};

class FailoverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Fast detection so tests drive whole failovers with a few pumps: a
    // heartbeat round every 4 ticks, dead after 2 missed rounds.
    config_.heartbeat_every_rpcs = 4;
    config_.lease_missed_rounds = 2;
    cluster_.ConfigureFailover(config_);
    ASSERT_TRUE(cluster_
                    .CreateTable({.name = "t"},
                                 {kSplits, kSplits + 4})
                    .ok());
    Session s(&cluster_);
    for (const char* row : kRows) {
      ASSERT_TRUE(cluster_.Put(s, "t", row, {{"v", row}}).ok());
    }
  }

  /// Advances virtual time by `n` heartbeat rounds without issuing RPCs.
  void Rounds(int n) {
    for (int i = 0; i < n; ++i) {
      cluster_.failover().PumpVirtualTime(config_.heartbeat_every_rpcs *
                                          config_.us_per_tick);
    }
  }

  uint64_t Count(std::string_view name) const {
    return cluster_.metrics().Snapshot().CounterValue(name);
  }

  FailoverConfig config_;
  Cluster cluster_;
};

TEST_F(FailoverTest, RegionServerOfReportsHostingServer) {
  StatusOr<int> host = cluster_.RegionServerOf("t");
  ASSERT_TRUE(host.ok());
  EXPECT_EQ(*host, 0);  // first region of a fresh table is on server 0
  EXPECT_EQ(cluster_.RegionServerOf("nope").status().code(),
            StatusCode::kNotFound);
}

TEST_F(FailoverTest, CrashedServerIsUnavailableUntilLeaseExpires) {
  ASSERT_TRUE(cluster_.failover().CrashServer(0));
  EXPECT_EQ(cluster_.failover().state(0), ServerState::kCrashed);
  EXPECT_FALSE(cluster_.failover().AllHealthy());

  // Row "a1" lives on server 0: its store is gone and the master has not
  // noticed yet, so the read fails retryably.
  Session s(&cluster_);
  EXPECT_EQ(cluster_.Get(s, "t", "a1").status().code(),
            StatusCode::kUnavailable);
  // Rows on live servers are unaffected.
  EXPECT_TRUE(cluster_.Get(s, "t", "e1").ok());
}

TEST_F(FailoverTest, CrashReassignsAndReplaysWithoutLosingWrites) {
  ASSERT_TRUE(cluster_.failover().CrashServer(0));
  Rounds(config_.lease_missed_rounds + 2);  // expire lease + sweep

  EXPECT_EQ(cluster_.failover().state(0), ServerState::kDead);
  Session s(&cluster_);
  for (const char* row : kRows) {
    StatusOr<RowResult> got = cluster_.Get(s, "t", row);
    ASSERT_TRUE(got.ok()) << row << ": " << got.status();
    EXPECT_EQ(got->columns.at("v"), row);
  }
  EXPECT_EQ(Count("hbase_failover_crashes_total"), 1u);
  EXPECT_GE(Count("hbase_failover_regions_reassigned_total"), 1u);
  // The crash wiped the store, so its edits were replayed.
  EXPECT_GE(Count("hbase_failover_edits_replayed_total"), 1u);
  EXPECT_GT(cluster_.RegionServerOf("t").value(), 0);  // moved off server 0
}

TEST_F(FailoverTest, FencedServerMovesRegionsWithoutReplay) {
  cluster_.failover().FenceServer(1);
  Rounds(config_.lease_missed_rounds + 2);

  EXPECT_EQ(cluster_.failover().state(1), ServerState::kDead);
  Session s(&cluster_);
  StatusOr<RowResult> got = cluster_.Get(s, "t", "e1");  // was on server 1
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->columns.at("v"), "e1");
  EXPECT_EQ(Count("hbase_failover_fenced_total"), 1u);
  EXPECT_EQ(Count("hbase_failover_crashes_total"), 0u);
  EXPECT_GE(Count("hbase_failover_regions_reassigned_total"), 1u);
  // The store was intact: replaying would duplicate versions, so none ran.
  EXPECT_EQ(Count("hbase_failover_edits_replayed_total"), 0u);
}

TEST_F(FailoverTest, DegradedReadsDuringReassignmentWindow) {
  // Zero-region batches freeze the sweep, holding the cluster in the
  // "declared dead, not yet reassigned" window.
  config_.reassign_regions_per_round = 0;
  cluster_.ConfigureFailover(config_);

  cluster_.failover().FenceServer(2);
  Rounds(config_.lease_missed_rounds + 2);
  ASSERT_EQ(cluster_.failover().state(2), ServerState::kDead);

  // Fenced store is intact: reads are served, flagged degraded.
  Session s(&cluster_);
  StatusOr<RowResult> got = cluster_.Get(s, "t", "i1");  // server 2's region
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->columns.at("v"), "i1");
  EXPECT_EQ(s.counts().degraded_reads, 1u);
  EXPECT_GE(Count("hbase_failover_degraded_reads_total"), 1u);

  // Writes cannot be accepted mid-reassignment.
  EXPECT_EQ(cluster_.Put(s, "t", "i2", {{"v", "x"}}).code(),
            StatusCode::kUnavailable);
  EXPECT_GE(Count("hbase_failover_writes_rejected_total"), 1u);
}

TEST_F(FailoverTest, CrashedStoreRefusesDegradedReads) {
  config_.reassign_regions_per_round = 0;
  cluster_.ConfigureFailover(config_);

  ASSERT_TRUE(cluster_.failover().CrashServer(3));
  Rounds(config_.lease_missed_rounds + 2);
  ASSERT_EQ(cluster_.failover().state(3), ServerState::kDead);

  // The store is lost and replay is frozen: stale data would be *wrong*
  // data, so the read fails retryably instead of degrading.
  Session s(&cluster_);
  EXPECT_EQ(cluster_.Get(s, "t", "n1").status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(s.counts().degraded_reads, 0u);
}

TEST_F(FailoverTest, RetryingClientRidesThroughCrash) {
  ASSERT_TRUE(cluster_.failover().CrashServer(0));

  // The client's backoffs pump virtual time: failure detection, lease
  // expiry and WAL replay all complete inside this one Get call.
  Session s(&cluster_);
  s.SetRetryPolicy(RetryPolicy{});
  StatusOr<RowResult> got = cluster_.Get(s, "t", "a1");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->columns.at("v"), "a1");
  EXPECT_GT(s.counts().retries, 0u);
  EXPECT_EQ(cluster_.failover().state(0), ServerState::kDead);
  EXPECT_GE(Count("hbase_failover_edits_replayed_total"), 1u);
}

TEST_F(FailoverTest, LastLiveServerCannotBeTakenDown) {
  for (int sid = 0; sid < 4; ++sid) {
    ASSERT_TRUE(cluster_.failover().CrashServer(sid)) << sid;
    Rounds(config_.lease_missed_rounds + 2);
  }
  EXPECT_FALSE(cluster_.failover().CrashServer(4));
  EXPECT_EQ(cluster_.failover().state(4), ServerState::kLive);
  EXPECT_EQ(cluster_.failover().LiveServerCount(), 1);

  // Everything reassigned onto the survivor; no acknowledged write lost.
  Rounds(8);
  Session s(&cluster_);
  for (const char* row : kRows) {
    StatusOr<RowResult> got = cluster_.Get(s, "t", row);
    ASSERT_TRUE(got.ok()) << row << ": " << got.status();
    EXPECT_EQ(got->columns.at("v"), row);
  }
}

TEST_F(FailoverTest, InjectedServerCrashFiresOnHeartbeatRound) {
  fault::FaultInjector faults(7);
  faults.AddRule({.point = fault::FaultPoint::kRegionServerCrash,
                  .probability = 1.0,
                  .skip_hits = 0,
                  .max_fires = 1,
                  .table_prefix = "",
                  .server_id = 1});
  cluster_.SetFaultInjector(&faults);

  // RPC traffic drives the heartbeat that consults the rule; keep reading a
  // row hosted elsewhere so the reads themselves never fault.
  Session s(&cluster_);
  for (int i = 0; i < 16 * config_.heartbeat_every_rpcs; ++i) {
    ASSERT_TRUE(cluster_.Get(s, "t", "a1").ok());
  }
  EXPECT_EQ(cluster_.failover().state(1), ServerState::kDead);
  EXPECT_EQ(Count("hbase_failover_crashes_total"), 1u);
  StatusOr<RowResult> got = cluster_.Get(s, "t", "e1");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->columns.at("v"), "e1");
}

TEST(RegionWalTest, SplitPartitionsEditLogByKey) {
  std::atomic<int64_t> clock{0};
  Region left("", "", &clock, /*server_id=*/0);
  left.Put("a", {{"v", "1"}});
  left.Put("m", {{"v", "2"}});
  left.Put("z", {{"v", "3"}});
  ASSERT_EQ(left.EditLogSize(), 3u);

  Region right("m", "", &clock, /*server_id=*/1);
  left.SplitInto("m", &right);
  EXPECT_EQ(left.EditLogSize(), 1u);
  EXPECT_EQ(right.EditLogSize(), 2u);

  // The daughter replays exactly its own half of the log.
  right.DropStore();
  EXPECT_TRUE(right.store_lost());
  EXPECT_FALSE(right.Get("z", ReadView{}).has_value());
  right.ReplayEdits();
  EXPECT_FALSE(right.store_lost());
  ASSERT_TRUE(right.Get("z", ReadView{}).has_value());
  EXPECT_EQ(right.Get("z", ReadView{})->columns.at("v"), "3");
  EXPECT_EQ(right.Get("m", ReadView{})->columns.at("v"), "2");
  // The parent kept its half untouched.
  ASSERT_TRUE(left.Get("a", ReadView{}).has_value());
  EXPECT_EQ(left.Get("a", ReadView{})->columns.at("v"), "1");
}

TEST(RegionWalTest, ReplayReproducesTombstonesAndRmwResults) {
  std::atomic<int64_t> clock{0};
  Region region("", "", &clock, 0);
  region.Put("r", {{"a", "1"}, {"b", "2"}});
  region.Delete("r");
  region.Put("r", {{"a", "3"}});
  ASSERT_TRUE(region.CheckAndPut("r", "a", "3", "4"));
  ASSERT_TRUE(region.Increment("r", "n", 5).ok());

  region.DropStore();
  region.ReplayEdits();
  std::optional<RowResult> row = region.Get("r", ReadView{});
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->columns.at("a"), "4");
  EXPECT_EQ(row->columns.at("n"), "5");
  EXPECT_EQ(row->columns.find("b"), row->columns.end())
      << "tombstoned column resurrected by replay";
}

}  // namespace
}  // namespace synergy::hbase
