// Region-server failover: heartbeat-driven failure detection, WAL-backed
// region reassignment (crash = store lost + replay; fence = store intact,
// move without replay), degraded reads, and the client retry path riding
// through an outage.
#include "hbase/failover.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "company_fixture.h"
#include "hbase/cluster.h"
#include "hbase/region.h"
#include "synergy/synergy_system.h"
#include "systems/mvcc_system.h"
#include "systems/synergy_wrapper.h"
#include "testing/fault_injector.h"
#include "tuple_builder.h"

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

// Everything a client can observe of a region: every row read at every
// timestamp the history wrote (plus "latest"), and the size accounting.
struct RegionImage {
  std::vector<std::string> reads;
  size_t bytes = 0;
  size_t rows = 0;
  bool operator==(const RegionImage&) const = default;
};

const char* const kHistoryRows[] = {"r0", "r1", "r2", "r3", "r4", "r5"};
const char* const kHistoryQualifiers[] = {"a", "b", "c"};

// Upper bound on the timestamps one history allocates (one per op at most).
constexpr int64_t kHistoryMaxTs = 300;

RegionImage Capture(const Region& region) {
  RegionImage image;
  std::vector<int64_t> read_ts;
  for (int64_t ts = 0; ts <= kHistoryMaxTs; ++ts) read_ts.push_back(ts);
  read_ts.push_back(INT64_MAX);
  for (const int64_t ts : read_ts) {
    for (const char* key : kHistoryRows) {
      std::string line = std::string(key) + "@" + std::to_string(ts) + ":";
      if (std::optional<RowResult> row = region.Get(key, ReadView{ts})) {
        for (const auto& [qual, value] : row->columns) {
          line += qual + "=" + value + ";";
        }
      }
      image.reads.push_back(std::move(line));
    }
  }
  image.bytes = region.ByteSize();
  image.rows = region.RowCount();
  return image;
}

/// One random mutation. A third of the timestamped writes reuse an
/// already-written timestamp, so equal-timestamp overwrites are common.
void RandomMutation(Rng& rng, Region& region, int64_t max_ts) {
  const std::string key = kHistoryRows[rng.Next() % 6];
  const std::string qual = kHistoryQualifiers[rng.Next() % 3];
  std::optional<int64_t> ts;
  if (max_ts > 0 && rng.Next() % 3 == 0) ts = rng.Uniform(1, max_ts);
  // Small integers so Increment usually succeeds; "x" makes it fail.
  const std::string value =
      rng.Next() % 8 == 0 ? "x" : std::to_string(rng.Uniform(0, 9));
  switch (rng.Next() % 5) {
    case 0: {
      std::vector<std::pair<std::string, std::string>> columns = {
          {qual, value}};
      if (rng.Next() % 2 == 0) {
        columns.emplace_back(kHistoryQualifiers[rng.Next() % 3],
                             std::to_string(rng.Uniform(0, 9)));
      }
      region.Put(key, columns, ts);
      break;
    }
    case 1:
      region.Delete(key, ts);
      break;
    case 2:
      region.DeleteColumn(key, qual, ts);
      break;
    case 3: {
      std::optional<std::string> expected;
      if (rng.Next() % 2 == 0) {
        if (std::optional<RowResult> row = region.Get(key, ReadView{})) {
          if (row->columns.contains(qual)) expected = row->columns.at(qual);
        }
      } else if (rng.Next() % 2 == 0) {
        expected = std::to_string(rng.Uniform(0, 9));
      }
      region.CheckAndPut(key, qual, expected, value);
      break;
    }
    case 4:
      (void)region.Increment(key, qual, rng.Uniform(-3, 3));
      break;
  }
}

// The durability split, checked exactly: a crash (DropStore) must leave the
// region as it was at the last flush (bulk-loaded prefix included), and
// ReplayEdits must restore it as it was just before the crash — compared
// through Get at every timestamp written, ByteSize and RowCount. Crashes
// land at random points of the history, which keeps running afterwards.
// SYNERGY_CHAOS_ITERS=k runs k histories per listed seed.
TEST(RegionWalTest, RollbackToFlushAndReplayAreExact) {
  std::vector<uint64_t> seeds;
  for (const uint64_t base :
       fault::TestSeedsFromEnv({1, 2, 3, 5, 8, 13, 21, 34})) {
    for (int k = 0; k < fault::ChaosScaleFromEnv(); ++k) {
      seeds.push_back(base + 1000 * static_cast<uint64_t>(k));
    }
  }
  for (const uint64_t seed : seeds) {
    SCOPED_TRACE("replay with SYNERGY_TEST_SEED=" + std::to_string(seed));
    Rng rng(seed);
    std::atomic<int64_t> clock{0};
    Region region("", "", &clock, 0);
    for (int i = 0; i < 12; ++i) {
      region.Put(kHistoryRows[rng.Next() % 6],
                 {{kHistoryQualifiers[rng.Next() % 3],
                   std::to_string(rng.Uniform(0, 9))}},
                 rng.Next() % 4 == 0 && clock.load() > 0
                     ? std::optional<int64_t>(rng.Uniform(1, clock.load()))
                     : std::nullopt,
                 Durability::kBulkLoad);
    }
    ASSERT_EQ(region.EditLogSize(), 0u) << "bulk load must skip the log";

    RegionImage flushed = Capture(region);
    int crashes = 0;
    for (int op = 0; op < 240; ++op) {
      SCOPED_TRACE("op " + std::to_string(op));
      if (rng.Next() % 40 == 0) {
        region.MajorCompact(/*max_versions=*/3);
        EXPECT_EQ(region.EditLogSize(), 0u) << "a flush empties the log";
        flushed = Capture(region);
      } else if (rng.Next() % 30 == 0 || op == 239) {
        ++crashes;
        const RegionImage before = Capture(region);
        const size_t tail = region.EditLogSize();
        for (int cycle = 0; cycle < 2; ++cycle) {  // replay keeps the log
          region.DropStore();
          ASSERT_EQ(Capture(region), flushed)
              << "crash must lose exactly the memstore (cycle " << cycle
              << ")";
          // A crashed region cannot flush: the tail must survive this.
          if (cycle == 1) region.MajorCompact(/*max_versions=*/3);
          region.ReplayEdits();
          ASSERT_EQ(Capture(region), before)
              << "replay must restore the pre-crash store (cycle " << cycle
              << ")";
          ASSERT_EQ(region.EditLogSize(), tail);
        }
      } else {
        RandomMutation(rng, region, clock.load());
      }
    }
    EXPECT_GE(crashes, 1);
    EXPECT_LE(clock.load(), kHistoryMaxTs) << "Capture must read every ts";
  }
}

// Offline loading writes no region edit log: SynergySystem::Load directly
// (no flush in between), and both wrapped setups, which flush at the end.
TEST(RegionWalTest, LoadersLeaveNoEditLog) {
  auto expect_no_log = [](const Cluster& cluster, const std::string& who) {
    size_t regions = 0;
    for (const Region* region : cluster.AllRegions()) {
      ++regions;
      EXPECT_EQ(region->EditLogSize(), 0u)
          << who << ": region [" << region->start_key() << ", "
          << region->end_key() << ") on server " << region->server_id();
    }
    EXPECT_GT(regions, 0u) << who;
  };

  Cluster cluster;
  core::SynergySystem system(
      &cluster, core::SynergyConfig{.roots = testing::CompanyRoots()});
  ASSERT_TRUE(
      system.Build(testing::CompanyCatalog(), testing::CompanyWorkload()).ok());
  ASSERT_TRUE(system.CreateStorage().ok());
  Session s(&cluster);
  ASSERT_TRUE(testing::LoadRow(system, s, "Address",
                               {{"AID", Value(1)},
                                {"Street", Value("s")},
                                {"City", Value("c")},
                                {"Zip", Value("z")}})
                  .ok());
  ASSERT_TRUE(testing::LoadRow(system, s, "Employee",
                               {{"EID", Value(1)},
                                {"EName", Value("e")},
                                {"EHome_AID", Value(1)},
                                {"EOffice_AID", Value(1)},
                                {"E_DNo", Value(1)}})
                  .ok());
  EXPECT_EQ(s.durability(), Durability::kLogged)
      << "the bulk-load scope must end with the load";
  expect_no_log(cluster, "SynergySystem::Load");

  tpcw::ScaleConfig scale;
  scale.num_customers = 20;
  systems::SynergyWrapper synergy;
  ASSERT_TRUE(synergy.Setup(scale).ok());
  expect_no_log(*synergy.cluster(), "SynergyWrapper::Setup");
  for (const systems::MvccSystem::ViewMode mode :
       {systems::MvccSystem::ViewMode::kNone,
        systems::MvccSystem::ViewMode::kAware}) {
    systems::MvccSystem mvcc("mvcc", mode);
    ASSERT_TRUE(mvcc.Setup(scale).ok());
    expect_no_log(*mvcc.cluster(), "MvccSystem::Setup");
  }
}

}  // namespace
}  // namespace synergy::hbase
