#include "hbase/cluster.h"

#include <gtest/gtest.h>

#include <utility>

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

}  // namespace
}  // namespace synergy::hbase
