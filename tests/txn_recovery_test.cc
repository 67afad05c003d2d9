// Recovery regression tests for the failure modes of §VIII-C:
//
//  1. Orphaned CheckAndPut locks: a slave crashes holding a root lock;
//     other clients must stay blocked (read-committed) until master
//     failover releases the lock, after which they make progress.
//  2. WAL replay idempotency: replaying the same log twice leaves the base
//     tables and every materialized view byte-identical — replay after an
//     ack-lost or partially-applied write must be harmless.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "company_fixture.h"
#include "synergy/synergy_system.h"
#include "synergy/view_audit.h"
#include "testing/fault_injector.h"
#include "tuple_builder.h"
#include "txn/txn_layer.h"

namespace synergy::core {
namespace {

// ---------------------------------------------------------------------------
// 1. Orphaned-lock recovery, at the txn-layer level for full control of the
//    LockSpec and the blocked second client.
// ---------------------------------------------------------------------------

TEST(OrphanedLockRecoveryTest, RecoveryFreesLockAndUnblocksSecondClient) {
  hbase::Cluster cluster;
  ASSERT_TRUE(cluster.CreateTable({.name = "data"}).ok());
  txn::LockManager locks(&cluster);
  ASSERT_TRUE(locks.CreateLockTable("Root").ok());
  txn::TxnLayer layer(&cluster, &locks, 2);
  fault::FaultInjector faults(17);
  layer.SetFaultInjector(&faults);
  hbase::Session s(&cluster);

  // Client A crashes holding the root lock, before its body runs.
  faults.Arm(fault::FaultPoint::kCrashBeforeExecute);
  auto crashed = layer.SubmitWrite(
      s, "put a 1", txn::LockSpec{"Root", "rk"},
      [&](hbase::Session& bs) {
        return cluster.Put(bs, "data", "a", {{"v", "1"}});
      });
  ASSERT_EQ(crashed.status().code(), StatusCode::kUnavailable);

  // The CheckAndPut lock is orphaned: client B cannot acquire it and times
  // out (read-committed is preserved while the owner is dead).
  auto held = locks.IsHeld(s, "Root", "rk");
  ASSERT_TRUE(held.ok());
  EXPECT_TRUE(*held);
  const Status blocked = locks.Acquire(s, "Root", "rk", /*max_attempts=*/3);
  EXPECT_EQ(blocked.code(), StatusCode::kAborted) << blocked;

  // Master failover replays the entry and releases the recorded lock.
  ASSERT_TRUE(layer
                  .DetectAndRecover(
                      s,
                      [&](hbase::Session& rs, const std::string& payload) {
                        EXPECT_EQ(payload, "put a 1");
                        return cluster.Put(rs, "data", "a", {{"v", "1"}});
                      })
                  .ok());
  held = locks.IsHeld(s, "Root", "rk");
  ASSERT_TRUE(held.ok());
  EXPECT_FALSE(*held);

  // Client B now progresses: same lock, clean commit.
  auto ok = layer.SubmitWrite(
      s, "put b 2", txn::LockSpec{"Root", "rk"},
      [&](hbase::Session& bs) {
        return cluster.Put(bs, "data", "b", {{"v", "2"}});
      });
  ASSERT_TRUE(ok.ok()) << ok.status();
  held = locks.IsHeld(s, "Root", "rk");
  ASSERT_TRUE(held.ok());
  EXPECT_FALSE(*held);
}

// ---------------------------------------------------------------------------
// 2. WAL double-replay idempotency, at the system level: replaying the full
//    log a second time must not change any base table or view. The writes
//    are drawn per seed (SYNERGY_TEST_SEED) and the rounds scale with
//    SYNERGY_CHAOS_ITERS.
// ---------------------------------------------------------------------------

/// One drawn write and the state it must leave behind.
struct DrawnWrite {
  std::string sql;
  std::vector<Value> params;
  std::string relation;
  std::vector<Value> pk;
  testing::NamedValues insert_row;  // INSERTs only: the new row
  std::string column;               // empty: the row must be absent
  Value expected;
};

/// Draws INSERT/UPDATE/DELETE writes over Employee, Address and Works_On.
/// Every write touches a row no other write touches, so replaying a log in
/// any order (per-slave WALs interleave) reaches the same state; deletes
/// only hit rows that no view row hangs off (views never cascade, §VII-B).
class WriteDrawer {
 public:
  explicit WriteDrawer(uint64_t seed) : rng_(seed) {}

  DrawnWrite Next() {
    while (true) {
      switch (rng_.Next() % 9) {
        case 0: {
          const int eid = static_cast<int>(rng_.Uniform(1, 3));
          const int pno = fresh_++;
          const Value hours(static_cast<int>(rng_.Uniform(1, 99)));
          return Insert("Works_On", {Value(eid), Value(pno)},
                        {{"WO_EID", Value(eid)},
                         {"WO_PNo", Value(pno)},
                         {"Hours", hours}},
                        "Hours");
        }
        case 1: {
          if (works_on_.empty()) continue;
          const int eid = Take(&works_on_);
          const Value hours(static_cast<int>(rng_.Uniform(100, 199)));
          return {"UPDATE Works_On SET Hours = ? WHERE WO_EID = ? AND "
                  "WO_PNo = ?",
                  {hours, Value(eid), Value(1)}, "Works_On",
                  {Value(eid), Value(1)}, {}, "Hours", hours};
        }
        case 2: {
          if (works_on_.empty()) continue;
          const int eid = Take(&works_on_);
          return {"DELETE FROM Works_On WHERE WO_EID = ? AND WO_PNo = ?",
                  {Value(eid), Value(1)}, "Works_On",
                  {Value(eid), Value(1)}, {}, "", Value()};
        }
        case 3: {
          const int eid = fresh_++;
          return Insert(
              "Employee", {Value(eid)},
              {{"EID", Value(eid)},
               {"EName", Value("new" + std::to_string(eid))},
               {"EHome_AID", Value(rng_.Uniform(1, kHomes))},
               {"EOffice_AID", Value(kHomes)},
               {"E_DNo", Value(rng_.Uniform(1, 2))}},
              "EName");
        }
        case 4: {
          std::vector<int>* pool =
              rng_.Next() % 2 ? &working_employees_ : &spare_employees_;
          if (pool->empty()) continue;
          const int eid = Take(pool);
          const Value name("renamed" + std::to_string(fresh_++));
          return {"UPDATE Employee SET EName = ? WHERE EID = ?",
                  {name, Value(eid)}, "Employee", {Value(eid)}, {}, "EName",
                  name};
        }
        case 5: {
          if (spare_employees_.empty()) continue;
          const int eid = Take(&spare_employees_);
          return {"DELETE FROM Employee WHERE EID = ?", {Value(eid)},
                  "Employee", {Value(eid)}, {}, "", Value()};
        }
        case 6: {
          const int aid = fresh_++;
          return Insert("Address", {Value(aid)},
                        {{"AID", Value(aid)},
                         {"Street", Value("new" + std::to_string(aid))},
                         {"City", Value("c")},
                         {"Zip", Value("z")}},
                        "Street");
        }
        case 7: {
          std::vector<int>* pool =
              rng_.Next() % 2 ? &homes_ : &spare_addresses_;
          if (pool->empty()) continue;
          const int aid = Take(pool);
          const Value street("relocated" + std::to_string(fresh_++));
          return {"UPDATE Address SET Street = ? WHERE AID = ?",
                  {street, Value(aid)}, "Address", {Value(aid)}, {}, "Street",
                  street};
        }
        case 8: {
          if (spare_addresses_.empty()) continue;
          const int aid = Take(&spare_addresses_);
          return {"DELETE FROM Address WHERE AID = ?", {Value(aid)},
                  "Address", {Value(aid)}, {}, "", Value()};
        }
      }
    }
  }

  /// Loaded rows: addresses 1..kAddresses, employees 1..kEmployees (home =
  /// EID, office = kHomes) and Works_On (e, 1) for the working employees.
  static constexpr int kHomes = 7;  // addresses employees may live/work at
  static constexpr int kAddresses = 12;
  static constexpr int kEmployees = 6;
  static constexpr int kWorking = 3;  // employees 1..3 have Works_On rows

 private:
  DrawnWrite Insert(const std::string& relation, std::vector<Value> pk,
                    testing::NamedValues row, const std::string& column) {
    std::string cols;
    std::string marks;
    std::vector<Value> params;
    Value expected;
    for (const auto& [name, value] : row) {
      cols += (cols.empty() ? "" : ", ") + name;
      marks += marks.empty() ? "?" : ", ?";
      params.push_back(value);
      if (name == column) expected = value;
    }
    return {"INSERT INTO " + relation + " (" + cols + ") VALUES (" + marks +
                ")",
            std::move(params), relation, std::move(pk), std::move(row),
            column, expected};
  }

  int Take(std::vector<int>* pool) {
    const size_t i = static_cast<size_t>(rng_.Next() % pool->size());
    const int v = (*pool)[i];
    pool->erase(pool->begin() + static_cast<std::ptrdiff_t>(i));
    return v;
  }

  Rng rng_;
  int fresh_ = 100;  // above every loaded key
  std::vector<int> works_on_ = {1, 2, 3};           // (e, 1): update/delete
  std::vector<int> working_employees_ = {1, 2, 3};  // update only
  std::vector<int> spare_employees_ = {4, 5, 6};    // update or delete
  std::vector<int> homes_ = {1, 2, 3, 4, 5, 6, 7};  // update only
  std::vector<int> spare_addresses_ = {8, 9, 10, 11, 12};  // update/delete
};

class WalDoubleReplayTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    system_ = std::make_unique<SynergySystem>(
        &cluster_, SynergyConfig{.roots = testing::CompanyRoots(),
                                 .txn_slaves = 2});
    ASSERT_TRUE(
        system_->Build(testing::CompanyCatalog(), testing::CompanyWorkload())
            .ok());
    ASSERT_TRUE(system_->CreateStorage().ok());
    hbase::Session s(&cluster_);
    for (int a = 1; a <= WriteDrawer::kAddresses; ++a) {
      ASSERT_TRUE(testing::LoadRow(*system_, s, "Address",
                                   {{"AID", Value(a)},
                                    {"Street", Value("s" + std::to_string(a))},
                                    {"City", Value("c")},
                                    {"Zip", Value("z")}})
                      .ok());
    }
    for (int d = 1; d <= 2; ++d) {
      ASSERT_TRUE(testing::LoadRow(*system_, s, "Department",
                                   {{"DNo", Value(d)}, {"DName", Value("d")}})
                      .ok());
    }
    for (int e = 1; e <= WriteDrawer::kEmployees; ++e) {
      ASSERT_TRUE(testing::LoadRow(*system_, s, "Employee",
                                   {{"EID", Value(e)},
                                    {"EName", Value("e" + std::to_string(e))},
                                    {"EHome_AID", Value(e)},
                                    {"EOffice_AID", Value(WriteDrawer::kHomes)},
                                    {"E_DNo", Value(e % 2 + 1)}})
                      .ok());
    }
    for (int e = 1; e <= WriteDrawer::kWorking; ++e) {
      ASSERT_TRUE(testing::LoadRow(*system_, s, "Works_On",
                                   {{"WO_EID", Value(e)},
                                    {"WO_PNo", Value(1)},
                                    {"Hours", Value(10 * e)}})
                      .ok());
    }
  }

  Status Write(const DrawnWrite& w) {
    stmts_.push_back(sql::MustParse(w.sql));
    hbase::Session s(&cluster_);
    return system_->ExecuteWrite(s, stmts_.back(), w.params).status();
  }

  /// "relation/key" of the root lock `w` takes ("" when it takes none).
  std::string RootLock(const DrawnWrite& w) {
    hbase::Session s(&cluster_);
    exec::SlotRow row;
    if (w.insert_row.empty()) {
      auto found = system_->adapter()->GetByPk(s, w.relation, w.pk, &row);
      EXPECT_TRUE(found.ok() && *found) << w.sql;
    } else {
      row.values =
          testing::MakeTuple(system_->catalog(), w.relation, w.insert_row);
    }
    auto lock = system_->DeriveLockSpec(s, w.relation, row.values);
    EXPECT_TRUE(lock.ok()) << lock.status();
    if (!lock.ok() || !lock->has_value()) return "";
    return (*lock)->root_relation + "/" + (*lock)->root_key;
  }

  /// The row `w` wrote holds its value (or is gone, for a DELETE).
  void ExpectEffect(const DrawnWrite& w) {
    hbase::Session s(&cluster_);
    exec::SlotRow row;
    auto found = system_->adapter()->GetByPk(s, w.relation, w.pk, &row);
    ASSERT_TRUE(found.ok()) << found.status();
    if (w.column.empty()) {
      EXPECT_FALSE(*found) << w.sql;
      return;
    }
    ASSERT_TRUE(*found) << w.sql;
    EXPECT_EQ(testing::ColumnValue(*system_->catalog().FindRelation(w.relation),
                                   row.values, w.column),
              w.expected)
        << w.sql;
  }

  /// Sorted row fingerprints of every base table and view in the catalog.
  std::map<std::string, std::vector<std::string>> Snapshot() {
    std::map<std::string, std::vector<std::string>> tables;
    hbase::Session s(&cluster_);
    const sql::Catalog& catalog = system_->adapter()->catalog();
    std::vector<std::string> names;
    for (const sql::RelationDef* rel : catalog.Relations())
      names.push_back(rel->name);
    for (const sql::ViewDef* view : catalog.Views())
      names.push_back(view->name);
    for (const std::string& name : names) {
      auto scanner = system_->adapter()->ScanAll(s, name);
      EXPECT_TRUE(scanner.ok()) << name << ": " << scanner.status();
      if (!scanner.ok()) continue;
      std::vector<std::string> rows;
      exec::SlotRow row;
      while (true) {
        auto more = scanner->Next(&row);
        EXPECT_TRUE(more.ok()) << name << ": " << more.status();
        if (!more.ok() || !*more) break;
        std::string fp;
        for (const Value& v : row.values) {
          fp += v.is_null() ? std::string(1, '\0') : v.ToString();
          fp += '\x1f';
        }
        rows.push_back(std::move(fp));
      }
      std::sort(rows.begin(), rows.end());
      tables[name] = std::move(rows);
    }
    return tables;
  }

  Status Recover() {
    hbase::Session s(&cluster_);
    return system_->txn_layer()->DetectAndRecover(
        s, [&](hbase::Session& rs, const std::string& payload) {
          return system_->ReplayPayload(rs, payload);
        });
  }

  hbase::Cluster cluster_;
  std::unique_ptr<SynergySystem> system_;
  std::vector<sql::Statement> stmts_;
};

TEST_P(WalDoubleReplayTest, ReplayingTheLogTwiceChangesNothing) {
  const uint64_t seed = GetParam();
  SCOPED_TRACE("replay with SYNERGY_TEST_SEED=" + std::to_string(seed));
  WriteDrawer drawer(seed);
  std::map<std::string, size_t> rows = {
      {"Address", WriteDrawer::kAddresses},
      {"Employee", WriteDrawer::kEmployees},
      {"Works_On", WriteDrawer::kWorking}};
  auto count = [&](const DrawnWrite& w) {
    if (w.sql.starts_with("INSERT")) ++rows[w.relation];
    if (w.sql.starts_with("DELETE")) --rows[w.relation];
  };
  std::vector<DrawnWrite> done;

  const int rounds = fault::ChaosScaleFromEnv();
  for (int round = 0; round < rounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    // A few committed writes.
    for (int i = 0; i < 3; ++i) {
      DrawnWrite w = drawer.Next();
      ASSERT_TRUE(Write(w).ok()) << w.sql;
      count(w);
      done.push_back(std::move(w));
    }

    // One write per slave whose lock-release RPC is lost: the bodies
    // applied, the slaves died with the entries uncommitted. They take
    // disjoint root locks so the second is not blocked on the first
    // crash's orphaned lock.
    fault::FaultInjector faults(seed + static_cast<uint64_t>(round));
    system_->SetFaultInjector(&faults);
    const int num_slaves = system_->txn_layer()->num_slaves();
    faults.Arm(fault::FaultPoint::kDropLockRelease, /*skip_hits=*/0,
               /*max_fires=*/num_slaves);
    std::set<std::string> held;
    for (int i = 0; i < num_slaves; ++i) {
      DrawnWrite w = drawer.Next();
      const std::string lock = RootLock(w);
      if (lock.empty() || held.contains(lock)) {
        --i;  // redraw: the write would not orphan a fresh lock
        continue;
      }
      held.insert(lock);
      EXPECT_EQ(Write(w).code(), StatusCode::kUnavailable) << w.sql;
      count(w);
      done.push_back(std::move(w));
    }
    faults.DisarmAll();
    system_->SetFaultInjector(nullptr);

    // Capture the full log (all slaves) before failover marks it committed
    // and replaces the dead slaves.
    std::vector<std::string> log;
    txn::TxnLayer* layer = system_->txn_layer();
    for (int i = 0; i < layer->num_slaves(); ++i) {
      for (const txn::WalEntry& e : layer->slave(i)->wal()->AllEntries()) {
        log.push_back(e.payload);
      }
    }
    ASSERT_EQ(log.size(), 3u + static_cast<size_t>(num_slaves));

    // First replay: failover re-applies the uncommitted suffix (the
    // bodies' second application) and releases the orphaned locks.
    ASSERT_TRUE(Recover().ok());
    hbase::Session audit_session(&cluster_);
    auto report = AuditViewConsistency(audit_session, system_->adapter());
    ASSERT_TRUE(report.ok()) << report.status();
    ASSERT_TRUE(report->consistent()) << report->ToString();
    const auto before = Snapshot();
    for (const auto& [relation, n] : rows) {
      EXPECT_EQ(before.at(relation).size(), n) << relation;
    }
    // Every write so far, the partially-failed bodies included, is durable.
    for (const DrawnWrite& w : done) ExpectEffect(w);

    // Second replay of the *entire* log, committed entries included.
    hbase::Session s(&cluster_);
    for (const std::string& payload : log) {
      ASSERT_TRUE(system_->ReplayPayload(s, payload).ok()) << payload;
    }

    // Byte-identical base tables and views, and the §VII invariant holds.
    const auto after = Snapshot();
    EXPECT_EQ(before, after);
    report = AuditViewConsistency(s, system_->adapter());
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_TRUE(report->consistent()) << report->ToString();
  }
}

// SYNERGY_TEST_SEED=<n> collapses the suite to the single failing seed.
INSTANTIATE_TEST_SUITE_P(
    Seeds, WalDoubleReplayTest,
    ::testing::ValuesIn(fault::TestSeedsFromEnv({99, 7, 31, 2017})));

}  // namespace
}  // namespace synergy::core
