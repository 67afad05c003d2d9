// Integration tests across the five evaluated systems at small scale:
// every workload statement runs on every system, and the paper's headline
// orderings hold.
#include "systems/evaluated_system.h"

#include <gtest/gtest.h>

#include "newsql/voltdb_sim.h"
#include "sql/parser.h"
#include "systems/harness.h"
#include "systems/mvcc_system.h"
#include "systems/synergy_wrapper.h"
#include "tpcw/schema.h"
#include "tpcw/workload.h"

namespace synergy::systems {
namespace {

class SystemsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scale_ = new tpcw::ScaleConfig();
    scale_->num_customers = 40;
    systems_ = new std::map<SystemKind, std::unique_ptr<EvaluatedSystem>>();
    for (const SystemKind kind : AllSystemKinds()) {
      auto system = MakeSystem(kind);
      ASSERT_TRUE(system->Setup(*scale_).ok()) << SystemKindName(kind);
      systems_->emplace(kind, std::move(system));
    }
  }
  static void TearDownTestSuite() {
    delete systems_;
    delete scale_;
  }

  static EvaluatedSystem& System(SystemKind kind) {
    return *systems_->at(kind);
  }

  double RunMs(SystemKind kind, const std::string& id) {
    tpcw::ParamProvider params(*scale_, /*seed=*/99);
    Measurement m = MeasureStatement(System(kind), params, id, 2);
    EXPECT_TRUE(m.error.ok()) << SystemKindName(kind) << " " << id << ": "
                              << m.error;
    EXPECT_TRUE(m.supported);
    return m.rt_ms.mean();
  }

  static tpcw::ScaleConfig* scale_;
  static std::map<SystemKind, std::unique_ptr<EvaluatedSystem>>* systems_;
};

tpcw::ScaleConfig* SystemsTest::scale_ = nullptr;
std::map<SystemKind, std::unique_ptr<EvaluatedSystem>>* SystemsTest::systems_ =
    nullptr;

TEST_F(SystemsTest, EveryStatementRunsOnEveryHBaseSystem) {
  sql::Workload w = tpcw::BuildWorkload();
  for (const SystemKind kind : HBaseBackedKinds()) {
    tpcw::ParamProvider params(*scale_, /*seed=*/5);
    for (const sql::WorkloadStatement& stmt : w.statements) {
      Measurement m = MeasureStatement(System(kind), params, stmt.id, 1);
      EXPECT_TRUE(m.error.ok())
          << SystemKindName(kind) << " " << stmt.id << ": " << m.error;
    }
  }
}

TEST_F(SystemsTest, VoltDbRunsSupportedStatementsOnly) {
  tpcw::ParamProvider params(*scale_, /*seed=*/5);
  std::set<std::string> unsupported;
  for (const std::string& id : tpcw::JoinQueryIds()) {
    Measurement m = MeasureStatement(System(SystemKind::kVoltDb), params, id, 1);
    ASSERT_TRUE(m.error.ok()) << id << ": " << m.error;
    if (!m.supported) unsupported.insert(id);
  }
  EXPECT_EQ(unsupported,
            (std::set<std::string>{"Q3", "Q7", "Q9", "Q10"}));
}

TEST_F(SystemsTest, SynergyBeatsBaselineOnJoins) {
  for (const char* id : {"Q1", "Q2", "Q4", "Q8"}) {
    EXPECT_LT(RunMs(SystemKind::kSynergy, id),
              RunMs(SystemKind::kBaseline, id))
        << id;
  }
}

TEST_F(SystemsTest, SynergyBeatsMvccAOnJoins) {
  // Marginal on the scan itself; decisive via the absent MVCC tax.
  double synergy = 0, mvcc_a = 0;
  for (const char* id : {"Q1", "Q2", "Q4", "Q6"}) {
    synergy += RunMs(SystemKind::kSynergy, id);
    mvcc_a += RunMs(SystemKind::kMvccA, id);
  }
  EXPECT_LT(synergy, mvcc_a);
}

TEST_F(SystemsTest, VoltDbFastestOnSupportedJoins) {
  for (const char* id : {"Q1", "Q2", "Q4"}) {
    EXPECT_LT(RunMs(SystemKind::kVoltDb, id), RunMs(SystemKind::kSynergy, id))
        << id;
  }
}

TEST_F(SystemsTest, SynergyWritesCheaperThanMvccWrites) {
  for (const char* id : {"W1", "W3", "W6", "W13"}) {
    EXPECT_LT(RunMs(SystemKind::kSynergy, id),
              RunMs(SystemKind::kBaseline, id))
        << id;
    EXPECT_LT(RunMs(SystemKind::kSynergy, id), RunMs(SystemKind::kMvccA, id))
        << id;
  }
}

TEST_F(SystemsTest, VoltDbWritesCheapest) {
  EXPECT_LT(RunMs(SystemKind::kVoltDb, "W1"), RunMs(SystemKind::kSynergy, "W1"));
}

TEST_F(SystemsTest, ShoppingCartWritesAreCheapInSynergy) {
  // W6/W11 touch a relation outside every view (paper's observation).
  const double w6 = RunMs(SystemKind::kSynergy, "W6");
  const double w13 = RunMs(SystemKind::kSynergy, "W13");
  EXPECT_LT(w6, w13);
}

TEST_F(SystemsTest, DbSizeOrderingMatchesTableIII) {
  const double volt = System(SystemKind::kVoltDb).DbSizeBytes();
  const double baseline = System(SystemKind::kBaseline).DbSizeBytes();
  const double mvcc_ua = System(SystemKind::kMvccUA).DbSizeBytes();
  const double mvcc_a = System(SystemKind::kMvccA).DbSizeBytes();
  const double synergy = System(SystemKind::kSynergy).DbSizeBytes();
  EXPECT_LT(volt, baseline);
  EXPECT_LE(baseline, mvcc_ua);
  EXPECT_LT(mvcc_ua, mvcc_a);
  // Synergy ~ MVCC-A (same views; Synergy adds lock tables).
  EXPECT_GE(synergy, mvcc_a * 0.95);
  // Views roughly double the footprint (paper: 2.1x).
  EXPECT_GT(synergy, baseline * 1.3);
}

TEST_F(SystemsTest, SynergySelectsTheExpectedTpcwViews) {
  auto views = System(SystemKind::kSynergy).ViewNames();
  std::set<std::string> names(views.begin(), views.end());
  EXPECT_TRUE(names.contains("Customer-Orders"));
  EXPECT_TRUE(names.contains("Author-Item"));
  EXPECT_TRUE(names.contains("Item-Order_line"));
  EXPECT_TRUE(names.contains("Author-Item-Order_line"));
  EXPECT_TRUE(names.contains("Country-Address"));
}

TEST_F(SystemsTest, UnawareSelectorPicksFewSmallViews) {
  auto views = System(SystemKind::kMvccUA).ViewNames();
  EXPECT_GE(views.size(), 1u);
  EXPECT_LE(views.size(), 3u);
}

TEST_F(SystemsTest, BaselineHasNoViews) {
  EXPECT_TRUE(System(SystemKind::kBaseline).ViewNames().empty());
}

TEST_F(SystemsTest, MvccTaxDominatesShortStatements) {
  // Any baseline statement carries the ~800-900 ms Tephra overhead.
  EXPECT_GT(RunMs(SystemKind::kBaseline, "S1"), 500.0);
  EXPECT_LT(RunMs(SystemKind::kSynergy, "S1"), 100.0);
}

TEST_F(SystemsTest, QueryResultsAgreeAcrossSystems) {
  // Row counts for deterministic queries must match across systems.
  tpcw::ParamProvider p1(*scale_, 123), p2(*scale_, 123), p3(*scale_, 123);
  for (const char* id : {"Q1", "Q4", "Q6", "Q8", "S7"}) {
    auto params = p1.ParamsFor(id);
    ASSERT_TRUE(params.ok());
    auto a = System(SystemKind::kBaseline).Execute(id, *params);
    auto b = System(SystemKind::kSynergy).Execute(id, *params);
    auto c = System(SystemKind::kMvccA).Execute(id, *params);
    ASSERT_TRUE(a.ok() && b.ok() && c.ok()) << id;
    EXPECT_EQ(a->rows, b->rows) << id;
    EXPECT_EQ(a->rows, c->rows) << id;
  }
}

TEST_F(SystemsTest, PersistentClientMatchesFreshExecute) {
  // The open-loop client path (one session across statements) and Execute
  // (a fresh session per statement) must report the same per-statement
  // cost and store work for reads, which leave the store unchanged.
  for (const SystemKind kind : {SystemKind::kSynergy, SystemKind::kBaseline}) {
    EvaluatedSystem& system = System(kind);
    std::unique_ptr<EvaluatedSystem::Client> client = system.MakeClient();
    ASSERT_NE(client, nullptr) << SystemKindName(kind);
    tpcw::ParamProvider params(*scale_, /*seed=*/11);
    for (const char* id : {"Q1", "Q8"}) {
      StatusOr<std::vector<Value>> p = params.ParamsFor(id);
      ASSERT_TRUE(p.ok()) << p.status();
      const StatementOutcome open = system.ExecuteOpen(client.get(), id, *p);
      const StatusOr<StatementResult> fresh = system.Execute(id, *p);
      ASSERT_TRUE(open.status.ok()) << SystemKindName(kind) << " " << id;
      ASSERT_TRUE(fresh.ok()) << SystemKindName(kind) << " " << id;
      // A persistent meter subtracts two running sums, so allow rounding.
      EXPECT_NEAR(open.result.virtual_ms, fresh->virtual_ms,
                  1e-9 * fresh->virtual_ms)
          << SystemKindName(kind) << " " << id;
      EXPECT_EQ(open.result.rows, fresh->rows);
      EXPECT_GT(fresh->counts.rpcs, 0u);
      EXPECT_EQ(open.result.counts, fresh->counts);
    }
  }
}

TEST_F(SystemsTest, InsertOfAnUnknownColumnIsRejected) {
  // Every write path binds INSERT columns to slots; a column the relation
  // lacks is an error, never silently dropped. The statement fails before
  // any write, so the shared systems stay unchanged.
  const sql::Statement stmt = sql::MustParse(
      "INSERT INTO Shopping_cart (sc_id, sc_time, sc_bogus) VALUES (?, ?, ?)");
  const std::vector<Value> params = {Value(987654), Value(1), Value(2)};
  auto expect_rejected = [](const Status& status, const char* system) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << system << ": " << status;
    EXPECT_NE(status.message().find("sc_bogus"), std::string::npos)
        << system << ": " << status;
  };

  auto& synergy = dynamic_cast<SynergyWrapper&>(System(SystemKind::kSynergy));
  hbase::Session ss(synergy.cluster());
  expect_rejected(synergy.system()->ExecuteWrite(ss, stmt, params).status(),
                  "Synergy");

  auto& mvcc = dynamic_cast<MvccSystem&>(System(SystemKind::kMvccA));
  hbase::Session ms(mvcc.cluster());
  size_t rows = 0;
  expect_rejected(mvcc.ExecuteStatement(ms, stmt, params, &rows), "MVCC-A");

  newsql::VoltDb volt;
  ASSERT_TRUE(volt.Init(tpcw::BuildCatalog()).ok());
  expect_rejected(volt.Execute(stmt, params).status(), "VoltDB");
}

}  // namespace
}  // namespace synergy::systems
