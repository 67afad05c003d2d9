// Parallel TPC-W loader: thread-count invariance, cardinalities, and
// end-to-end Setup through a real system.
#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/value.h"
#include "systems/synergy_wrapper.h"
#include "tpcw/generator.h"
#include "tpcw/schema.h"
#include "tuple_builder.h"

namespace synergy::tpcw {
namespace {

/// Canonical string form of a tuple for set comparison.
std::string Canonical(const sql::Catalog& catalog, const std::string& relation,
                      const exec::Tuple& tuple) {
  std::string out = relation + "|";
  // exec::Tuple is in schema column order, so the form is deterministic.
  const std::vector<sql::Column>& columns =
      catalog.FindRelation(relation)->columns;
  for (size_t i = 0; i < tuple.size(); ++i) {
    out += columns.at(i).name + "=" + tuple[i].ToString() + ";";
  }
  return out;
}

std::multiset<std::string> CollectParallel(const ScaleConfig& cfg) {
  const sql::Catalog catalog = BuildCatalog();
  std::mutex mu;
  std::multiset<std::string> rows;
  Status s = GenerateDatabaseParallel(
      cfg, [&](int, const std::string& relation, const exec::Tuple& tuple) {
        std::lock_guard lock(mu);
        rows.insert(Canonical(catalog, relation, tuple));
        return Status::Ok();
      });
  EXPECT_TRUE(s.ok()) << s.message();
  return rows;
}

TEST(ParallelLoadTest, DataIsIndependentOfThreadCount) {
  ScaleConfig cfg;
  cfg.num_customers = 300;

  cfg.load_threads = 1;
  const std::multiset<std::string> one = CollectParallel(cfg);
  cfg.load_threads = 4;
  const std::multiset<std::string> four = CollectParallel(cfg);
  cfg.load_threads = 7;
  const std::multiset<std::string> seven = CollectParallel(cfg);

  EXPECT_EQ(one.size(), four.size());
  EXPECT_TRUE(one == four) << "4-thread load generated different data";
  EXPECT_TRUE(one == seven) << "7-thread load generated different data";
}

TEST(ParallelLoadTest, CardinalitiesMatchScaleConfig) {
  ScaleConfig cfg;
  cfg.num_customers = 200;
  cfg.load_threads = 3;

  std::mutex mu;
  std::map<std::string, int64_t> counts;
  Status s = GenerateDatabaseParallel(
      cfg, [&](int, const std::string& relation, const exec::Tuple&) {
        std::lock_guard lock(mu);
        ++counts[relation];
        return Status::Ok();
      });
  ASSERT_TRUE(s.ok()) << s.message();

  EXPECT_EQ(counts["Country"], cfg.num_countries());
  EXPECT_EQ(counts["Address"], cfg.num_addresses());
  EXPECT_EQ(counts["Author"], cfg.num_authors());
  EXPECT_EQ(counts["Customer"], cfg.num_customers);
  EXPECT_EQ(counts["Item"], cfg.num_items());
  EXPECT_EQ(counts["Orders"], cfg.num_orders());
  EXPECT_EQ(counts["CC_Xacts"], cfg.num_orders());
  EXPECT_EQ(counts["Shopping_cart"], cfg.num_carts());
  EXPECT_EQ(counts["Orders_tmp"], cfg.num_orders_tmp());
  // 1..5 lines per order, ids within the reserved range.
  EXPECT_GE(counts["Order_line"], cfg.num_orders());
  EXPECT_LE(counts["Order_line"], cfg.max_order_line_id());
}

TEST(ParallelLoadTest, OrderLineIdsAreUniqueAndInRange) {
  ScaleConfig cfg;
  cfg.num_customers = 150;
  cfg.load_threads = 4;

  const sql::Catalog catalog = BuildCatalog();
  const sql::RelationDef& order_line = *catalog.FindRelation("Order_line");
  std::mutex mu;
  std::set<int64_t> ol_ids;
  bool dup = false;
  Status s = GenerateDatabaseParallel(
      cfg, [&](int, const std::string& relation, const exec::Tuple& tuple) {
        if (relation != "Order_line") return Status::Ok();
        std::lock_guard lock(mu);
        const int64_t id =
            testing::ColumnValue(order_line, tuple, "ol_id").as_int();
        if (!ol_ids.insert(id).second) dup = true;
        EXPECT_GE(id, 1);
        EXPECT_LE(id, cfg.max_order_line_id());
        return Status::Ok();
      });
  ASSERT_TRUE(s.ok()) << s.message();
  EXPECT_FALSE(dup) << "derived ol_ids collided";
}

TEST(ParallelLoadTest, SynergySetupLoadsInParallelAndServesQueries) {
  systems::SynergyWrapper system;
  ScaleConfig scale;
  scale.num_customers = 60;
  scale.load_threads = 4;
  ASSERT_TRUE(system.Setup(scale).ok());

  // A join read over loaded data and a write both succeed.
  StatusOr<systems::StatementResult> q1 =
      system.Execute("Q1", {Value(int64_t{1})});
  ASSERT_TRUE(q1.ok()) << q1.status().message();
  EXPECT_TRUE(q1->supported);

  StatusOr<systems::StatementResult> w6 =
      system.Execute("W6", {Value(int64_t{999999}), Value(int64_t{20171001})});
  ASSERT_TRUE(w6.ok()) << w6.status().message();
}

}  // namespace
}  // namespace synergy::tpcw
