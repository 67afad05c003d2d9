// Regression tests for the slot-based row pipeline (PR 4): results must be
// identical to the old map-Tuple executor across the tricky cases — NULL
// join keys, hidden ORDER BY sort columns, GROUP BY over NULL groups,
// covered-index decoding through the slot map, and the bounded-heap top-N
// path vs a full stable sort.
#include <gtest/gtest.h>

#include "exec/executor.h"
#include "sql/parser.h"
#include "tuple_builder.h"

namespace synergy::exec {
namespace {

class SlotPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_
                    .AddRelation({.name = "Customer",
                                  .columns = {{"c_id", DataType::kInt},
                                              {"c_uname", DataType::kString},
                                              {"c_city", DataType::kString}},
                                  .primary_key = {"c_id"}})
                    .ok());
    ASSERT_TRUE(catalog_
                    .AddRelation({.name = "Orders",
                                  .columns = {{"o_id", DataType::kInt},
                                              {"o_c_id", DataType::kInt},
                                              {"o_total", DataType::kDouble}},
                                  .primary_key = {"o_id"},
                                  .foreign_keys = {{{"o_c_id"}, "Customer"}}})
                    .ok());
    // Covered order differs from relation column order on purpose: the
    // index-scan slot map must reorder decoded values into relation slots.
    ASSERT_TRUE(catalog_
                    .AddIndex({.name = "ix_c_uname",
                               .relation = "Customer",
                               .indexed_columns = {"c_uname"},
                               .covered_columns = {"c_uname", "c_id", "c_city"},
                               .unique = true})
                    .ok());
    ASSERT_TRUE(catalog_
                    .AddIndex({.name = "ix_o_c_id",
                               .relation = "Orders",
                               .indexed_columns = {"o_c_id"},
                               .covered_columns = {"o_c_id", "o_id", "o_total"}})
                    .ok());
    adapter_ = std::make_unique<TableAdapter>(&cluster_, &catalog_);
    for (const char* rel : {"Customer", "Orders"}) {
      ASSERT_TRUE(adapter_->CreateStorage(rel).ok());
    }
    executor_ = std::make_unique<Executor>(adapter_.get());

    hbase::Session s(&cluster_);
    auto customer = [&](int id, const char* uname,
                        std::optional<const char*> city) {
      testing::NamedValues t = {{"c_id", Value(id)}, {"c_uname", Value(uname)}};
      if (city.has_value()) t.emplace_back("c_city", Value(*city));
      ASSERT_TRUE(adapter_
                      ->Insert(s, "Customer",
                               testing::MakeTuple(catalog_, "Customer", t))
                      .ok());
    };
    auto order = [&](int id, std::optional<int> c_id, double total) {
      testing::NamedValues t = {{"o_id", Value(id)}, {"o_total", Value(total)}};
      if (c_id.has_value()) t.emplace_back("o_c_id", Value(*c_id));
      ASSERT_TRUE(adapter_
                      ->Insert(s, "Orders",
                               testing::MakeTuple(catalog_, "Orders", t))
                      .ok());
    };
    customer(1, "u1", "NYC");
    customer(2, "u2", "SF");
    customer(3, "u3", std::nullopt);  // NULL city
    customer(4, "u4", "NYC");
    customer(5, "u5", std::nullopt);  // NULL city
    order(10, 1, 10.0);
    order(11, 2, 5.5);
    order(12, std::nullopt, 7.0);  // NULL join key
    order(13, 1, 2.5);
    order(14, 4, 1.0);
    order(15, std::nullopt, 9.9);  // NULL join key
  }

  QueryResult Run(const std::string& sql, std::vector<Value> params = {},
                  ExecOptions options = {}) {
    stmts_.push_back(sql::MustParse(sql));
    const auto& sel = std::get<sql::SelectStatement>(stmts_.back());
    hbase::Session s(&cluster_);
    auto result = executor_->ExecuteSelect(s, sel, params, options);
    EXPECT_TRUE(result.ok()) << result.status() << " for " << sql;
    return result.ok() ? std::move(*result) : QueryResult{};
  }

  sql::Catalog catalog_;
  hbase::Cluster cluster_;
  std::unique_ptr<TableAdapter> adapter_;
  std::unique_ptr<Executor> executor_;
  std::vector<sql::Statement> stmts_;  // keep ASTs alive for the executor
};

TEST_F(SlotPipelineTest, JoinSkipsNullKeysIdenticallyForBothJoinMethods) {
  const std::string sql =
      "SELECT c_id, o_id FROM Customer as c, Orders as o "
      "WHERE c.c_id = o.o_c_id ORDER BY o_id";
  const std::vector<std::vector<Value>> expected = {
      {Value(1), Value(10)}, {Value(2), Value(11)},
      {Value(1), Value(13)}, {Value(4), Value(14)}};

  for (const bool force_hash : {false, true}) {
    ExecOptions options;
    options.force_hash_join = force_hash;
    QueryResult r = Run(sql, {}, options);
    EXPECT_EQ(r.row_count, 4u) << "force_hash=" << force_hash;
    EXPECT_EQ(r.dirty_restarts, 0);
    ASSERT_EQ(r.rows.size(), 4u) << "force_hash=" << force_hash;
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(r.rows[i].size(), 2u);
      EXPECT_EQ(r.rows[i][0], expected[i][0]) << i;
      EXPECT_EQ(r.rows[i][1], expected[i][1]) << i;
    }
  }
}

TEST_F(SlotPipelineTest, HiddenOrderByColumnIsSortedThenDropped) {
  // c_city is not selected: it rides along as a hidden sort slot. DESC puts
  // NULL cities last; ties (NYC x2, NULL x2) keep scan (PK) order stably.
  QueryResult r = Run("SELECT c_uname FROM Customer ORDER BY c_city DESC");
  ASSERT_EQ(r.columns.size(), 1u);
  EXPECT_EQ(r.columns[0], "c_uname");
  ASSERT_EQ(r.rows.size(), 5u);
  const std::vector<std::string> expected = {"u2", "u1", "u4", "u3", "u5"};
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(r.rows[i].size(), 1u) << "hidden sort column not dropped";
    EXPECT_EQ(r.rows[i][0].as_string(), expected[i]) << i;
  }
}

TEST_F(SlotPipelineTest, TopNHeapMatchesFullStableSortPrefix) {
  const std::string base = "SELECT c_uname FROM Customer ORDER BY c_city DESC";
  QueryResult full = Run(base);
  ASSERT_EQ(full.rows.size(), 5u);
  for (const size_t k : {size_t{0}, size_t{1}, size_t{2}, size_t{3},
                         size_t{5}, size_t{10}}) {
    QueryResult limited = Run(base + " LIMIT " + std::to_string(k));
    const size_t want = std::min(k, full.rows.size());
    EXPECT_EQ(limited.row_count, want) << "k=" << k;
    ASSERT_EQ(limited.rows.size(), want) << "k=" << k;
    for (size_t i = 0; i < want; ++i) {
      EXPECT_EQ(limited.rows[i][0], full.rows[i][0]) << "k=" << k << " i=" << i;
    }
  }
}

TEST_F(SlotPipelineTest, GroupByCollectsNullsIntoOneGroup) {
  QueryResult r = Run("SELECT c_city, COUNT(*) as n FROM Customer "
                      "GROUP BY c_city");
  ASSERT_EQ(r.columns.size(), 2u);
  // Groups appear in first-seen order: NYC (c1), SF (c2), NULL (c3).
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].as_string(), "NYC");
  EXPECT_EQ(r.rows[0][1].as_int(), 2);
  EXPECT_EQ(r.rows[1][0].as_string(), "SF");
  EXPECT_EQ(r.rows[1][1].as_int(), 1);
  EXPECT_TRUE(r.rows[2][0].is_null());
  EXPECT_EQ(r.rows[2][1].as_int(), 2);
}

TEST_F(SlotPipelineTest, GroupByNullKeyAggregatesMatch) {
  QueryResult r = Run(
      "SELECT o_c_id, SUM(o_total) as t, COUNT(*) as n FROM Orders "
      "GROUP BY o_c_id");
  ASSERT_EQ(r.rows.size(), 4u);  // groups 1, 2, NULL, 4 in first-seen order
  EXPECT_EQ(r.rows[0][0].as_int(), 1);
  EXPECT_DOUBLE_EQ(r.rows[0][1].as_double(), 10.0 + 2.5);
  EXPECT_EQ(r.rows[0][2].as_int(), 2);
  EXPECT_EQ(r.rows[1][0].as_int(), 2);
  EXPECT_DOUBLE_EQ(r.rows[1][1].as_double(), 5.5);
  EXPECT_TRUE(r.rows[2][0].is_null());
  EXPECT_DOUBLE_EQ(r.rows[2][1].as_double(), 7.0 + 9.9);
  EXPECT_EQ(r.rows[2][2].as_int(), 2);
  EXPECT_EQ(r.rows[3][0].as_int(), 4);
  EXPECT_DOUBLE_EQ(r.rows[3][1].as_double(), 1.0);
}

TEST_F(SlotPipelineTest, CoveredIndexScanDecodesThroughSlotMap) {
  // Covered columns are stored as (c_uname, c_id, c_city) but slots are
  // relation order (c_id, c_uname, c_city): values must land re-ordered.
  QueryResult r = Run("SELECT c_id, c_city FROM Customer WHERE c_uname = ?",
                      {Value("u2")});
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].as_int(), 2);
  EXPECT_EQ(r.rows[0][1].as_string(), "SF");

  // A NULL covered value decodes as NULL in its slot.
  QueryResult rnull = Run("SELECT c_id, c_city FROM Customer "
                          "WHERE c_uname = ?", {Value("u3")});
  ASSERT_EQ(rnull.rows.size(), 1u);
  EXPECT_EQ(rnull.rows[0][0].as_int(), 3);
  EXPECT_TRUE(rnull.rows[0][1].is_null());
}

TEST_F(SlotPipelineTest, AggregateOverEmptyInputStillProducesOneRow) {
  QueryResult r = Run("SELECT COUNT(*) as n, SUM(o_total) as t FROM Orders "
                      "WHERE o_id = 999");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].as_int(), 0);
  EXPECT_TRUE(r.rows[0][1].is_null());
}

TEST_F(SlotPipelineTest, NumericJoinKeysMatchAcrossTypesForBothJoinMethods) {
  // A DOUBLE column joined against the INT PK: Value::Compare treats int 2
  // and double 2.0 as equal, so both the hash join (ValueKey) and the INL
  // byte-key lookup (type-coerced) must find the match; 2.5 matches nothing.
  ASSERT_TRUE(catalog_
                  .AddRelation({.name = "Payments",
                                .columns = {{"p_id", DataType::kInt},
                                            {"p_amount", DataType::kDouble}},
                                .primary_key = {"p_id"}})
                  .ok());
  ASSERT_TRUE(adapter_->CreateStorage("Payments").ok());
  hbase::Session s(&cluster_);
  for (const auto& [id, amount] : {std::pair{1, 2.0}, std::pair{2, 2.5}}) {
    ASSERT_TRUE(adapter_
                    ->Insert(s, "Payments",
                             testing::MakeTuple(catalog_, "Payments",
                                                {{"p_id", Value(id)},
                                                 {"p_amount", Value(amount)}}))
                    .ok());
  }

  const std::string sql =
      "SELECT p_id, c_uname FROM Payments as p, Customer as c "
      "WHERE c.c_id = p.p_amount ORDER BY p_id";
  // The unforced plan must actually take the byte-key INL path.
  stmts_.push_back(sql::MustParse(sql));
  auto explain = executor_->Explain(
      std::get<sql::SelectStatement>(stmts_.back()));
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->find("INDEX_NESTED_LOOP"), std::string::npos) << *explain;
  for (const bool force_hash : {false, true}) {
    ExecOptions options;
    options.force_hash_join = force_hash;
    QueryResult r = Run(sql, {}, options);
    ASSERT_EQ(r.rows.size(), 1u) << "force_hash=" << force_hash;
    EXPECT_EQ(r.rows[0][0].as_int(), 1);
    EXPECT_EQ(r.rows[0][1].as_string(), "u2");
  }
}

TEST_F(SlotPipelineTest, DirtyMarkStillAbortsAndRestartCountsSurvive) {
  hbase::Session s(&cluster_);
  ASSERT_TRUE(adapter_->MarkRow(s, "Customer", {Value(1)}, true).ok());

  stmts_.push_back(sql::MustParse("SELECT * FROM Customer"));
  const auto& sel = std::get<sql::SelectStatement>(stmts_.back());
  ExecOptions options;
  options.detect_dirty = true;
  options.max_dirty_retries = 2;
  auto dirty = executor_->ExecuteSelect(s, sel, {}, options);
  EXPECT_FALSE(dirty.ok());
  EXPECT_EQ(dirty.status().code(), StatusCode::kAborted);

  ASSERT_TRUE(adapter_->MarkRow(s, "Customer", {Value(1)}, false).ok());
  auto clean = executor_->ExecuteSelect(s, sel, {}, options);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->row_count, 5u);
  EXPECT_EQ(clean->dirty_restarts, 0);
}

}  // namespace
}  // namespace synergy::exec
