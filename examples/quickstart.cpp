// Quickstart: build a Synergy system over a tiny blog schema, load data,
// and watch a join query run against an automatically-selected view.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "synergy/synergy_system.h"

using namespace synergy;

int main() {
  // 1. Describe the relational schema (relations, PKs, FKs).
  sql::Catalog catalog;
  const sql::RelationDef blog = {.name = "Blog",
                                 .columns = {{"b_id", DataType::kInt},
                                             {"b_title", DataType::kString}},
                                 .primary_key = {"b_id"}};
  const sql::RelationDef post = {.name = "Post",
                                 .columns = {{"p_id", DataType::kInt},
                                             {"p_b_id", DataType::kInt},
                                             {"p_text", DataType::kString}},
                                 .primary_key = {"p_id"},
                                 .foreign_keys = {{{"p_b_id"}, "Blog"}}};
  if (!catalog.AddRelation(blog).ok() || !catalog.AddRelation(post).ok()) {
    return 1;
  }

  // 2. Describe the workload; Synergy selects views for its equi joins.
  sql::Workload workload;
  if (!workload
           .Add("posts_of_blog",
                "SELECT * FROM Blog as b, Post as p "
                "WHERE b.b_id = p.p_b_id AND b.b_id = ?")
           .ok()) {
    return 1;
  }

  // 3. Build the system on a simulated HBase cluster; Blog is the root.
  hbase::Cluster cluster;
  core::SynergySystem system(&cluster, {.roots = {"Blog"}});
  if (!system.Build(catalog, workload).ok()) return 1;
  if (!system.CreateStorage().ok()) return 1;
  std::printf("Views selected by the schema-based/workload-driven mechanism:\n");
  for (const sql::ViewDef* view : system.catalog().Views()) {
    std::printf("  %s\n", view->name.c_str());
  }
  std::printf("Rewritten workload:\n  %s\n",
              system.workload().Find("posts_of_blog")->sql.c_str());

  // 4. Load data (views and indexes are maintained automatically). A tuple
  //    holds one value per column, in the relation's column order.
  hbase::Session s(&cluster);
  for (int b = 1; b <= 3; ++b) {
    (void)system.Load(s, "Blog",
                      {Value(b), Value("blog-" + std::to_string(b))});
    for (int p = 0; p < 4; ++p) {
      (void)system.Load(s, "Post",
                        {Value(b * 10 + p), Value(b), Value("hello world")});
    }
  }

  // 5. Reads use the view; writes are single-lock ACID transactions.
  const sql::WorkloadStatement* q = system.workload().Find("posts_of_blog");
  std::vector<Value> params = {Value(2)};
  hbase::Session qs(&cluster);
  auto result = system.ExecuteRead(
      qs, std::get<sql::SelectStatement>(q->ast), params);
  if (!result.ok()) return 1;
  std::printf("Query returned %zu rows in %.2f simulated ms\n",
              result->row_count, qs.meter().millis());

  auto insert = sql::MustParse(
      "INSERT INTO Post (p_id, p_b_id, p_text) VALUES (?, ?, ?)");
  hbase::Session ws(&cluster);
  auto write = system.ExecuteWrite(
      ws, insert, {Value(99), Value(2), Value("new post")});
  if (!write.ok()) return 1;
  std::printf("Insert committed as txn %lld (%.2f simulated ms); ",
              static_cast<long long>(write->txn_id), ws.meter().millis());

  hbase::Session rs(&cluster);
  auto again = system.ExecuteRead(
      rs, std::get<sql::SelectStatement>(q->ast), params);
  if (!again.ok()) return 1;
  std::printf("the view now serves %zu rows.\n", again->row_count);
  return 0;
}
