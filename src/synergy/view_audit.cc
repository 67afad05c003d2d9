#include "synergy/view_audit.h"

#include <algorithm>
#include <sstream>

#include "exec/executor.h"

namespace synergy::core {

namespace {

constexpr char kFieldSep = '\x1f';

std::string Fingerprint(const std::vector<Value>& values) {
  std::string out;
  for (const Value& v : values) {
    if (v.is_null()) {
      out.push_back('\0');
    } else {
      out += v.ToString();
    }
    out += kFieldSep;
  }
  return out;
}

/// Rows of `a` (sorted) that are absent from `b` (sorted), as multisets.
size_t MultisetDifference(const std::vector<std::string>& a,
                          const std::vector<std::string>& b) {
  std::vector<std::string> diff;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(diff));
  return diff.size();
}

}  // namespace

bool ViewAuditReport::consistent() const {
  return std::all_of(views.begin(), views.end(),
                     [](const ViewAuditEntry& v) { return v.consistent(); });
}

std::string ViewAuditReport::ToString() const {
  std::ostringstream out;
  for (const ViewAuditEntry& v : views) {
    out << v.view << ": view=" << v.view_rows << " join=" << v.join_rows
        << " marked=" << v.marked_rows << " missing=" << v.missing_rows
        << " extra=" << v.extra_rows
        << (v.consistent() ? " [ok]" : " [INCONSISTENT]") << "\n";
  }
  return out.str();
}

sql::SelectStatement ViewJoinStatement(const sql::ViewDef& view,
                                       const sql::Catalog& catalog) {
  sql::SelectStatement stmt;
  for (size_t i = 0; i < view.relations.size(); ++i) {
    const std::string alias = "t" + std::to_string(i);
    stmt.from.push_back(sql::TableRef{view.relations[i], alias});
    const sql::RelationDef* rel = catalog.FindRelation(view.relations[i]);
    if (rel == nullptr) continue;  // caught later: empty select list
    for (const sql::Column& col : rel->columns) {
      sql::SelectItem item;
      item.column = sql::ColumnRef{alias, col.name};
      item.output_name = col.name;
      stmt.items.push_back(std::move(item));
    }
    if (i == 0) continue;
    const sql::ForeignKey& fk = view.edges[i];
    const sql::RelationDef* parent = catalog.FindRelation(view.relations[i - 1]);
    const std::string parent_alias = "t" + std::to_string(i - 1);
    for (size_t j = 0; j < fk.columns.size() && parent != nullptr &&
                       j < parent->primary_key.size();
         ++j) {
      sql::Predicate pred;
      pred.lhs = sql::Operand::Col(sql::ColumnRef{alias, fk.columns[j]});
      pred.op = sql::CompareOp::kEq;
      pred.rhs = sql::Operand::Col(
          sql::ColumnRef{parent_alias, parent->primary_key[j]});
      stmt.where.push_back(std::move(pred));
    }
  }
  return stmt;
}

std::string ViewJoinSql(const sql::ViewDef& view, const sql::Catalog& catalog) {
  return ViewJoinStatement(view, catalog).ToString();
}

StatusOr<ViewAuditReport> AuditViewConsistency(hbase::Session& s,
                                               exec::TableAdapter* adapter) {
  const sql::Catalog& catalog = adapter->catalog();
  exec::Executor executor(adapter);
  ViewAuditReport report;
  for (const sql::ViewDef* view : catalog.Views()) {
    ViewAuditEntry entry;
    entry.view = view->name;

    // The defining join over the base tables. Hash joins are forced so the
    // audit does not read the view (or its indexes) it is checking.
    const sql::SelectStatement stmt = ViewJoinStatement(*view, catalog);
    exec::ExecOptions opts;
    opts.collect_rows = true;
    opts.detect_dirty = false;
    opts.force_hash_join = true;
    StatusOr<exec::QueryResult> joined_or =
        executor.ExecuteSelect(s, stmt, {}, opts);
    if (!joined_or.ok()) {
      return Status(joined_or.status().code(),
                    "auditing " + view->name + " (defining join `" +
                        stmt.ToString() + "`): " +
                        joined_or.status().message());
    }
    exec::QueryResult& joined = *joined_or;
    std::vector<std::string> join_rows;
    join_rows.reserve(joined.rows.size());
    for (const std::vector<Value>& row : joined.rows) {
      join_rows.push_back(Fingerprint(row));
    }
    entry.join_rows = join_rows.size();

    // The view's stored rows, in the same (storage) column order.
    SYNERGY_ASSIGN_OR_RETURN(scanner, adapter->ScanAll(s, view->name));
    std::vector<std::string> view_rows;
    exec::SlotRow row;
    while (true) {
      StatusOr<bool> more_or = scanner.Next(&row);
      if (!more_or.ok()) {
        return Status(more_or.status().code(),
                      "auditing " + view->name + " (storage scan): " +
                          more_or.status().message());
      }
      const bool more = *more_or;
      if (!more) break;
      view_rows.push_back(Fingerprint(row.values));
      if (row.marked) ++entry.marked_rows;
    }
    entry.view_rows = view_rows.size();

    std::sort(join_rows.begin(), join_rows.end());
    std::sort(view_rows.begin(), view_rows.end());
    entry.missing_rows = MultisetDifference(join_rows, view_rows);
    entry.extra_rows = MultisetDifference(view_rows, join_rows);
    report.views.push_back(std::move(entry));
  }
  return report;
}

}  // namespace synergy::core
