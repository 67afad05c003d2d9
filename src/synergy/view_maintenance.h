// View maintenance (§VII): applicability tests and tuple/key construction
// for insert, delete and update statements against base tables.
#pragma once

#include <string>
#include <vector>

#include "exec/table_adapter.h"
#include "sql/catalog.h"

namespace synergy::core {

class ViewMaintainer {
 public:
  /// Resolves every view's FK and column slots once, so the adapter's
  /// catalog must already hold all views.
  explicit ViewMaintainer(exec::TableAdapter* adapter);

  /// §VII-A applicability: a base insert into R applies to view V iff R is
  /// the last relation of V.
  static bool InsertApplies(const sql::ViewDef& view,
                            const std::string& relation) {
    return !view.relations.empty() && view.relations.back() == relation;
  }
  /// §VII-B: same applicability as insert (no cascading deletes).
  static bool DeleteApplies(const sql::ViewDef& view,
                            const std::string& relation) {
    return InsertApplies(view, relation);
  }
  /// §VII-C: an update applies iff R is anywhere in V's relation sequence.
  static bool UpdateApplies(const sql::ViewDef& view,
                            const std::string& relation);

  /// Propagates a base-table insert to every applicable view: reads the
  /// k-1 ancestor tuples along the FK chain and inserts the joined tuple
  /// (linear in view length, independent of cardinality ratios). `tuple`
  /// is a full row of `relation`, as TableAdapter::Insert requires.
  Status ApplyInsert(hbase::Session& s, const std::string& relation,
                     const exec::Tuple& tuple);

  /// Propagates a base-table delete: the view key equals the base key
  /// (PK(V) = PK of the last relation); view-index rows are removed via the
  /// read-then-delete key construction inside the adapter.
  Status ApplyDelete(hbase::Session& s, const std::string& relation,
                     const std::vector<Value>& pk_values);

  struct AffectedRows {
    std::string view;
    std::vector<std::vector<Value>> view_pks;
  };

  /// Locates the view rows an update to `relation`@pk touches, using a
  /// maintenance index when available and a view scan otherwise.
  StatusOr<std::vector<AffectedRows>> FindAffected(
      hbase::Session& s, const std::string& relation,
      const std::vector<Value>& pk_values);

  /// Applies SET assignments to one view row (column names are shared
  /// between base relations and views).
  Status UpdateViewRow(hbase::Session& s, const std::string& view,
                       const std::vector<Value>& view_pk,
                       const std::vector<std::pair<std::string, Value>>& sets);

 private:
  /// A view's FK chain resolved to slots, built once per view.
  struct ChainPlan {
    const sql::ViewDef* view;
    size_t width;  // the view storage's column count
    /// member_slots[i][j]: view-row slot of column j of relations[i] (-1
    /// when the view lacks it). A MaterializeViewDef view row is the
    /// concatenation of its members' rows, root-most first.
    std::vector<std::vector<int>> member_slots;
    /// fk_slots[i], i >= 1: slots in relations[i] of its FK columns
    /// referencing relations[i-1] (-1 for a column it lacks, which reads
    /// as a dangling FK).
    std::vector<std::vector<int>> fk_slots;
  };

  exec::TableAdapter* adapter_;
  std::vector<ChainPlan> plans_;
};

}  // namespace synergy::core
