// Relational catalog: relations, primary/foreign keys, covered indexes.
//
// Models §II-A of the paper: a relation R is a set of attributes with a
// primary key PK(R) and a set of foreign keys F(R); an index X(R) is a set of
// covered attributes indexed on a tuple Xtuple(R), with index key
// Xtuple(R) ++ PK(R). Views are registered as relations plus ViewDef
// metadata (their member path) so the executor can treat them uniformly.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace synergy::sql {

struct Column {
  std::string name;
  DataType type = DataType::kString;
};

struct ForeignKey {
  /// Referencing columns, positionally matching the referenced PK.
  std::vector<std::string> columns;
  std::string ref_relation;
};

struct RelationDef {
  std::string name;
  std::vector<Column> columns;
  // Defaulted so designated initializers may omit them (keeps aggregate
  // construction clean under -Wextra's -Wmissing-field-initializers).
  std::vector<std::string> primary_key = {};
  std::vector<ForeignKey> foreign_keys = {};

  bool HasColumn(const std::string& col) const;
  std::optional<DataType> ColumnType(const std::string& col) const;
  /// Position of `col` in `columns`, or -1. Slot index for slot-based rows.
  int ColumnIndex(const std::string& col) const;
  std::vector<DataType> PrimaryKeyTypes() const;
  bool IsPrimaryKeyColumn(const std::string& col) const;
};

/// Coarse statistics hint for planner cardinality estimates.
enum class IndexCardinality {
  kUnknown,  // no statistics: assume rows/100 per key prefix
  kLow,      // few distinct keys (e.g. subject): assume rows/20
  kHigh,     // many distinct keys (e.g. a foreign key): assume rows/1000
};

struct IndexDef {
  std::string name;
  std::string relation;
  /// Xtuple(R): the attributes the index is indexed upon.
  std::vector<std::string> indexed_columns;
  /// X(R): all covered attributes (includes indexed columns and the PK).
  std::vector<std::string> covered_columns = {};
  /// Slot of each covered column in the relation's columns; set by
  /// Catalog::AddIndex, so encoders never look columns up by name per row.
  std::vector<int> covered_slots = {};
  /// True when the indexed tuple uniquely identifies a row (e.g. c_uname).
  bool unique = false;
  IndexCardinality cardinality = IndexCardinality::kUnknown;
};

/// Metadata for a materialized view (a path of relations in a rooted tree).
struct ViewDef {
  std::string name;
  /// Relation names, root-most first; the view key is the last relation's PK.
  std::vector<std::string> relations;
  /// For i>0, the FK columns of relations[i] referencing relations[i-1].
  std::vector<ForeignKey> edges;
  std::string root;  // root relation of the rooted tree this path came from
};

class Catalog {
 public:
  Status AddRelation(RelationDef def);
  Status AddIndex(IndexDef def);
  Status AddView(ViewDef view, RelationDef storage);

  const RelationDef* FindRelation(const std::string& name) const;
  const IndexDef* FindIndex(const std::string& name) const;
  const ViewDef* FindView(const std::string& name) const;
  bool IsView(const std::string& relation) const;

  std::vector<const IndexDef*> IndexesFor(const std::string& relation) const;
  std::vector<const RelationDef*> Relations() const;
  std::vector<const ViewDef*> Views() const;

  /// The FK of `child` that references `parent`'s PK, if any.
  const ForeignKey* FindForeignKey(const std::string& child,
                                   const std::string& parent) const;

 private:
  std::map<std::string, RelationDef> relations_;
  std::map<std::string, IndexDef> indexes_;
  std::map<std::string, ViewDef> views_;
};

}  // namespace synergy::sql
