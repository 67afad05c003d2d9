// Name -> slot helpers for tests. exec::Tuple is positional (one value per
// RelationDef column, in schema order); these let a test name the columns
// it sets and reads.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "exec/row_codec.h"
#include "hbase/cluster.h"
#include "sql/catalog.h"

namespace synergy::testing {

using NamedValues = std::vector<std::pair<std::string, Value>>;

/// A row of `rel` with each named column at its slot; unnamed columns stay
/// NULL. An unknown column fails the calling test.
inline exec::Tuple MakeTuple(const sql::RelationDef& rel,
                             const NamedValues& values) {
  exec::Tuple tuple(rel.columns.size());
  for (const auto& [column, value] : values) {
    const int slot = rel.ColumnIndex(column);
    if (slot < 0) {
      ADD_FAILURE() << "no column " << column << " in " << rel.name;
      continue;
    }
    tuple[static_cast<size_t>(slot)] = value;
  }
  return tuple;
}

inline exec::Tuple MakeTuple(const sql::Catalog& catalog,
                             const std::string& relation,
                             const NamedValues& values) {
  const sql::RelationDef* rel = catalog.FindRelation(relation);
  if (rel == nullptr) {
    ADD_FAILURE() << "no relation " << relation;
    return {};
  }
  return MakeTuple(*rel, values);
}

/// The value of `column` in `tuple`, a row of `rel`.
inline const Value& ColumnValue(const sql::RelationDef& rel,
                                const exec::Tuple& tuple,
                                const std::string& column) {
  return tuple.at(static_cast<size_t>(rel.ColumnIndex(column)));
}

/// Loads one named-column row through `system` (anything with catalog()
/// and Load(session, relation, tuple), e.g. core::SynergySystem).
template <typename System>
Status LoadRow(System& system, hbase::Session& s, const std::string& relation,
               const NamedValues& values) {
  return system.Load(s, relation,
                     MakeTuple(system.catalog(), relation, values));
}

}  // namespace synergy::testing
