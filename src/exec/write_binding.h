// Binding of single-row write statements (INSERT/UPDATE/DELETE with all key
// attributes specified) to typed operations — shared by every evaluated
// system's write path.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "exec/row_codec.h"
#include "sql/ast.h"
#include "sql/catalog.h"

namespace synergy::exec {

struct BoundWrite {
  enum class Kind { kInsert, kUpdate, kDelete };
  Kind kind = Kind::kInsert;
  std::string relation;
  Tuple tuple;                   // insert: the full, schema-ordered tuple
  std::vector<Value> pk_values;  // update/delete: the row key
  std::vector<std::pair<std::string, Value>> sets;  // update

  /// "table/rowkey" identifier (MVCC write sets).
  std::string WriteKey(const sql::Catalog& catalog) const;
};

/// Binds a parameter-free (already literal-bound) write statement. INSERT
/// column names are resolved to slots here, once per statement; a column the
/// relation lacks is rejected with kInvalidArgument. Write statements that
/// do not specify every key attribute are rejected with kUnimplemented (§IV
/// system limitations).
StatusOr<BoundWrite> BindWriteStatement(const sql::Statement& bound_stmt,
                                        const sql::Catalog& catalog);

}  // namespace synergy::exec
