// Typed tuple <-> store bytes (the baseline schema transformation, §II-D).
//
// A relation row is stored under one data qualifier ("d") holding the
// self-describing encoding of all column values in schema order (akin to
// Phoenix's single-cell storage format). The row key is the order-preserving
// encoding of the PK values. An index row's key is the encoding of the
// indexed columns followed by the PK; its value covers the index's covered
// columns.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/status.h"
#include "sql/catalog.h"

namespace synergy::exec {

/// One relation row: a value per `RelationDef::columns` entry, in that
/// order, NULL where absent. Every encoder below expects this full width.
using Tuple = std::vector<Value>;

/// Data qualifier holding the encoded tuple.
inline constexpr char kDataQualifier[] = "d";
/// Dirty-mark qualifier used by the Synergy update protocol (§VIII-B).
inline constexpr char kMarkQualifier[] = "m";

/// Row key for a base-table tuple: encoded PK values in PK order.
StatusOr<std::string> EncodePkKey(const sql::RelationDef& rel,
                                  const Tuple& tuple);
std::string EncodePkKeyFromValues(const std::vector<Value>& pk_values);

/// Index row key: encoded indexed-column values, then PK values.
StatusOr<std::string> EncodeIndexKey(const sql::IndexDef& index,
                                     const sql::RelationDef& rel,
                                     const Tuple& tuple);

/// Scan bounds [start, stop) for an index-prefix lookup on the first
/// `prefix_values.size()` indexed columns.
std::pair<std::string, std::string> IndexPrefixRange(
    const std::vector<Value>& prefix_values);

/// Serializes the tuple's values for `rel.columns` in schema order.
std::string EncodeRowValue(const sql::RelationDef& rel, const Tuple& tuple);

/// Serializes only the tuple's `slots`, in that order (for covered index
/// rows; see IndexDef::covered_slots).
std::string EncodeProjectedValue(const std::vector<int>& slots,
                                 const Tuple& tuple);

/// Decodes the value encoded with `columns` into `out`, which is resized to
/// `num_slots` and NULL-filled first. The i-th decoded column lands in slot
/// `slot_map[i]` (a negative slot discards it); an empty `slot_map` means
/// identity (base rows in schema order). Reuses `out`'s capacity.
Status DecodeRowSlots(const std::vector<sql::Column>& columns,
                      const std::vector<int>& slot_map, size_t num_slots,
                      std::string_view bytes, std::vector<Value>* out);

/// Like EncodePkKeyFromValues but reuses `out`'s capacity (cleared first).
void EncodePkKeyFromValuesInto(const std::vector<Value>& pk_values,
                               std::string* out);

/// Column definitions for a projected (index) encoding.
std::vector<sql::Column> ProjectColumns(
    const sql::RelationDef& rel, const std::vector<std::string>& names);

}  // namespace synergy::exec
