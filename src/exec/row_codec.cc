#include "exec/row_codec.h"

namespace synergy::exec {

StatusOr<std::string> EncodePkKey(const sql::RelationDef& rel,
                                  const Tuple& tuple) {
  std::vector<Value> pk;
  pk.reserve(rel.primary_key.size());
  for (const std::string& col : rel.primary_key) {
    const Value& v = tuple[static_cast<size_t>(rel.ColumnIndex(col))];
    if (v.is_null()) {
      return Status::InvalidArgument("NULL or missing PK column " + col +
                                     " for relation " + rel.name);
    }
    pk.push_back(v);
  }
  return codec::EncodeKey(pk);
}

std::string EncodePkKeyFromValues(const std::vector<Value>& pk_values) {
  return codec::EncodeKey(pk_values);
}

StatusOr<std::string> EncodeIndexKey(const sql::IndexDef& index,
                                     const sql::RelationDef& rel,
                                     const Tuple& tuple) {
  std::vector<Value> parts;
  parts.reserve(index.indexed_columns.size() + rel.primary_key.size());
  for (const std::string& col : index.indexed_columns) {
    parts.push_back(tuple[static_cast<size_t>(rel.ColumnIndex(col))]);
  }
  for (const std::string& col : rel.primary_key) {
    const Value& v = tuple[static_cast<size_t>(rel.ColumnIndex(col))];
    if (v.is_null()) {
      return Status::InvalidArgument("NULL PK column " + col +
                                     " while building index key");
    }
    parts.push_back(v);
  }
  return codec::EncodeKey(parts);
}

std::pair<std::string, std::string> IndexPrefixRange(
    const std::vector<Value>& prefix_values) {
  const std::string start = codec::EncodeKey(prefix_values);
  return {start, codec::PrefixSuccessor(start)};
}

std::string EncodeRowValue(const sql::RelationDef& rel, const Tuple& tuple) {
  std::string out;
  for (size_t i = 0; i < rel.columns.size(); ++i) {
    codec::EncodeValue(tuple[i], &out);
  }
  return out;
}

std::string EncodeProjectedValue(const std::vector<int>& slots,
                                 const Tuple& tuple) {
  std::string out;
  for (const int slot : slots) {
    codec::EncodeValue(tuple[static_cast<size_t>(slot)], &out);
  }
  return out;
}

Status DecodeRowSlots(const std::vector<sql::Column>& columns,
                      const std::vector<int>& slot_map, size_t num_slots,
                      std::string_view bytes, std::vector<Value>* out) {
  out->clear();
  out->resize(num_slots);  // all slots NULL
  const bool identity = slot_map.empty();
  for (size_t i = 0; i < columns.size(); ++i) {
    SYNERGY_ASSIGN_OR_RETURN(v, codec::DecodeValue(&bytes, columns[i].type));
    const int slot = identity ? static_cast<int>(i) : slot_map[i];
    if (slot >= 0) (*out)[static_cast<size_t>(slot)] = std::move(v);
  }
  if (!bytes.empty()) {
    return Status::InvalidArgument("trailing bytes in row value");
  }
  return Status::Ok();
}

void EncodePkKeyFromValuesInto(const std::vector<Value>& pk_values,
                               std::string* out) {
  codec::EncodeKeyInto(pk_values, out);
}

std::vector<sql::Column> ProjectColumns(const sql::RelationDef& rel,
                                        const std::vector<std::string>& names) {
  std::vector<sql::Column> out;
  out.reserve(names.size());
  for (const std::string& name : names) {
    out.push_back(
        sql::Column{name, rel.ColumnType(name).value_or(DataType::kString)});
  }
  return out;
}

}  // namespace synergy::exec
