#include "exec/table_adapter.h"

namespace synergy::exec {
StatusOr<bool> TupleScanner::Next(SlotRow* out) {
  hbase::RowResult row;
  while (scanner_.Next(&row)) {
    // Single pass over the (few) columns: pick out data + mark together.
    const std::string* data = nullptr;
    out->marked = false;
    for (const auto& [qual, value] : row.columns) {
      if (qual == kDataQualifier) {
        data = &value;
      } else if (qual == kMarkQualifier) {
        out->marked = value == "1";
      }
    }
    if (data == nullptr) continue;  // e.g. mark-only residue
    SYNERGY_RETURN_IF_ERROR(DecodeRowSlots(columns_, slot_map_, num_slots_,
                                           *data, &out->values));
    return true;
  }
  SYNERGY_RETURN_IF_ERROR(scanner_.status());
  return false;
}

Status TableAdapter::CreateStorage(const std::string& relation) {
  const sql::RelationDef* rel = catalog_->FindRelation(relation);
  if (rel == nullptr) return Status::NotFound("relation " + relation);
  SYNERGY_RETURN_IF_ERROR(cluster_->CreateTable({.name = relation}));
  for (const sql::IndexDef* ix : catalog_->IndexesFor(relation)) {
    SYNERGY_RETURN_IF_ERROR(cluster_->CreateTable({.name = ix->name}));
  }
  return Status::Ok();
}

Status TableAdapter::Insert(hbase::Session& s, const std::string& relation,
                            const Tuple& tuple) {
  const sql::RelationDef* rel = catalog_->FindRelation(relation);
  if (rel == nullptr) return Status::NotFound("relation " + relation);
  if (tuple.size() != rel->columns.size()) {
    return Status::InvalidArgument(
        "tuple has " + std::to_string(tuple.size()) + " values; relation " +
        relation + " has " + std::to_string(rel->columns.size()) + " columns");
  }
  SYNERGY_ASSIGN_OR_RETURN(key, EncodePkKey(*rel, tuple));
  SYNERGY_RETURN_IF_ERROR(cluster_->Put(
      s, relation, key, {{kDataQualifier, EncodeRowValue(*rel, tuple)}}));
  return WriteIndexRows(s, *rel, tuple);
}

Status TableAdapter::WriteIndexRows(hbase::Session& s,
                                    const sql::RelationDef& rel,
                                    const Tuple& tuple) {
  for (const sql::IndexDef* ix : catalog_->IndexesFor(rel.name)) {
    SYNERGY_ASSIGN_OR_RETURN(ikey, EncodeIndexKey(*ix, rel, tuple));
    SYNERGY_RETURN_IF_ERROR(cluster_->Put(
        s, ix->name, ikey,
        {{kDataQualifier, EncodeProjectedValue(ix->covered_slots, tuple)}}));
  }
  return Status::Ok();
}

Status TableAdapter::DeleteIndexRows(hbase::Session& s,
                                     const sql::RelationDef& rel,
                                     const Tuple& tuple) {
  for (const sql::IndexDef* ix : catalog_->IndexesFor(rel.name)) {
    SYNERGY_ASSIGN_OR_RETURN(ikey, EncodeIndexKey(*ix, rel, tuple));
    SYNERGY_RETURN_IF_ERROR(cluster_->Delete(s, ix->name, ikey));
  }
  return Status::Ok();
}

StatusOr<bool> TableAdapter::GetByPk(hbase::Session& s,
                                     const std::string& relation,
                                     const std::vector<Value>& pk_values,
                                     SlotRow* out) {
  const sql::RelationDef* rel = catalog_->FindRelation(relation);
  if (rel == nullptr) return Status::NotFound("relation " + relation);
  EncodePkKeyFromValuesInto(pk_values, &out->key_scratch);
  StatusOr<hbase::RowResult> row = cluster_->Get(s, relation, out->key_scratch);
  if (!row.ok()) {
    if (row.status().code() == StatusCode::kNotFound) return false;
    return row.status();
  }
  auto data = row->columns.find(kDataQualifier);
  if (data == row->columns.end()) return false;
  SYNERGY_RETURN_IF_ERROR(DecodeRowSlots(rel->columns, /*slot_map=*/{},
                                         rel->columns.size(), data->second,
                                         &out->values));
  auto mark = row->columns.find(kMarkQualifier);
  out->marked = mark != row->columns.end() && mark->second == "1";
  return true;
}

Status TableAdapter::DeleteByPk(hbase::Session& s, const std::string& relation,
                                const std::vector<Value>& pk_values) {
  const sql::RelationDef* rel = catalog_->FindRelation(relation);
  if (rel == nullptr) return Status::NotFound("relation " + relation);
  SlotRow existing;
  SYNERGY_ASSIGN_OR_RETURN(found, GetByPk(s, relation, pk_values, &existing));
  if (!found) return Status::Ok();
  SYNERGY_RETURN_IF_ERROR(DeleteIndexRows(s, *rel, existing.values));
  return cluster_->Delete(s, relation, EncodePkKeyFromValues(pk_values));
}

Status TableAdapter::UpdateByPk(
    hbase::Session& s, const std::string& relation,
    const std::vector<Value>& pk_values,
    const std::vector<std::pair<std::string, Value>>& sets) {
  const sql::RelationDef* rel = catalog_->FindRelation(relation);
  if (rel == nullptr) return Status::NotFound("relation " + relation);
  std::vector<size_t> set_slots;
  set_slots.reserve(sets.size());
  for (const auto& [col, value] : sets) {
    if (rel->IsPrimaryKeyColumn(col)) {
      return Status::InvalidArgument("cannot update PK column " + col);
    }
    const int slot = rel->ColumnIndex(col);
    if (slot < 0) return Status::InvalidArgument("unknown column " + col);
    set_slots.push_back(static_cast<size_t>(slot));
  }
  SlotRow existing;
  SYNERGY_ASSIGN_OR_RETURN(found, GetByPk(s, relation, pk_values, &existing));
  if (!found) {
    return Status::Ok();  // SQL UPDATE of an absent row affects zero rows
  }
  // Remove stale index rows if any indexed column changes.
  Tuple updated = existing.values;
  for (size_t i = 0; i < sets.size(); ++i) {
    updated[set_slots[i]] = sets[i].second;
  }
  for (const sql::IndexDef* ix : catalog_->IndexesFor(relation)) {
    SYNERGY_ASSIGN_OR_RETURN(old_key,
                             EncodeIndexKey(*ix, *rel, existing.values));
    SYNERGY_ASSIGN_OR_RETURN(new_key, EncodeIndexKey(*ix, *rel, updated));
    if (old_key != new_key) {
      SYNERGY_RETURN_IF_ERROR(cluster_->Delete(s, ix->name, old_key));
    }
    SYNERGY_RETURN_IF_ERROR(cluster_->Put(
        s, ix->name, new_key,
        {{kDataQualifier, EncodeProjectedValue(ix->covered_slots, updated)}}));
  }
  return cluster_->Put(
      s, relation, EncodePkKeyFromValues(pk_values),
      {{kDataQualifier, EncodeRowValue(*rel, updated)}});
}

StatusOr<TupleScanner> TableAdapter::ScanAll(hbase::Session& s,
                                             const std::string& relation) {
  const sql::RelationDef* rel = catalog_->FindRelation(relation);
  if (rel == nullptr) return Status::NotFound("relation " + relation);
  SYNERGY_ASSIGN_OR_RETURN(scanner, cluster_->OpenScanner(s, relation));
  return TupleScanner(std::move(scanner), rel->columns, /*slot_map=*/{},
                      rel->columns.size());
}

StatusOr<TupleScanner> TableAdapter::ScanIndexPrefix(
    hbase::Session& s, const std::string& index_name,
    const std::vector<Value>& prefix) {
  const sql::IndexDef* ix = catalog_->FindIndex(index_name);
  if (ix == nullptr) return Status::NotFound("index " + index_name);
  const sql::RelationDef* rel = catalog_->FindRelation(ix->relation);
  if (rel == nullptr) return Status::NotFound("relation " + ix->relation);
  auto [start, stop] = IndexPrefixRange(prefix);
  SYNERGY_ASSIGN_OR_RETURN(scanner,
                           cluster_->OpenScanner(s, index_name, start, stop));
  return TupleScanner(std::move(scanner),
                      ProjectColumns(*rel, ix->covered_columns),
                      ix->covered_slots, rel->columns.size());
}

StatusOr<TupleScanner> TableAdapter::ScanPkPrefix(
    hbase::Session& s, const std::string& relation,
    const std::vector<Value>& prefix) {
  const sql::RelationDef* rel = catalog_->FindRelation(relation);
  if (rel == nullptr) return Status::NotFound("relation " + relation);
  auto [start, stop] = IndexPrefixRange(prefix);
  SYNERGY_ASSIGN_OR_RETURN(scanner,
                           cluster_->OpenScanner(s, relation, start, stop));
  return TupleScanner(std::move(scanner), rel->columns, /*slot_map=*/{},
                      rel->columns.size());
}

Status TableAdapter::MarkRow(hbase::Session& s, const std::string& relation,
                             const std::vector<Value>& pk_values, bool marked) {
  return cluster_->Put(s, relation, EncodePkKeyFromValues(pk_values),
                       {{kMarkQualifier, marked ? "1" : "0"}});
}

Status TableAdapter::SetMarkWithIndexes(hbase::Session& s,
                                        const std::string& relation,
                                        const std::vector<Value>& pk_values,
                                        bool marked) {
  const sql::RelationDef* rel = catalog_->FindRelation(relation);
  if (rel == nullptr) return Status::NotFound("relation " + relation);
  SYNERGY_RETURN_IF_ERROR(MarkRow(s, relation, pk_values, marked));
  SlotRow existing;
  SYNERGY_ASSIGN_OR_RETURN(found, GetByPk(s, relation, pk_values, &existing));
  if (!found) return Status::Ok();
  for (const sql::IndexDef* ix : catalog_->IndexesFor(relation)) {
    SYNERGY_ASSIGN_OR_RETURN(ikey, EncodeIndexKey(*ix, *rel, existing.values));
    SYNERGY_RETURN_IF_ERROR(cluster_->Put(
        s, ix->name, ikey, {{kMarkQualifier, marked ? "1" : "0"}}));
  }
  return Status::Ok();
}

size_t TableAdapter::RowCount(const std::string& relation) const {
  return cluster_->ApproxRowCount(relation);
}

}  // namespace synergy::exec
