#include "sql/catalog.h"

#include <algorithm>

namespace synergy::sql {

bool RelationDef::HasColumn(const std::string& col) const {
  return std::any_of(columns.begin(), columns.end(),
                     [&](const Column& c) { return c.name == col; });
}

std::optional<DataType> RelationDef::ColumnType(const std::string& col) const {
  for (const Column& c : columns) {
    if (c.name == col) return c.type;
  }
  return std::nullopt;
}

int RelationDef::ColumnIndex(const std::string& col) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name == col) return static_cast<int>(i);
  }
  return -1;
}

std::vector<DataType> RelationDef::PrimaryKeyTypes() const {
  std::vector<DataType> types;
  types.reserve(primary_key.size());
  for (const std::string& pk : primary_key) {
    types.push_back(ColumnType(pk).value_or(DataType::kString));
  }
  return types;
}

bool RelationDef::IsPrimaryKeyColumn(const std::string& col) const {
  return std::find(primary_key.begin(), primary_key.end(), col) !=
         primary_key.end();
}

Status Catalog::AddRelation(RelationDef def) {
  if (def.name.empty()) return Status::InvalidArgument("empty relation name");
  if (def.primary_key.empty()) {
    return Status::InvalidArgument("relation " + def.name + " has no PK");
  }
  for (const std::string& pk : def.primary_key) {
    if (!def.HasColumn(pk)) {
      return Status::InvalidArgument("PK column " + pk + " not in relation " +
                                     def.name);
    }
  }
  if (relations_.contains(def.name)) {
    return Status::AlreadyExists("relation " + def.name);
  }
  relations_.emplace(def.name, std::move(def));
  return Status::Ok();
}

Status Catalog::AddIndex(IndexDef def) {
  const RelationDef* rel = FindRelation(def.relation);
  if (rel == nullptr) {
    return Status::NotFound("relation " + def.relation + " for index " +
                            def.name);
  }
  for (const std::string& col : def.indexed_columns) {
    if (!rel->HasColumn(col)) {
      return Status::InvalidArgument("index column " + col + " not in " +
                                     def.relation);
    }
  }
  // Covered columns default to indexed + PK; always include both.
  for (const std::string& col : def.indexed_columns) {
    if (std::find(def.covered_columns.begin(), def.covered_columns.end(),
                  col) == def.covered_columns.end()) {
      def.covered_columns.push_back(col);
    }
  }
  for (const std::string& col : rel->primary_key) {
    if (std::find(def.covered_columns.begin(), def.covered_columns.end(),
                  col) == def.covered_columns.end()) {
      def.covered_columns.push_back(col);
    }
  }
  if (indexes_.contains(def.name)) {
    return Status::AlreadyExists("index " + def.name);
  }
  def.covered_slots.clear();
  for (const std::string& col : def.covered_columns) {
    const int slot = rel->ColumnIndex(col);
    if (slot < 0) {
      return Status::InvalidArgument("covered column " + col + " not in " +
                                     def.relation);
    }
    def.covered_slots.push_back(slot);
  }
  indexes_.emplace(def.name, std::move(def));
  return Status::Ok();
}

Status Catalog::AddView(ViewDef view, RelationDef storage) {
  if (view.name != storage.name) {
    return Status::InvalidArgument("view/storage name mismatch");
  }
  SYNERGY_RETURN_IF_ERROR(AddRelation(std::move(storage)));
  views_.emplace(view.name, std::move(view));
  return Status::Ok();
}

const RelationDef* Catalog::FindRelation(const std::string& name) const {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : &it->second;
}

const IndexDef* Catalog::FindIndex(const std::string& name) const {
  auto it = indexes_.find(name);
  return it == indexes_.end() ? nullptr : &it->second;
}

const ViewDef* Catalog::FindView(const std::string& name) const {
  auto it = views_.find(name);
  return it == views_.end() ? nullptr : &it->second;
}

bool Catalog::IsView(const std::string& relation) const {
  return views_.contains(relation);
}

std::vector<const IndexDef*> Catalog::IndexesFor(
    const std::string& relation) const {
  std::vector<const IndexDef*> out;
  for (const auto& [name, def] : indexes_) {
    if (def.relation == relation) out.push_back(&def);
  }
  return out;
}

std::vector<const RelationDef*> Catalog::Relations() const {
  std::vector<const RelationDef*> out;
  out.reserve(relations_.size());
  for (const auto& [name, def] : relations_) out.push_back(&def);
  return out;
}

std::vector<const ViewDef*> Catalog::Views() const {
  std::vector<const ViewDef*> out;
  out.reserve(views_.size());
  for (const auto& [name, def] : views_) out.push_back(&def);
  return out;
}

const ForeignKey* Catalog::FindForeignKey(const std::string& child,
                                          const std::string& parent) const {
  const RelationDef* rel = FindRelation(child);
  if (rel == nullptr) return nullptr;
  for (const ForeignKey& fk : rel->foreign_keys) {
    if (fk.ref_relation == parent) return &fk;
  }
  return nullptr;
}

}  // namespace synergy::sql
