#include "synergy/view_maintenance.h"

#include <algorithm>

namespace synergy::core {

ViewMaintainer::ViewMaintainer(exec::TableAdapter* adapter)
    : adapter_(adapter) {
  const sql::Catalog& catalog = adapter_->catalog();
  for (const sql::ViewDef* view : catalog.Views()) {
    const sql::RelationDef* storage = catalog.FindRelation(view->name);
    ChainPlan plan{.view = view,
                   .width = storage->columns.size(),
                   .member_slots = {},
                   .fk_slots = {}};
    for (size_t i = 0; i < view->relations.size(); ++i) {
      const sql::RelationDef* member =
          catalog.FindRelation(view->relations[i]);
      std::vector<int>& slots = plan.member_slots.emplace_back();
      for (const sql::Column& col : member->columns) {
        slots.push_back(storage->ColumnIndex(col.name));
      }
      std::vector<int>& fk = plan.fk_slots.emplace_back();
      if (i == 0) continue;
      for (const std::string& col : view->edges[i].columns) {
        fk.push_back(member->ColumnIndex(col));
      }
    }
    plans_.push_back(std::move(plan));
  }
}

bool ViewMaintainer::UpdateApplies(const sql::ViewDef& view,
                                   const std::string& relation) {
  return std::find(view.relations.begin(), view.relations.end(), relation) !=
         view.relations.end();
}

Status ViewMaintainer::ApplyInsert(hbase::Session& s,
                                   const std::string& relation,
                                   const exec::Tuple& tuple) {
  exec::SlotRow parent;
  std::vector<Value> parent_pk;
  for (const ChainPlan& plan : plans_) {
    const sql::ViewDef& view = *plan.view;
    if (!InsertApplies(view, relation)) continue;
    // Walk the FK chain from the inserted (last) relation up to the view
    // head, reading one ancestor tuple per hop and placing each member's
    // values in its view slots.
    const size_t last = view.relations.size() - 1;
    exec::Tuple view_row(plan.width);
    auto place = [&](size_t member, const exec::Tuple& row) {
      const std::vector<int>& slots = plan.member_slots[member];
      for (size_t j = 0; j < slots.size(); ++j) {
        if (slots[j] >= 0) view_row[static_cast<size_t>(slots[j])] = row[j];
      }
    };
    place(last, tuple);
    const exec::Tuple* current = &tuple;
    bool complete = true;
    for (size_t i = last; i >= 1; --i) {
      parent_pk.clear();
      for (const int slot : plan.fk_slots[i]) {
        if (slot < 0 || (*current)[static_cast<size_t>(slot)].is_null()) break;
        parent_pk.push_back((*current)[static_cast<size_t>(slot)]);
      }
      if (parent_pk.size() != plan.fk_slots[i].size()) {
        complete = false;
        break;
      }
      SYNERGY_ASSIGN_OR_RETURN(
          found, adapter_->GetByPk(s, view.relations[i - 1], parent_pk,
                                   &parent));
      if (!found) {
        complete = false;  // FK constraints are not enforced (§IV)
        break;
      }
      place(i - 1, parent.values);
      current = &parent.values;
    }
    if (!complete) continue;
    SYNERGY_RETURN_IF_ERROR(adapter_->Insert(s, view.name, view_row));
  }
  return Status::Ok();
}

Status ViewMaintainer::ApplyDelete(hbase::Session& s,
                                   const std::string& relation,
                                   const std::vector<Value>& pk_values) {
  const sql::Catalog& catalog = adapter_->catalog();
  for (const sql::ViewDef* view : catalog.Views()) {
    if (!DeleteApplies(*view, relation)) continue;
    SYNERGY_RETURN_IF_ERROR(adapter_->DeleteByPk(s, view->name, pk_values));
  }
  return Status::Ok();
}

StatusOr<std::vector<ViewMaintainer::AffectedRows>>
ViewMaintainer::FindAffected(hbase::Session& s, const std::string& relation,
                             const std::vector<Value>& pk_values) {
  const sql::Catalog& catalog = adapter_->catalog();
  std::vector<AffectedRows> out;
  exec::SlotRow row;
  for (const sql::ViewDef* view : catalog.Views()) {
    if (!UpdateApplies(*view, relation)) continue;
    AffectedRows affected;
    affected.view = view->name;
    if (view->relations.back() == relation) {
      // The view key is the base key: exactly one row.
      SYNERGY_ASSIGN_OR_RETURN(
          found, adapter_->GetByPk(s, view->name, pk_values, &row));
      if (found) affected.view_pks.push_back(pk_values);
      out.push_back(std::move(affected));
      continue;
    }
    // Mid-path member: locate rows by the member's PK attribute, via a
    // maintenance/view index indexed upon that attribute when present.
    const sql::RelationDef* member = catalog.FindRelation(relation);
    const sql::RelationDef* storage = catalog.FindRelation(view->name);
    if (member == nullptr || member->primary_key.size() != 1) {
      return Status::Unimplemented(
          "multi-column member PK in view maintenance");
    }
    const std::string& attr = member->primary_key.front();
    const sql::IndexDef* via_index = nullptr;
    for (const sql::IndexDef* ix : catalog.IndexesFor(view->name)) {
      if (!ix->indexed_columns.empty() && ix->indexed_columns.front() == attr) {
        via_index = ix;
        break;
      }
    }
    // Slots resolved once per statement, not per scanned row.
    const int attr_slot = storage->ColumnIndex(attr);
    std::vector<size_t> pk_slots;
    for (const std::string& col : storage->primary_key) {
      pk_slots.push_back(static_cast<size_t>(storage->ColumnIndex(col)));
    }
    auto collect = [&](exec::TupleScanner scanner) -> Status {
      while (true) {
        SYNERGY_ASSIGN_OR_RETURN(more, scanner.Next(&row));
        if (!more) break;
        if (attr_slot < 0 ||
            !(row.values[static_cast<size_t>(attr_slot)] == pk_values[0])) {
          continue;
        }
        std::vector<Value> vpk;
        for (size_t i = 0; i < pk_slots.size(); ++i) {
          if (row.values[pk_slots[i]].is_null()) {
            return Status::Internal("view row missing PK column " +
                                    storage->primary_key[i]);
          }
          vpk.push_back(row.values[pk_slots[i]]);
        }
        affected.view_pks.push_back(std::move(vpk));
      }
      return Status::Ok();
    };
    if (via_index != nullptr) {
      SYNERGY_ASSIGN_OR_RETURN(
          scanner,
          adapter_->ScanIndexPrefix(s, via_index->name, {pk_values[0]}));
      SYNERGY_RETURN_IF_ERROR(collect(std::move(scanner)));
    } else {
      SYNERGY_ASSIGN_OR_RETURN(scanner, adapter_->ScanAll(s, view->name));
      SYNERGY_RETURN_IF_ERROR(collect(std::move(scanner)));
    }
    out.push_back(std::move(affected));
  }
  return out;
}

Status ViewMaintainer::UpdateViewRow(
    hbase::Session& s, const std::string& view,
    const std::vector<Value>& view_pk,
    const std::vector<std::pair<std::string, Value>>& sets) {
  const sql::RelationDef* storage = adapter_->catalog().FindRelation(view);
  if (storage == nullptr) return Status::NotFound("view " + view);
  std::vector<std::pair<std::string, Value>> applicable;
  for (const auto& [col, value] : sets) {
    if (storage->HasColumn(col)) applicable.emplace_back(col, value);
  }
  if (applicable.empty()) return Status::Ok();
  return adapter_->UpdateByPk(s, view, view_pk, applicable);
}

}  // namespace synergy::core
