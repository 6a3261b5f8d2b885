#include "exec/construction.h"

namespace pascalr {

Result<std::vector<int>> ResolveProjectionColumns(const QueryPlan& plan,
                                                  const RefRelation& table) {
  return ResolveProjectionColumns(plan, table.columns());
}

Result<std::vector<int>> ResolveProjectionColumns(
    const QueryPlan& plan, const std::vector<std::string>& columns) {
  std::vector<int> column_of_var;
  for (const OutputComponent& oc : plan.sf.projection) {
    int col = -1;
    for (size_t i = 0; i < columns.size(); ++i) {
      if (columns[i] == oc.var) {
        col = static_cast<int>(i);
        break;
      }
    }
    if (col < 0) {
      return Status::Internal("combination result lacks column '" + oc.var +
                              "'");
    }
    column_of_var.push_back(col);
  }
  return column_of_var;
}

ResultDedup::ResultDedup(const QueryPlan& plan,
                         const std::vector<int>& column_of_var,
                         const Database* db, ExecStats* stats)
    : db_(db), stats_(stats) {
  projection_.reserve(plan.sf.projection.size());
  for (size_t i = 0; i < plan.sf.projection.size(); ++i) {
    projection_.push_back(
        {static_cast<size_t>(column_of_var[i]),
         static_cast<size_t>(plan.sf.projection[i].component_pos)});
  }
  values_.resize(projection_.size());
}

Result<bool> ResultDedup::Next(const RefRow& row, Tuple* out) {
  const size_t arity = projection_.size();
  uint64_t hash = Tuple::kHashSeed;
  for (size_t i = 0; i < arity; ++i) {
    PASCALR_ASSIGN_OR_RETURN(const Tuple* tuple,
                             db_->Deref(row[projection_[i].column]));
    if (stats_ != nullptr) ++stats_->dereferences;
    values_[i] = &tuple->at(projection_[i].pos);
    hash = HashCombine(hash, values_[i]->Hash());
  }
  // An equal hash is confirmed value by value through the candidate's
  // stored refs. A failed dereference stops the probe (nothing is
  // inserted) and is returned below.
  Status error;
  auto same_tuple = [&](uint32_t entry) {
    const Ref* first = refs_.data() + entry * arity;
    for (size_t i = 0; i < arity; ++i) {
      const Component& c = projection_[i];
      if (first[i] == row[c.column]) continue;
      Result<const Tuple*> tuple = db_->Deref(first[i]);
      if (!tuple.ok()) {
        error = tuple.status();
        return true;
      }
      if ((*tuple)->at(c.pos) != *values_[i]) return false;
    }
    return true;
  };
  const bool fresh = table_.FindOrInsert(hash, same_tuple).second;
  PASCALR_RETURN_IF_ERROR(error);
  if (!fresh) return false;
  std::vector<Value> values;
  values.reserve(arity);
  for (size_t i = 0; i < arity; ++i) {
    refs_.push_back(row[projection_[i].column]);
    values.push_back(*values_[i]);
  }
  *out = Tuple(std::move(values));
  return true;
}

void ResultDedup::Clear() {
  table_.Clear();
  refs_ = {};
}

Result<std::vector<Tuple>> ExecuteConstruction(const QueryPlan& plan,
                                               const RefRelation& table,
                                               const Database& db,
                                               ExecStats* stats) {
  PASCALR_ASSIGN_OR_RETURN(std::vector<int> column_of_var,
                           ResolveProjectionColumns(plan, table));
  ResultDedup dedup(plan, column_of_var, &db, stats);
  std::vector<Tuple> out;
  Tuple tuple;
  for (const RefRow& row : table.rows()) {
    PASCALR_ASSIGN_OR_RETURN(bool fresh, dedup.Next(row, &tuple));
    if (fresh) out.push_back(std::move(tuple));
  }
  return out;
}

}  // namespace pascalr
