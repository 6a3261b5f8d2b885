#include "opt/plan_stamp.h"

namespace pascalr {

namespace {

/// Re-probes one recorded verdict; parameter-carrying restrictions are
/// judged under `bindings`, not the values they were recorded with.
Result<bool> VerdictHolds(const Database& db, const EmptinessVerdict& verdict,
                          const ParamBindings& bindings) {
  if (!RangeHasParams(verdict.range)) {
    return RangeIsEmpty(db, verdict.range) == verdict.was_empty;
  }
  RangeExpr probe = verdict.range.Clone();
  PASCALR_RETURN_IF_ERROR(BindFormulaParams(probe.restriction.get(), bindings));
  return RangeIsEmpty(db, probe) == verdict.was_empty;
}

}  // namespace

bool CardinalityDrifted(uint64_t planned, uint64_t live) {
  if (planned == 0) return live > 0;
  return live >= kCardinalityDriftFactor * planned ||
         live * kCardinalityDriftFactor <= planned;
}

PlanStamp StampPlan(const Database& db, const PlannerOptions& options,
                    const std::vector<std::pair<std::string, RelationId>>&
                        relations) {
  PlanStamp stamp;
  stamp.stats_epoch = db.stats_epoch();
  stamp.options = options;
  for (const auto& [name, id] : relations) {
    const Relation* rel = db.FindRelation(name);
    PlanStamp::RelationMark mark;
    mark.name = name;
    mark.id = id;
    if (rel != nullptr) {
      mark.mod_count = rel->mod_count();
      mark.cardinality = rel->cardinality();
    }
    stamp.relations.push_back(std::move(mark));
  }
  return stamp;
}

Result<PlanValidity> CheckPlan(const Database& db,
                               const PlannerOptions& options,
                               const std::vector<EmptinessVerdict>& verdicts,
                               const ParamBindings& bindings,
                               bool bindings_changed, PlanStamp* stamp) {
  if (db.stats_epoch() != stamp->stats_epoch || options != stamp->options) {
    return PlanValidity::kStale;
  }
  bool data_moved = false;
  for (const PlanStamp::RelationMark& mark : stamp->relations) {
    const Relation* rel = db.FindRelation(mark.name);
    if (rel == nullptr || rel->id() != mark.id) return PlanValidity::kStale;
    if (rel->mod_count() == mark.mod_count) continue;
    if (CardinalityDrifted(mark.cardinality, rel->cardinality())) {
      return PlanValidity::kStale;
    }
    data_moved = true;
  }
  if (!data_moved && !bindings_changed) return PlanValidity::kValid;
  // Unchanged data with new bindings can only flip the verdicts whose
  // restrictions carry parameters; moved data can flip any.
  for (const EmptinessVerdict& verdict : verdicts) {
    if (!data_moved && !RangeHasParams(verdict.range)) continue;
    PASCALR_ASSIGN_OR_RETURN(bool holds, VerdictHolds(db, verdict, bindings));
    if (!holds) return PlanValidity::kStale;
  }
  if (!data_moved) return PlanValidity::kValid;
  for (PlanStamp::RelationMark& mark : stamp->relations) {
    mark.mod_count = db.FindRelation(mark.name)->mod_count();
  }
  return PlanValidity::kRevalidated;
}

}  // namespace pascalr
