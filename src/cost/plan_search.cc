#include "cost/plan_search.h"

#include <optional>
#include <set>
#include <vector>

#include "base/counters.h"
#include "base/str_util.h"
#include "cost/cost_model.h"
#include "obs/span_names.h"
#include "obs/trace.h"

namespace pascalr {

namespace {

std::string LabelFor(const PlannerOptions& o) {
  std::string label = StrFormat("O%d", static_cast<int>(o.level));
  label += o.division == DivisionAlgorithm::kHash ? "/hash-div" : "/sort-div";
  if (o.use_permanent_indexes) label += "/perm";
  if (o.prefer_ordered_indexes) label += "/btree";
  return label;
}

/// True when the catalog holds a fresh permanent index over any component
/// of a relation the query ranges over — otherwise the permanent-index
/// knob cannot change any plan.
bool AnyFreshPermanentIndex(const Database& db, const BoundQuery& query) {
  for (const auto& [var, binding] : query.vars) {
    const Relation* rel = db.FindRelation(binding.relation_name);
    if (rel == nullptr) continue;
    for (size_t i = 0; i < rel->schema().num_components(); ++i) {
      if (db.FindFreshIndex(binding.relation_name,
                            rel->schema().component(i).name) != nullptr) {
        return true;
      }
    }
  }
  return false;
}

/// Cardinality as the cost model sees it: fresh statistics, else the live
/// relation.
double CardinalityFor(const Database& db, const std::string& relation) {
  if (const RelationStats* stats = db.FindFreshStats(relation)) {
    return static_cast<double>(stats->cardinality);
  }
  const Relation* rel = db.FindRelation(relation);
  return rel == nullptr ? 0.0 : static_cast<double>(rel->cardinality());
}

/// A lower bound on any *naive* (O0) candidate's estimated cost: the
/// elements the per-term scans must visit. Naive compilation gives every
/// unique single-list term one scan of its variable's relation and every
/// unique indirect-join term an index-build scan plus a probe pass, so
/// summing those cardinalities never exceeds the cost model's
/// elements_scanned for the compiled plan — and elements_scanned is one
/// addend of the weighted cost. Returns 0 (no pruning) whenever the bound
/// cannot be guaranteed: extended ranges (restricted post-scan passes) or
/// empty or missing relations (runtime adaptation refolds the formula).
/// `sf` is the search's normalized standard form; with no range empty and
/// none extended, no folding fired and it is the plain standard form.
double NaiveScanLowerBound(const Database& db, const StandardForm& sf) {
  for (const auto& [var, binding] : sf.vars) {
    const Relation* rel = db.FindRelation(binding.relation_name);
    if (rel == nullptr || rel->empty()) return 0.0;
  }
  for (const QuantifiedVar& qv : sf.prefix) {
    if (qv.range.IsExtended()) return 0.0;
  }
  double bound = 0.0;
  std::set<std::string> seen;  // the keys AssembleNaive interns by
  for (const Conjunction& conj : sf.matrix.disjuncts) {
    for (const JoinTerm& t : conj.terms) {
      std::vector<std::string> vars = t.Variables();
      if (vars.empty()) continue;
      if (vars.size() == 1) {
        if (!seen.insert("sl#" + vars[0] + "#" + t.ToString()).second) {
          continue;
        }
        bound += CardinalityFor(db, sf.vars.at(vars[0]).relation_name);
        continue;
      }
      if (!seen.insert("ij#" + t.ToString()).second) continue;
      bound += CardinalityFor(db, sf.vars.at(t.lhs.var).relation_name);
      bound += CardinalityFor(db, sf.vars.at(t.rhs.var).relation_name);
    }
  }
  return bound;
}

bool HasQuantifier(const Formula& f) {
  switch (f.kind()) {
    case FormulaKind::kQuant:
      return true;
    case FormulaKind::kNot:
      return HasQuantifier(f.child());
    case FormulaKind::kAnd:
    case FormulaKind::kOr:
      for (const FormulaPtr& c : f.children()) {
        if (HasQuantifier(*c)) return true;
      }
      return false;
    default:
      return false;
  }
}

}  // namespace

Result<PlannedQuery> SearchBestPlan(const Database& db, BoundQuery query,
                                    const PlannerOptions& base,
                                    std::vector<SearchCandidate>* costed) {
  ++GlobalCompileCounters().plan_searches;
  TraceSpanGuard trace_span(spans::kPlanSearch);
  // The physical knobs that can matter for this query and catalog:
  // divisions only differ when a quantifier can survive to the
  // combination phase, permanent indexes only when the catalog has one.
  std::vector<DivisionAlgorithm> divisions = {DivisionAlgorithm::kHash};
  if (query.selection.wff != nullptr && HasQuantifier(*query.selection.wff)) {
    divisions.push_back(DivisionAlgorithm::kSort);
  }
  std::vector<bool> perm_choices = {false};
  if (AnyFreshPermanentIndex(db, query)) perm_choices.push_back(true);

  // Normalize once for every candidate: the standard form, rule-1 folding
  // and its verdicts do not depend on the level or the knobs.
  Result<NormalizedQuery> normalized = NormalizeQuery(db, std::move(query));

  std::optional<PlannedQuery> best;
  PlannerOptions best_options;
  Status last_error = Status::OK();
  std::string table;

  // Mode-aware ranking: a session that executes the streamed combination
  // should pay the streamed price, so candidates are ranked by the
  // pipelined work estimate whenever the session will run pipelined; the
  // materializing estimate stays the ranking for materializing sessions
  // (and the reference both prices are validated against).
  const bool rank_pipelined = base.pipeline;
  auto rank = [rank_pipelined](const CostEstimate& est) {
    return rank_pipelined ? est.pipelined_weighted_cost : est.weighted_cost;
  };
  // The label the materializing metric would have chosen, kept to log
  // ranking flips in the candidate table. Same tie-break as the real
  // ranking: equal costs go to the lowest level.
  std::string best_mat_label;
  double best_mat_cost = 0.0;
  OptLevel best_mat_level = OptLevel::kAuto;
  bool have_mat = false;

  // Search-space pruning: levels are visited from the strongest strategy
  // down, carrying the best weighted cost so far; a candidate whose scan
  // lower bound already exceeds it cannot win, so its compilation is
  // skipped. Only the naive level has a per-candidate bound worth having
  // (its per-term scans dwarf everything once a grouped plan is costed).
  const double naive_bound =
      normalized.ok() ? NaiveScanLowerBound(db, normalized->sf) : 0.0;
  size_t pruned = 0;

  for (int level = 4; level >= 0; --level) {
    // CompileLevel once per level, on the first candidate that is not
    // pruned, and ApplyPhysicalKnobs once per permanent-index choice; the
    // other candidates patch the knobs that do not change the scans,
    // structures or join trees (division, ordered indexes) onto this one
    // plan and re-cost it.
    std::optional<Result<PlannedQuery>> compiled;
    std::vector<bool> compiled_ordered;  // the compiler's own index choice
    for (bool perm : perm_choices) {
      // The pair's knobs are applied on its first costed candidate. With
      // no transient index builds the btree variant would be an exact
      // duplicate, so it is skipped. Note the btree dimension is
      // currently dominated: the compiler already picks ordered indexes
      // wherever a range probe needs one, so forcing the rest ordered
      // only adds log factors — the knob stays in the search space for
      // when the cost model learns a case where ordered transient indexes
      // win (e.g. sharing one index across eq and range probes).
      bool knobs_applied = false;
      bool any_transient_indexes = false;
      for (bool ordered : {false, true}) {
        if (ordered && !any_transient_indexes) continue;
        // One collection-phase walk per (level, perm, ordered) group,
        // shared by its division variants: the walk reads the index
        // flags, never the division algorithm. The unordered group reuses
        // the join-order DP's walk when the DP needed one.
        CollectionCost walk;
        for (DivisionAlgorithm division : divisions) {
          PlannerOptions options = base;
          options.level = static_cast<OptLevel>(level);
          options.division = division;
          options.use_permanent_indexes = perm;
          options.prefer_ordered_indexes = ordered;

          // Sound under both rankings: the bound is a lower bound on
          // elements_scanned, which is an addend of the materializing
          // AND the pipelined work estimates.
          if (level == 0 && naive_bound > 0.0 && best.has_value() &&
              naive_bound >= rank(best->estimate)) {
            ++pruned;
            continue;
          }

          // One per costed candidate, as if each were a standalone plan.
          ++GlobalCompileCounters().plans;
          if (!compiled.has_value()) {
            TraceSpanGuard plan_span(spans::kPlan, nullptr,
                                     std::string(OptLevelToString(
                                         options.level)));
            compiled = normalized.ok()
                           ? CompileLevel(db, normalized->sf.Clone(),
                                          &*normalized, options)
                           : Result<PlannedQuery>(normalized.status());
            if (compiled->ok()) {
              for (const IndexBuildSpec& spec : (*compiled)->plan.indexes) {
                compiled_ordered.push_back(spec.ordered);
              }
            }
          }
          if (!compiled->ok()) {
            last_error = compiled->status();
            table += "  " + LabelFor(options) +
                     ": failed: " + compiled->status().ToString() + "\n";
            continue;
          }
          PlannedQuery& planned = compiled->value();
          QueryPlan& plan = planned.plan;
          if (!knobs_applied) {
            // Undo the previous pair's btree patch: the unordered variant,
            // which always comes first in a pair, keeps the compiler's
            // own index kinds.
            for (size_t i = 0; i < plan.indexes.size(); ++i) {
              plan.indexes[i].ordered = compiled_ordered[i];
            }
            ApplyPhysicalKnobs(db, options, &planned, &walk);
            knobs_applied = true;
            for (const IndexBuildSpec& spec : plan.indexes) {
              if (!IndexBorrowsPermanent(plan, db, spec)) {
                any_transient_indexes = true;
              }
            }
          }
          if (!walk.valid) {
            // The group's first costed candidate: patch it and walk it.
            if (ordered) {
              for (IndexBuildSpec& spec : plan.indexes) spec.ordered = true;
            }
            EstimateStructureSizes(plan, db, &walk);
          }
          plan.division = division;
          const CostEstimate estimate = EstimatePlanCost(plan, db, &walk);
          // Levels run 4 -> 0 but exact ties still choose the lowest
          // level, as the ascending enumeration used to.
          bool better = !best.has_value() ||
                        rank(estimate) < rank(best->estimate) ||
                        (rank(estimate) == rank(best->estimate) &&
                         options.level < best_options.level);
          if (!have_mat || estimate.weighted_cost < best_mat_cost ||
              (estimate.weighted_cost == best_mat_cost &&
               options.level < best_mat_level)) {
            have_mat = true;
            best_mat_cost = estimate.weighted_cost;
            best_mat_level = options.level;
            best_mat_label = LabelFor(options);
          }
          table += StrFormat(
              "  %-22s estimated work %llu (weighted %.0f, pipelined "
              "%.0f)\n",
              LabelFor(options).c_str(),
              static_cast<unsigned long long>(
                  estimate.predicted.TotalWork()),
              estimate.weighted_cost, estimate.pipelined_weighted_cost);
          auto snapshot = [&] {
            PlannedQuery copy = ClonePlannedQuery(planned);
            copy.estimate = estimate;
            return copy;
          };
          if (costed != nullptr) costed->push_back({options, snapshot()});
          if (better) {
            best = snapshot();
            best_options = options;
          }
        }
      }
    }
  }

  if (!best.has_value()) {
    if (last_error.ok()) {
      return Status::Internal("plan search produced no candidate");
    }
    return last_error;
  }
  best->cost_based = true;
  if (pruned > 0) {
    table += StrFormat(
        "  pruned %zu candidate(s): O0 scan lower bound %.0f exceeds the "
        "best cost\n",
        pruned, naive_bound);
  }
  if (rank_pipelined) {
    table += "  ranking: pipelined work (session executes the streamed "
             "combination)\n";
    // "Among costed candidates": a pruned O0 candidate was never costed,
    // so its materializing price is unknown by design.
    if (have_mat && best_mat_label != LabelFor(best_options)) {
      table += StrFormat(
          "  ranking flip: materializing ranking (among costed candidates) "
          "would choose %s\n",
          best_mat_label.c_str());
    }
  }
  best->cost_candidates =
      table + "  chosen: " + LabelFor(best_options) + "\n";
  return std::move(best).value();
}

}  // namespace pascalr
