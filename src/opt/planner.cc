#include "opt/planner.h"

#include "base/counters.h"
#include "cost/plan_search.h"
#include "exec/eval_util.h"
#include "joinorder/attach.h"
#include "normalize/fold_empty.h"
#include "normalize/standard_form.h"
#include "obs/span_names.h"
#include "obs/trace.h"
#include "opt/params.h"
#include "opt/scan_plan.h"

namespace pascalr {

bool RangeIsEmpty(const Database& db, const RangeExpr& range) {
  const Relation* rel = db.FindRelation(range.relation);
  if (rel == nullptr || rel->empty()) return true;
  if (!range.IsExtended()) return false;
  bool found = false;
  rel->Scan([&](const Ref&, const Tuple& tuple) {
    if (EvalRestriction(*range.restriction, tuple, nullptr)) {
      found = true;
      return false;
    }
    return true;
  });
  return !found;
}

BoundQuery CloneBoundQuery(const BoundQuery& query) {
  BoundQuery out;
  out.selection = query.selection.Clone();
  out.vars = query.vars;
  out.output_schema = query.output_schema;
  out.params = query.params;
  return out;
}

QueryPlan CloneQueryPlan(const QueryPlan& plan) {
  QueryPlan out;
  out.sf = plan.sf.Clone();
  out.level = plan.level;
  out.scans = plan.scans;
  out.indexes = plan.indexes;
  out.value_lists = plan.value_lists;
  out.structures = plan.structures;
  out.post_probes = plan.post_probes;
  out.conj_inputs = plan.conj_inputs;
  out.join_trees = plan.join_trees;
  out.eliminated_vars = plan.eliminated_vars;
  out.division = plan.division;
  out.pipeline = plan.pipeline;
  out.collection = plan.collection;
  out.batch_size = plan.batch_size;
  out.parallel = plan.parallel;
  return out;
}

PlannedQuery ClonePlannedQuery(const PlannedQuery& planned) {
  PlannedQuery out;
  out.plan = CloneQueryPlan(planned.plan);
  out.range_extension = planned.range_extension;
  out.quant_pushdown_summary = planned.quant_pushdown_summary;
  out.adaptation_notes = planned.adaptation_notes;
  out.replans = planned.replans;
  out.verdicts.reserve(planned.verdicts.size());
  for (const EmptinessVerdict& v : planned.verdicts) {
    out.verdicts.push_back({v.range.Clone(), v.was_empty});
  }
  out.cost_based = planned.cost_based;
  out.estimate = planned.estimate;
  out.cost_candidates = planned.cost_candidates;
  out.collection_cost = planned.collection_cost;
  return out;
}

namespace {

/// Records the emptiness verdicts the plan relies on, each distinct range
/// once (rule 1 probes a range in the prefix scan and again in the fold).
class VerdictLog {
 public:
  VerdictLog(const Database& db, std::vector<EmptinessVerdict>* out)
      : db_(db), out_(out) {}

  /// Rule 1: probes and records — a folded-away range matters as much as
  /// a kept one.
  bool IsEmpty(const RangeExpr& range) {
    const bool empty = RangeIsEmpty(db_, range);
    Record(range, empty);
    return empty;
  }

  void Record(const RangeExpr& range, bool empty) {
    for (const EmptinessVerdict& v : *out_) {
      if (v.range.relation == range.relation &&
          v.range.IsExtended() == range.IsExtended() &&
          (!range.IsExtended() ||
           v.range.restriction->Equals(*range.restriction))) {
        return;
      }
    }
    out_->push_back({range.Clone(), empty});
  }

 private:
  const Database& db_;
  std::vector<EmptinessVerdict>* out_;
};

/// Builds the standard form and applies adaptation rule 1: folds
/// quantifiers whose (base or user-extended) range is empty.
Result<StandardForm> StandardFormWithFolding(BoundQuery query,
                                             VerdictLog* verdicts,
                                             std::string* notes,
                                             uint64_t* replans) {
  TraceSpanGuard trace_span(spans::kNormalize);
  PASCALR_ASSIGN_OR_RETURN(StandardForm sf,
                           BuildStandardForm(std::move(query)));
  bool any_empty = false;
  for (const QuantifiedVar& qv : sf.prefix) {
    if (qv.quantifier == Quantifier::kFree) continue;
    if (verdicts->IsEmpty(qv.range)) {
      any_empty = true;
      *notes += "  adapted: range of " + qv.var + " is empty (Lemma 1)\n";
    }
  }
  if (!any_empty) return sf;
  ++*replans;
  FormulaPtr folded = FoldEmptyRanges(
      sf.original_nnf->Clone(),
      [&](const RangeExpr& range) { return verdicts->IsEmpty(range); });
  return RebuildStandardForm(sf, std::move(folded));
}

}  // namespace

Result<PlannedQuery> PlanQuery(const Database& db, BoundQuery query,
                               const PlannerOptions& options) {
  if (SelectionHasUnboundParams(query.selection)) {
    return Status::InvalidArgument(
        "selection has unbound $parameters; prepare it with "
        "Session::Prepare and Execute it with parameter values");
  }
  if (options.level == OptLevel::kAuto || options.cost_based) {
    // Cost-based selection: enumerate concrete candidates and keep the
    // cheapest (src/cost/plan_search.cc re-enters PlanQuery with concrete
    // levels and cost_based off).
    return SearchBestPlan(db, query, options);
  }
  ++GlobalCompileCounters().plans;
  TraceSpanGuard trace_span(spans::kPlan, nullptr,
                            std::string(OptLevelToString(options.level)));
  PlannedQuery out;
  BoundQuery backup = CloneBoundQuery(query);
  VerdictLog verdicts(db, &out.verdicts);

  PASCALR_ASSIGN_OR_RETURN(
      StandardForm sf,
      StandardFormWithFolding(std::move(query), &verdicts,
                              &out.adaptation_notes, &out.replans));

  OptLevel level = options.level;
  if (level >= OptLevel::kRangeExt) {
    out.range_extension =
        ApplyRangeExtension(&sf, options.use_cnf_extensions);
    // Adaptation rule 2: a strategy-3 extension denoting an empty range
    // invalidates the factoring; abandon the extensions.
    bool extension_empty = false;
    for (const QuantifiedVar& qv : sf.prefix) {
      if (qv.range.IsExtended() && RangeIsEmpty(db, qv.range)) {
        extension_empty = true;
        out.adaptation_notes += "  adapted: extended range of " + qv.var +
                                " is empty; strategies 3/4 abandoned\n";
      }
    }
    if (extension_empty) {
      ++out.replans;
      level = OptLevel::kOneStep;
      out.range_extension = RangeExtensionReport();
      PASCALR_ASSIGN_OR_RETURN(
          sf, StandardFormWithFolding(std::move(backup), &verdicts,
                                      &out.adaptation_notes, &out.replans));
    } else {
      // The extensions stand, and stay exact only while every extended
      // range is non-empty. An abandoned extension records nothing: the
      // level-2 fallback is exact either way (rule 1 holding), so the
      // range filling up later costs speed, never tuples.
      for (const QuantifiedVar& qv : sf.prefix) {
        if (qv.range.IsExtended()) verdicts.Record(qv.range, false);
      }
    }
  }

  QuantPushdownResult pushdown;
  if (level >= OptLevel::kQuantPush) {
    pushdown = ApplyQuantPushdown(&sf);
  }
  out.quant_pushdown_summary.eliminated = pushdown.eliminated;
  out.quant_pushdown_summary.derived = pushdown.derived;

  Result<QueryPlan> plan =
      BuildScanPlan(std::move(sf), level, std::move(pushdown), db);
  if (!plan.ok()) return plan.status();
  out.plan = std::move(plan).value();
  out.plan.division = options.division;
  out.plan.pipeline = options.pipeline;
  out.plan.collection = options.collection;
  out.plan.batch_size = options.batch_size;
  out.plan.parallel = options.parallel;
  if (options.prefer_ordered_indexes) {
    for (IndexBuildSpec& spec : out.plan.indexes) spec.ordered = true;
  }
  if (options.use_permanent_indexes) {
    for (IndexBuildSpec& spec : out.plan.indexes) {
      // A permanent index covers the whole relation; it can only stand in
      // for an ungated index over an *unextended* range.
      const QuantifiedVar* qv = out.plan.sf.FindVar(spec.var);
      spec.try_permanent = spec.gates.empty() && qv != nullptr &&
                           !qv->range.IsExtended();
    }
  }
  if (options.join_order_dp) {
    // After the physical knobs: permanent-index borrowing changes the
    // structure-size estimates the join-order DP plans over. The
    // collection-phase walk (when the DP needed one) rides along on the
    // PlannedQuery so the plan-search driver can reuse it.
    JoinOrderOptions join_options;
    join_options.dp_max_inputs = options.join_dp_max_inputs;
    join_options.bushy = options.join_dp_bushy;
    AttachJoinOrders(&out.plan, db, join_options, &out.collection_cost);
  }
  return out;
}

Result<QueryRun> RunQuery(const Database& db, BoundQuery query,
                          const PlannerOptions& options) {
  QueryRun run;
  PASCALR_ASSIGN_OR_RETURN(run.planned,
                           PlanQuery(db, std::move(query), options));
  run.stats.replans = run.planned.replans;
  PASCALR_ASSIGN_OR_RETURN(ExecOutcome outcome,
                           ExecutePlan(run.planned.plan, db, &run.stats));
  run.tuples = std::move(outcome.tuples);
  run.collection = std::move(outcome.collection);
  return run;
}

}  // namespace pascalr
