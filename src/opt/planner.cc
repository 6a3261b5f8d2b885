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
  return out;
}

namespace {

bool SameRange(const RangeExpr& a, const RangeExpr& b) {
  return a.relation == b.relation && a.IsExtended() == b.IsExtended() &&
         (!a.IsExtended() || a.restriction->Equals(*b.restriction));
}

/// RangeIsEmpty, memoized in `probes`.
bool ProbeEmpty(const Database& db, const RangeExpr& range,
                std::vector<EmptinessVerdict>* probes) {
  for (const EmptinessVerdict& v : *probes) {
    if (SameRange(v.range, range)) return v.was_empty;
  }
  const bool empty = RangeIsEmpty(db, range);
  probes->push_back({range.Clone(), empty});
  return empty;
}

/// Records the emptiness verdicts the plan relies on, each distinct range
/// once (rule 1 probes a range in the prefix scan and again in the fold).
class VerdictLog {
 public:
  VerdictLog(const Database& db, std::vector<EmptinessVerdict>* probes,
             std::vector<EmptinessVerdict>* out)
      : db_(db), probes_(probes), out_(out) {}

  /// Rule 1: probes and records — a folded-away range matters as much as
  /// a kept one.
  bool IsEmpty(const RangeExpr& range) {
    const bool empty = ProbeEmpty(db_, range, probes_);
    Record(range, empty);
    return empty;
  }

  void Record(const RangeExpr& range, bool empty) {
    for (const EmptinessVerdict& v : *out_) {
      if (SameRange(v.range, range)) return;
    }
    out_->push_back({range.Clone(), empty});
  }

 private:
  const Database& db_;
  std::vector<EmptinessVerdict>* probes_;
  std::vector<EmptinessVerdict>* out_;
};

}  // namespace

Result<NormalizedQuery> NormalizeQuery(const Database& db, BoundQuery query) {
  TraceSpanGuard trace_span(spans::kNormalize);
  NormalizedQuery out;
  VerdictLog verdicts(db, &out.probes, &out.verdicts);
  PASCALR_ASSIGN_OR_RETURN(out.sf, BuildStandardForm(std::move(query)));
  bool any_empty = false;
  for (const QuantifiedVar& qv : out.sf.prefix) {
    if (qv.quantifier == Quantifier::kFree) continue;
    if (verdicts.IsEmpty(qv.range)) {
      any_empty = true;
      out.adaptation_notes +=
          "  adapted: range of " + qv.var + " is empty (Lemma 1)\n";
    }
  }
  if (!any_empty) return out;
  // Adaptation rule 1: fold the quantifiers over empty ranges.
  ++out.replans;
  FormulaPtr folded = FoldEmptyRanges(
      out.sf.original_nnf->Clone(),
      [&](const RangeExpr& range) { return verdicts.IsEmpty(range); });
  PASCALR_ASSIGN_OR_RETURN(out.sf,
                           RebuildStandardForm(out.sf, std::move(folded)));
  return out;
}

Result<PlannedQuery> CompileLevel(const Database& db, StandardForm sf,
                                  NormalizedQuery* normalized,
                                  const PlannerOptions& options) {
  PlannedQuery out;
  out.adaptation_notes = normalized->adaptation_notes;
  out.replans = normalized->replans;
  out.verdicts.reserve(normalized->verdicts.size());
  for (const EmptinessVerdict& v : normalized->verdicts) {
    out.verdicts.push_back({v.range.Clone(), v.was_empty});
  }
  VerdictLog verdicts(db, &normalized->probes, &out.verdicts);

  OptLevel level = options.level;
  if (level >= OptLevel::kRangeExt) {
    out.range_extension =
        ApplyRangeExtension(&sf, options.use_cnf_extensions);
    // Adaptation rule 2: a strategy-3 extension denoting an empty range
    // invalidates the factoring; abandon the extensions.
    bool extension_empty = false;
    for (const QuantifiedVar& qv : sf.prefix) {
      if (qv.range.IsExtended() &&
          ProbeEmpty(db, qv.range, &normalized->probes)) {
        extension_empty = true;
        out.adaptation_notes += "  adapted: extended range of " + qv.var +
                                " is empty; strategies 3/4 abandoned\n";
      }
    }
    if (extension_empty) {
      // Fall back to the normalized, unextended form. Its notes and replan
      // are repeated: the trail reads as if normalization had run again.
      ++out.replans;
      level = OptLevel::kOneStep;
      out.range_extension = RangeExtensionReport();
      sf = normalized->sf.Clone();
      out.adaptation_notes += normalized->adaptation_notes;
      out.replans += normalized->replans;
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

  PASCALR_ASSIGN_OR_RETURN(
      out.plan, BuildScanPlan(std::move(sf), level, std::move(pushdown), db));
  out.plan.division = options.division;
  out.plan.pipeline = options.pipeline;
  out.plan.collection = options.collection;
  out.plan.batch_size = options.batch_size;
  out.plan.parallel = options.parallel;
  return out;
}

void ApplyPhysicalKnobs(const Database& db, const PlannerOptions& options,
                        PlannedQuery* planned, CollectionCost* dp_walk) {
  QueryPlan& plan = planned->plan;
  for (IndexBuildSpec& spec : plan.indexes) {
    if (options.prefer_ordered_indexes) spec.ordered = true;
    // A permanent index covers the whole relation; it can only stand in
    // for an ungated index over an *unextended* range.
    const QuantifiedVar* qv = plan.sf.FindVar(spec.var);
    spec.try_permanent = options.use_permanent_indexes &&
                         spec.gates.empty() && qv != nullptr &&
                         !qv->range.IsExtended();
  }
  plan.join_trees.clear();
  if (dp_walk != nullptr) *dp_walk = CollectionCost();
  if (options.join_order_dp) {
    // After the other knobs: permanent-index borrowing changes the
    // structure-size estimates the join-order DP plans over.
    JoinOrderOptions join_options;
    join_options.dp_max_inputs = options.join_dp_max_inputs;
    join_options.bushy = options.join_dp_bushy;
    AttachJoinOrders(&plan, db, join_options, dp_walk);
  }
}

Result<PlannedQuery> PlanQuery(const Database& db, BoundQuery query,
                               const PlannerOptions& options) {
  if (SelectionHasUnboundParams(query.selection)) {
    return Status::InvalidArgument(
        "selection has unbound $parameters; prepare it with "
        "Session::Prepare and Execute it with parameter values");
  }
  if (options.level == OptLevel::kAuto) {
    // Cost-based selection: enumerate concrete candidates and keep the
    // cheapest (src/cost/plan_search.cc runs the stages below itself,
    // normalizing once for all candidates).
    return SearchBestPlan(db, std::move(query), options);
  }
  ++GlobalCompileCounters().plans;
  TraceSpanGuard trace_span(spans::kPlan, nullptr,
                            std::string(OptLevelToString(options.level)));
  PASCALR_ASSIGN_OR_RETURN(NormalizedQuery normalized,
                           NormalizeQuery(db, std::move(query)));
  // Below strategy 3 no fallback reads the normalized form again.
  StandardForm sf = options.level >= OptLevel::kRangeExt
                        ? normalized.sf.Clone()
                        : std::move(normalized.sf);
  PASCALR_ASSIGN_OR_RETURN(
      PlannedQuery out, CompileLevel(db, std::move(sf), &normalized, options));
  ApplyPhysicalKnobs(db, options, &out);
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
