// The query planner: normalises a bound query to the standard form,
// applies the requested strategy level, performs the paper's *runtime
// adaptation* for empty ranges (Lemma 1 / Example 2.2), compiles a
// QueryPlan and runs it.
//
// Planning runs in two stages, so the kAuto plan search
// (src/cost/plan_search.h) can do the level-independent work once for
// all its candidates:
//  - NormalizeQuery: the standard form, adaptation rule 1 (folding),
//    its emptiness verdicts and adaptation notes — independent of the
//    strategy level and every physical knob;
//  - per level, CompileLevel (range extension with rule 2, quantifier
//    push-down, BuildScanPlan, the session's execution knobs) and then
//    ApplyPhysicalKnobs (ordered transient indexes, permanent-index use,
//    the join-order DP).
// PlanQuery at a concrete level is exactly the three calls in sequence.
//
// Adaptation rules (the compile-time standard form assumes non-empty
// ranges):
//  1. if the base relation of any quantified range — or a user-written
//     extended range — is empty, the original NNF formula is folded with
//     SOME v IN [] (B) = FALSE / ALL v IN [] (B) = TRUE and re-normalised;
//  2. if a strategy-3 extension turns out to denote an empty range, the
//     extension is abandoned: the query is re-planned at strategy level 2
//     (the unextended standard form is exact once rule 1 holds).

#ifndef PASCALR_OPT_PLANNER_H_
#define PASCALR_OPT_PLANNER_H_

#include <string>
#include <vector>

#include "base/status.h"
#include "catalog/database.h"
#include "cost/cost_model.h"
#include "exec/evaluator.h"
#include "exec/plan.h"
#include "opt/quant_pushdown.h"
#include "opt/range_extension.h"
#include "semantics/binder.h"

namespace pascalr {

struct PlannerOptions {
  /// The strategy level. OptLevel::kAuto selects cost-based planning:
  /// the plan-search driver enumerates strategy levels 0-4, hash-vs-btree
  /// index choices, permanent-index use, and the division algorithm,
  /// costs each candidate against catalog statistics, and plans the
  /// cheapest. Run ANALYZE (Database::Analyze) for accurate estimates.
  OptLevel level = OptLevel::kQuantPush;
  DivisionAlgorithm division = DivisionAlgorithm::kHash;
  /// Consult the catalog for fresh permanent indexes before building
  /// transient ones (paper §3.2). Ungated index specs only.
  bool use_permanent_indexes = false;
  /// Enable the paper's §4.3 closing suggestion: conjunctive-normal-form
  /// range extensions (disjunctive restrictions). Applies at level >= 3.
  bool use_cnf_extensions = true;
  /// Build every transient index as a B+tree even where a hash index
  /// suffices — a physical knob the plan-search driver enumerates.
  bool prefer_ordered_indexes = false;
  /// Selinger-style join ordering (src/joinorder/) over each
  /// conjunction's combination inputs: when every relation a conjunction
  /// ranges over has fresh statistics and its input count is within
  /// join_dp_max_inputs, a dynamic program picks the join tree; the
  /// executor keeps its greedy smallest-first heuristic otherwise (and
  /// whenever the DP predicts no strict improvement over greedy).
  bool join_order_dp = true;
  /// Conjunctions with more inputs than this skip the DP (2^n table).
  size_t join_dp_max_inputs = 12;
  /// Let the DP consider bushy join trees, not just left-deep ones.
  bool join_dp_bushy = false;
  /// Stream the combination phase through the join-iterator pipeline
  /// (src/pipeline/) when executing via Cursor: Open runs only the
  /// collection phase, Next pulls one combination row at a time, and an
  /// early Close skips unperformed join work. Off forces the
  /// materializing combination path everywhere. Both modes yield the same
  /// tuple multiset after dedup (asserted by the pipeline property
  /// tests); default on.
  bool pipeline = true;
  /// Collection-phase population policy (`SET COLLECTION EAGER|LAZY;`).
  /// kEager builds every structure at Cursor::Open (the paper's phase
  /// split and the oracle); kLazy defers all collection work behind Next
  /// on pipelined cursors — structures materialise fully on first use,
  /// per requested join key, or stream without materialising. Same tuple
  /// multiset either way (lazy property sweep); lazy wins when cursors
  /// stop early and can lose on full drains of small relations (repeat
  /// scans). Only the pipelined path can exploit it.
  CollectionPolicy collection = CollectionPolicy::kEager;
  /// Rows per pipeline chunk on the batched cursor drain
  /// (`SET BATCH <n>;`); 1 recovers exact row-at-a-time execution.
  size_t batch_size = 1024;
  /// Worker threads for morsel-driven parallel drains
  /// (`SET PARALLEL <n>;`); 1 = fully serial.
  size_t parallel = 1;
};

/// Field-wise equality — the prepared-query plan cache uses it to detect
/// that the session's options changed between executions.
inline bool operator==(const PlannerOptions& a, const PlannerOptions& b) {
  return a.level == b.level && a.division == b.division &&
         a.use_permanent_indexes == b.use_permanent_indexes &&
         a.use_cnf_extensions == b.use_cnf_extensions &&
         a.prefer_ordered_indexes == b.prefer_ordered_indexes &&
         a.join_order_dp == b.join_order_dp &&
         a.join_dp_max_inputs == b.join_dp_max_inputs &&
         a.join_dp_bushy == b.join_dp_bushy && a.pipeline == b.pipeline &&
         a.collection == b.collection && a.batch_size == b.batch_size &&
         a.parallel == b.parallel;
}
inline bool operator!=(const PlannerOptions& a, const PlannerOptions& b) {
  return !(a == b);
}

/// One emptiness verdict the planner acted on: a quantified range probed
/// for adaptation rule 1 (Lemma 1 folding), or an extended prefix range
/// that kept strategy-3 extensions rely on being non-empty (rule 2). A
/// compiled plan depends on the data only through these verdicts —
/// cardinalities and statistics decide its speed, never its tuples — so
/// it stays correct for as long as every recorded range keeps its
/// verdict. Parameter-tagged restrictions carry the plan-time
/// values; re-probes substitute the current bindings first.
struct EmptinessVerdict {
  RangeExpr range;
  bool was_empty = false;
};

/// A fully planned (not yet executed) query with its transformation trail.
struct PlannedQuery {
  QueryPlan plan;
  RangeExtensionReport range_extension;
  QuantPushdownResult quant_pushdown_summary;  ///< value_lists empty; text only
  std::string adaptation_notes;  ///< runtime adaptations that fired
  uint64_t replans = 0;
  /// Every distinct emptiness verdict the plan relies on (rules 1 and 2),
  /// in probe order — what opt/plan_stamp.h re-checks after a write.
  std::vector<EmptinessVerdict> verdicts;

  /// Cost-based selection trail (OptLevel::kAuto): the chosen plan's
  /// estimate and one line per candidate considered.
  bool cost_based = false;
  CostEstimate estimate;
  std::string cost_candidates;
};

/// The result of running a query end to end.
struct QueryRun {
  std::vector<Tuple> tuples;
  ExecStats stats;
  PlannedQuery planned;
  /// Materialised collection-phase structures (Figure 2 exhibits).
  CollectionResult collection;
};

BoundQuery CloneBoundQuery(const BoundQuery& query);

/// Deep copies (StandardForm is move-only; everything else is copyable).
/// The shared plan cache hands one compiled PlannedQuery to many sessions,
/// and plans are parameter-patched in place per execution — so every
/// adopter clones before patching.
QueryPlan CloneQueryPlan(const QueryPlan& plan);
PlannedQuery ClonePlannedQuery(const PlannedQuery& planned);

/// Normalise + optimise + compile. Performs adaptation rules 1 and 2.
Result<PlannedQuery> PlanQuery(const Database& db, BoundQuery query,
                               const PlannerOptions& options);

/// The level-independent first planning stage: the standard form after
/// adaptation rule 1, with the verdicts and notes that rule recorded.
struct NormalizedQuery {
  StandardForm sf;
  std::vector<EmptinessVerdict> verdicts;  ///< rule-1 verdicts, probe order
  std::string adaptation_notes;
  uint64_t replans = 0;
  /// Every emptiness probe made while planning from this normalization,
  /// rules 1 and 2 alike: a range is scanned at most once per
  /// standalone plan or kAuto search (the database does not change
  /// under one planning pass).
  std::vector<EmptinessVerdict> probes;
};

/// The level-independent stage: builds the standard form and applies
/// adaptation rule 1.
Result<NormalizedQuery> NormalizeQuery(const Database& db, BoundQuery query);

/// The per-level stage, first half: compiles `sf` at the concrete
/// `options.level` — strategy-3 range extension with adaptation rule 2,
/// strategy-4 quantifier push-down, BuildScanPlan — and copies the
/// division algorithm and the execution knobs (pipeline, collection,
/// batch size, parallelism) into the plan. `sf` is a clone of
/// normalized->sf, or normalized->sf itself when nothing plans from
/// `normalized` again and the level is below strategy 3: only the rule-2
/// fallback reads normalized->sf. The result's verdicts, notes and replan
/// count include the level-independent stage's; `normalized` changes only
/// in its probe memo.
Result<PlannedQuery> CompileLevel(const Database& db, StandardForm sf,
                                  NormalizedQuery* normalized,
                                  const PlannerOptions& options);

/// The per-level stage, second half: the physical knobs on a compiled
/// plan — ordered transient indexes, permanent-index use, and the
/// join-order DP. The permanent-index choice and the join orders are
/// recomputed from scratch, so a plan can be re-knobbed in place;
/// prefer_ordered_indexes only ever sets the ordered flag. When the DP
/// needed a collection-phase cost walk and `dp_walk` is non-null, the
/// walk is saved there, so the plan-search driver can cost the plan
/// without walking the collection phase again; otherwise `*dp_walk` is
/// left invalid.
void ApplyPhysicalKnobs(const Database& db, const PlannerOptions& options,
                        PlannedQuery* planned,
                        CollectionCost* dp_walk = nullptr);

/// PlanQuery + ExecutePlan.
Result<QueryRun> RunQuery(const Database& db, BoundQuery query,
                          const PlannerOptions& options);

/// True if the (possibly extended) range currently denotes no element.
bool RangeIsEmpty(const Database& db, const RangeExpr& range);

}  // namespace pascalr

#endif  // PASCALR_OPT_PLANNER_H_
