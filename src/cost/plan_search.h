// The plan-search driver behind OptLevel::kAuto: enumerates candidate
// plans across strategy levels 0-4 and the physical knobs (hash-vs-btree
// transient indexes, permanent-index use, division algorithm), costs each
// with the cost model, and returns the cheapest — the automatic version of
// the paper's strategy arguments.
//
// Join order is folded into the search: every candidate is planned with
// the join-order optimizer (src/joinorder/) enabled per the base options,
// so a candidate's cost reflects the DP-chosen tree for its conjunctions.
// Levels are visited strongest-first carrying the best cost so far, and
// candidates whose scan lower bound already exceeds it are pruned before
// compilation (the pruned count is logged in the EXPLAIN candidate table).
//
// Compile work is shared, never repeated (the planner's stages, see
// opt/planner.h):
//  - NormalizeQuery runs once per search; emptiness probes are memoized
//    for the whole search.
//  - CompileLevel runs once per level, and ApplyPhysicalKnobs once per
//    (level, permanent-index) pair, re-knobbing the level's one plan in
//    place.
//  - The division algorithm and prefer_ordered_indexes change neither
//    the standard form, the scans, the structures nor the join trees, so
//    those variants patch the pair's plan in place and re-cost it. Each
//    (level, perm, ordered) group walks the collection phase once and
//    shares the walk between its division variants.
//  - A plan is cloned only when its candidate becomes the best so far.
// Every candidate's estimate, candidate-table line, verdicts and (when
// chosen) plan are exactly what a standalone PlanQuery with its concrete
// options produces (tests/plan_search_equivalence_test.cc).
//
// The ranking is mode-aware: sessions that execute the streamed
// combination (PlannerOptions::pipeline) rank candidates by
// CostEstimate::pipelined_weighted_cost — the price of what the cursor
// will actually run — while materializing sessions keep the materializing
// ranking. Flips between the two rankings are logged in the candidate
// table, and the regret sweep in auto_planner_test validates the
// pipelined ranking against every fixed level in pipelined measured work.

#ifndef PASCALR_COST_PLAN_SEARCH_H_
#define PASCALR_COST_PLAN_SEARCH_H_

#include <vector>

#include "base/status.h"
#include "catalog/database.h"
#include "opt/planner.h"

namespace pascalr {

/// Plans `query` under every candidate configuration derived from `base`
/// (level and knobs overridden; use_cnf_extensions is inherited), costs
/// each candidate, and returns the cheapest with its estimate and the
/// candidate table filled in. `base.level` is ignored — the caller
/// (PlanQuery) has already decided to search.
///
/// When `costed` is non-null it receives a copy of every costed candidate
/// with its concrete options and estimate, in candidate-table order — an
/// audit hook: each must equal a standalone PlanQuery with those options.
struct SearchCandidate {
  PlannerOptions options;
  PlannedQuery planned;
};
Result<PlannedQuery> SearchBestPlan(
    const Database& db, BoundQuery query, const PlannerOptions& base,
    std::vector<SearchCandidate>* costed = nullptr);

}  // namespace pascalr

#endif  // PASCALR_COST_PLAN_SEARCH_H_
