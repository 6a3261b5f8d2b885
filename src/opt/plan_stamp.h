// Plan validity stamps: the one rule both plan caches (the private cache
// of a PreparedQuery and the process-wide SharedPlanCache) use to decide
// whether a compiled plan may run again.
//
// A PASCAL/R strategy depends on the data in exactly one way: whether each
// range it was planned over is empty (Lemma 1 and adaptation rules 1/2,
// opt/planner.h). Cardinalities and statistics decide its speed, never its
// tuples. So a plan is judged by
//
//   * its stamp — stats epoch, planner options, and per referenced
//     relation its id, mod_count and cardinality at plan time; and
//   * its verdicts — PlannedQuery::verdicts, every (range, was_empty) the
//     planner consulted.
//
// CheckPlan outcomes:
//   - epoch, options or a relation id differ: stale (ANALYZE / INDEX, SET,
//     drop + re-create);
//   - every mod_count matches: valid; parameter-carrying verdicts are
//     re-probed only when the bindings changed;
//   - a mod_count moved: every verdict is re-probed under the caller's
//     snapshot. No flip and no cardinality drift (below) means the plan is
//     revalidated and the stamp's mod_counts advance; otherwise stale.
//
// Plans hold no data: a permanent index is resolved fresh at Cursor::Open
// (Database::FindFreshIndex), and statistics go stale on any write anyway,
// so a plan kept across a write saw no worse information than a replan
// would.

#ifndef PASCALR_OPT_PLAN_STAMP_H_
#define PASCALR_OPT_PLAN_STAMP_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/status.h"
#include "catalog/database.h"
#include "opt/params.h"
#include "opt/planner.h"

namespace pascalr {

/// Cardinality drift that forces a replan although no verdict flipped: a
/// referenced relation's live cardinality reached this many times its
/// plan-time value, or fell to 1/this of it. The plan's join order and
/// strategy level were costed for the plan-time sizes; past a 2x change
/// the choice is re-searched. Fixed, deliberately not a session option.
inline constexpr uint64_t kCardinalityDriftFactor = 2;

/// True when `live` has drifted kCardinalityDriftFactor-fold from
/// `planned` in either direction (any growth from zero counts).
bool CardinalityDrifted(uint64_t planned, uint64_t live);

/// What a cached plan was planned against (see the file comment).
struct PlanStamp {
  struct RelationMark {
    std::string name;
    RelationId id = 0;
    uint64_t mod_count = 0;
    uint64_t cardinality = 0;  ///< at plan time; never refreshed
  };
  uint64_t stats_epoch = 0;
  PlannerOptions options;
  std::vector<RelationMark> relations;
};

/// Stamps a plan just compiled under `options` over `relations` (the
/// template's (name, id) pairs), reading mod_counts and cardinalities at
/// the caller's snapshot. Relations missing from the catalog stamp 0s.
PlanStamp StampPlan(const Database& db, const PlannerOptions& options,
                    const std::vector<std::pair<std::string, RelationId>>&
                        relations);

enum class PlanValidity {
  kValid,        ///< nothing the plan relied on moved
  kRevalidated,  ///< data moved; every verdict held, stamp advanced
  kStale,        ///< replan
};

/// Judges a cached plan for one execution under `options` and `bindings`
/// (`bindings_changed`: they differ from the values the plan was last
/// checked with). `verdicts` are the plan's PlannedQuery::verdicts. On
/// kRevalidated the stamp's mod_counts advance to the caller's snapshot.
Result<PlanValidity> CheckPlan(const Database& db,
                               const PlannerOptions& options,
                               const std::vector<EmptinessVerdict>& verdicts,
                               const ParamBindings& bindings,
                               bool bindings_changed, PlanStamp* stamp);

}  // namespace pascalr

#endif  // PASCALR_OPT_PLAN_STAMP_H_
