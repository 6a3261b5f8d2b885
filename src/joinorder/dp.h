// Selinger-style join-order enumeration over one conjunction's
// combination inputs: a dynamic program over bitset-indexed subsets of
// the inputs, costing each candidate join with the JoinEstimate rule and
// keeping the cheapest tree per subset. Left-deep by default (the
// classical System R space); bushy trees behind a flag. Cartesian steps
// are admitted — disconnected conjunctions need them — but penalized so
// the DP defers them exactly like the executor's greedy heuristic does.
//
// The table is flat: the conjunction's columns are interned in name
// order, and each subset holds its cost, row count, a column bitmask and
// one distinct count per column in plain arrays — no per-entry map. The
// estimate arithmetic runs in the same order JoinEstimate's std::map walk
// does, so costs, trees and est_rows are bit-identical to joining EstRel
// summaries (which the greedy heuristic and the cost model still do).

#ifndef PASCALR_JOINORDER_DP_H_
#define PASCALR_JOINORDER_DP_H_

#include <cstddef>
#include <vector>

#include "exec/plan.h"
#include "joinorder/join_graph.h"

namespace pascalr {

struct JoinOrderOptions {
  /// Conjunctions with more inputs than this skip the DP (table size is
  /// 2^n) and keep the executor's greedy fallback.
  size_t dp_max_inputs = 12;
  /// Enumerate all subset splits (bushy trees) instead of only left-deep
  /// extensions. 3^n instead of n*2^n table work.
  bool bushy = false;
  /// Multiplier on the estimated output rows of a Cartesian step, biasing
  /// the DP to defer products like the greedy heuristic unless a product
  /// is genuinely the cheapest way through a disconnected graph.
  double cross_penalty = 4.0;
  /// Minimum relative predicted improvement over greedy before the DP's
  /// order is adopted. The executor's greedy fallback re-ranks on *actual*
  /// structure sizes at run time, so overriding it on a hair-thin
  /// estimated margin trades a real information advantage for noise.
  double min_gain = 0.05;
};

/// The DP's verdict for one conjunction.
struct JoinOrderDecision {
  /// Non-empty only when the DP ran and found an order strictly cheaper
  /// than the greedy heuristic's; the planner attaches exactly these.
  JoinTree tree;
  double dp_cost = 0.0;      ///< model cost of the best DP tree
  double greedy_cost = 0.0;  ///< model cost of the greedy tree (the bar)
  size_t subsets_explored = 0;  ///< DP table entries filled
};

/// Runs the dynamic program over `inputs`. Returns an empty tree when the
/// input count exceeds options.dp_max_inputs, when fewer than three
/// inputs make order moot, or when no order beats greedy — deviating from
/// the executor's default without a predicted gain would be pure risk.
JoinOrderDecision ChooseJoinOrder(const std::vector<EstRel>& inputs,
                                  const JoinOrderOptions& options);

}  // namespace pascalr

#endif  // PASCALR_JOINORDER_DP_H_
