#include "joinorder/dp.h"

#include <algorithm>
#include <limits>
#include <string>

#include "joinorder/heuristics.h"

namespace pascalr {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

int PopCount(uint64_t mask) {
  int n = 0;
  while (mask != 0) {
    mask &= mask - 1;
    ++n;
  }
  return n;
}

/// Index of the lowest set bit; `mask` must be non-zero.
int LowestBit(uint64_t mask) { return __builtin_ctzll(mask); }

/// The DP table over every subset of the inputs, as flat arrays indexed by
/// the subset mask. A subset's estimate is its row count, the bitmask of
/// the interned columns it binds, and one distinct count per (subset,
/// column) slot; slots outside the column mask are never read.
class FlatTable {
 public:
  FlatTable(const std::vector<EstRel>& inputs, const JoinOrderOptions& options)
      : cross_penalty_(options.cross_penalty) {
    // Intern the columns in name order: column index order is then the
    // std::map iteration order JoinEstimate folds the shared columns in,
    // so every division and min below runs in the same sequence and the
    // results are bit-identical to JoinEstimate's.
    for (const EstRel& in : inputs) {
      for (const auto& [col, dc] : in.distinct) names_.push_back(col);
    }
    std::sort(names_.begin(), names_.end());
    names_.erase(std::unique(names_.begin(), names_.end()), names_.end());

    const size_t subsets = size_t{1} << inputs.size();
    cost_.assign(subsets, kInf);
    rows_.assign(subsets, 0.0);
    cols_.assign(subsets, 0);
    left_.assign(subsets, 0);
    right_.assign(subsets, 0);
    distinct_.assign(subsets * names_.size(), 0.0);
    for (size_t i = 0; i < inputs.size(); ++i) {
      const uint64_t mask = uint64_t{1} << i;
      cost_[mask] = 0.0;
      rows_[mask] = inputs[i].rows;
      for (const auto& [col, dc] : inputs[i].distinct) {
        const size_t c = static_cast<size_t>(
            std::lower_bound(names_.begin(), names_.end(), col) -
            names_.begin());
        cols_[mask] |= uint64_t{1} << c;
        distinct_[mask * names_.size() + c] = dc;
      }
    }
  }

  size_t num_columns() const { return names_.size(); }
  double cost(uint64_t mask) const { return cost_[mask]; }

  /// Costs joining the trees of `left` and `right` (disjoint subsets) and
  /// keeps the split when it beats the best known plan for the union.
  void Consider(uint64_t left, uint64_t right) {
    if (cost_[left] == kInf || cost_[right] == kInf) return;
    const uint64_t shared = cols_[left] & cols_[right];
    const double* l = Distinct(left);
    const double* r = Distinct(right);
    double rows = rows_[left] * rows_[right];
    for (uint64_t m = shared; m != 0; m &= m - 1) {
      const int c = LowestBit(m);
      rows /= std::max(1.0, std::max(l[c], r[c]));
    }
    const double cost = cost_[left] + cost_[right] +
                        rows * (shared == 0 ? cross_penalty_ : 1.0);
    const uint64_t mask = left | right;
    if (!(cost < cost_[mask])) return;
    cost_[mask] = cost;
    rows_[mask] = rows;
    cols_[mask] = cols_[left] | cols_[right];
    left_[mask] = left;
    right_[mask] = right;
    double* out = Distinct(mask);
    for (uint64_t m = cols_[mask]; m != 0; m &= m - 1) {
      const int c = LowestBit(m);
      const bool in_left = ((cols_[left] >> c) & 1) != 0;
      const bool in_right = ((cols_[right] >> c) & 1) != 0;
      const double dc = in_left && in_right ? std::min(l[c], r[c])
                                            : (in_left ? l[c] : r[c]);
      out[c] = std::min(dc, rows);
    }
  }

  /// Emits the winning tree for `mask` into `tree`, children first.
  int Emit(uint64_t mask, const std::vector<EstRel>& inputs,
           JoinTree* tree) const {
    if (left_[mask] == 0) {  // singleton
      JoinTreeNode leaf;
      leaf.leaf = true;
      leaf.input = static_cast<size_t>(LowestBit(mask));
      leaf.est_rows = inputs[leaf.input].rows;
      tree->nodes.push_back(std::move(leaf));
      return static_cast<int>(tree->nodes.size() - 1);
    }
    const int left = Emit(left_[mask], inputs, tree);
    const int right = Emit(right_[mask], inputs, tree);
    JoinTreeNode join;
    join.left = left;
    join.right = right;
    for (uint64_t m = cols_[left_[mask]] & cols_[right_[mask]]; m != 0;
         m &= m - 1) {
      join.join_columns.push_back(names_[static_cast<size_t>(LowestBit(m))]);
    }
    join.est_rows = rows_[mask];
    tree->nodes.push_back(std::move(join));
    return static_cast<int>(tree->nodes.size() - 1);
  }

 private:
  double* Distinct(uint64_t mask) {
    return distinct_.data() + mask * names_.size();
  }
  const double* Distinct(uint64_t mask) const {
    return distinct_.data() + mask * names_.size();
  }

  double cross_penalty_;
  std::vector<std::string> names_;  ///< interned columns, in name order
  std::vector<double> cost_;
  std::vector<double> rows_;
  std::vector<uint64_t> cols_;
  std::vector<uint64_t> left_;   ///< winning split (left/right subset
  std::vector<uint64_t> right_;  ///< masks); both zero for singletons
  std::vector<double> distinct_;  ///< [mask * num_columns + column]
};

}  // namespace

JoinOrderDecision ChooseJoinOrder(const std::vector<EstRel>& inputs,
                                  const JoinOrderOptions& options) {
  JoinOrderDecision decision;
  JoinTree greedy = GreedyJoinOrder(inputs);
  decision.greedy_cost = JoinTreeCost(greedy, inputs, options.cross_penalty);
  decision.dp_cost = decision.greedy_cost;
  // With fewer than three inputs there is exactly one join (or none), so
  // every order costs the same; above the budget the table won't fit.
  if (inputs.size() < 3 || inputs.size() > options.dp_max_inputs ||
      inputs.size() > 63) {
    return decision;
  }

  FlatTable table(inputs, options);
  // Column sets are bitmasks: more than 64 distinct columns (never the
  // case for plan structures, which bind one or two variables each) keep
  // the greedy order.
  if (table.num_columns() > 64) return decision;

  const size_t n = inputs.size();
  const uint64_t full = (uint64_t{1} << n) - 1;
  if (options.bushy) {
    for (uint64_t mask = 1; mask <= full; ++mask) {
      if (PopCount(mask) < 2) continue;
      ++decision.subsets_explored;
      uint64_t lowest = mask & (~mask + 1);
      // Enumerate splits with the lowest input on the left: each
      // unordered partition is seen once (the join estimate is
      // symmetric).
      for (uint64_t sub = (mask - 1) & mask; sub != 0;
           sub = (sub - 1) & mask) {
        if ((sub & lowest) == 0) continue;
        table.Consider(sub, mask ^ sub);
      }
    }
  } else {
    // Left-deep: extend every reachable subset by one remaining input.
    for (uint64_t mask = 1; mask < full; ++mask) {
      if (table.cost(mask) == kInf) continue;
      ++decision.subsets_explored;
      for (size_t j = 0; j < n; ++j) {
        uint64_t bit = uint64_t{1} << j;
        if ((mask & bit) != 0) continue;
        table.Consider(mask, bit);
      }
    }
  }

  decision.dp_cost = table.cost(full);
  // The greedy order is itself a left-deep tree the DP enumerates, so
  // dp_cost <= greedy_cost always; only an order predicted meaningfully
  // cheaper is worth deviating from the executor's default for.
  if (decision.dp_cost <
      decision.greedy_cost * (1.0 - std::max(0.0, options.min_gain))) {
    decision.tree.source =
        options.bushy ? JoinOrderSource::kDpBushy : JoinOrderSource::kDp;
    table.Emit(full, inputs, &decision.tree);
  }
  return decision;
}

}  // namespace pascalr
