// The flat-table join-order DP (joinorder/dp.cc) against a reference
// copy of the std::map-based DP it replaced: over random estimated
// relations, both must agree bit for bit — costs, subset counts and every
// node of the emitted tree. The flat table interns columns in name order
// precisely so that its floating-point operations run in the reference's
// order; a reordering would show up here as a last-bit difference.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "joinorder/dp.h"
#include "joinorder/heuristics.h"

namespace pascalr {
namespace {

// ---- reference: the map-based DP, one EstRel (with its std::map) per
// table entry, joined with JoinEstimate -------------------------------

constexpr double kInf = std::numeric_limits<double>::infinity();

struct RefEntry {
  double cost = kInf;
  EstRel est;
  uint64_t left = 0;
  uint64_t right = 0;
};

int RefEmit(const std::vector<RefEntry>& table, uint64_t mask,
            const std::vector<EstRel>& inputs, JoinTree* tree) {
  const RefEntry& e = table[mask];
  if (e.left == 0) {
    JoinTreeNode leaf;
    leaf.leaf = true;
    size_t input = 0;
    while (((mask >> input) & 1) == 0) ++input;
    leaf.input = input;
    leaf.est_rows = inputs[input].rows;
    tree->nodes.push_back(std::move(leaf));
    return static_cast<int>(tree->nodes.size() - 1);
  }
  int left = RefEmit(table, e.left, inputs, tree);
  int right = RefEmit(table, e.right, inputs, tree);
  JoinTreeNode join;
  join.left = left;
  join.right = right;
  join.join_columns = SharedColumns(table[e.left].est, table[e.right].est);
  join.est_rows = e.est.rows;
  tree->nodes.push_back(std::move(join));
  return static_cast<int>(tree->nodes.size() - 1);
}

JoinOrderDecision ReferenceChooseJoinOrder(const std::vector<EstRel>& inputs,
                                           const JoinOrderOptions& options) {
  JoinOrderDecision decision;
  JoinTree greedy = GreedyJoinOrder(inputs);
  decision.greedy_cost = JoinTreeCost(greedy, inputs, options.cross_penalty);
  decision.dp_cost = decision.greedy_cost;
  if (inputs.size() < 3 || inputs.size() > options.dp_max_inputs ||
      inputs.size() > 63) {
    return decision;
  }
  const size_t n = inputs.size();
  const uint64_t full = (uint64_t{1} << n) - 1;
  const JoinGraph graph(inputs);
  std::vector<RefEntry> table(full + 1);
  for (size_t i = 0; i < n; ++i) {
    RefEntry& e = table[uint64_t{1} << i];
    e.cost = 0.0;
    e.est = inputs[i];
  }
  auto consider = [&](uint64_t left, uint64_t right) {
    const RefEntry& l = table[left];
    const RefEntry& r = table[right];
    if (l.cost == kInf || r.cost == kInf) return;
    EstRel joined = JoinEstimate(l.est, r.est);
    bool cross = (graph.NeighborsOf(left) & right) == 0;
    double cost = l.cost + r.cost +
                  joined.rows * (cross ? options.cross_penalty : 1.0);
    RefEntry& out = table[left | right];
    if (cost < out.cost) {
      out.cost = cost;
      out.est = std::move(joined);
      out.left = left;
      out.right = right;
    }
  };
  if (options.bushy) {
    for (uint64_t mask = 1; mask <= full; ++mask) {
      if (__builtin_popcountll(mask) < 2) continue;
      ++decision.subsets_explored;
      uint64_t lowest = mask & (~mask + 1);
      for (uint64_t sub = (mask - 1) & mask; sub != 0;
           sub = (sub - 1) & mask) {
        if ((sub & lowest) == 0) continue;
        consider(sub, mask ^ sub);
      }
    }
  } else {
    for (uint64_t mask = 1; mask < full; ++mask) {
      if (table[mask].cost == kInf) continue;
      ++decision.subsets_explored;
      for (size_t j = 0; j < n; ++j) {
        uint64_t bit = uint64_t{1} << j;
        if ((mask & bit) != 0) continue;
        consider(mask, bit);
      }
    }
  }
  decision.dp_cost = table[full].cost;
  if (decision.dp_cost <
      decision.greedy_cost * (1.0 - std::max(0.0, options.min_gain))) {
    decision.tree.source =
        options.bushy ? JoinOrderSource::kDpBushy : JoinOrderSource::kDp;
    RefEmit(table, full, inputs, &decision.tree);
  }
  return decision;
}

// ---- random inputs ----------------------------------------------------

/// `n` summaries over a pool of column names whose name order differs
/// from their creation order. Each binds one to three columns; row and
/// distinct counts span fractions, zeros, values below one and values
/// above the row count, so every max/min/cap branch is taken.
std::vector<EstRel> RandomInputs(size_t n, std::mt19937_64* rng) {
  std::vector<std::string> pool;
  const size_t columns = 2 + (*rng)() % (n + 3);
  for (size_t i = 0; i < columns; ++i) {
    pool.push_back(std::string(1, static_cast<char>('z' - (*rng)() % 26)) +
                   std::to_string((*rng)() % 100));
  }
  auto value = [rng](double scale) {
    switch ((*rng)() % 6) {
      case 0:
        return 0.0;
      case 1:
        return 0.25 * static_cast<double>((*rng)() % 4);
      default:
        return scale * std::uniform_real_distribution<double>(0.0, 1.0)(*rng);
    }
  };
  std::vector<EstRel> inputs(n);
  for (EstRel& in : inputs) {
    in.rows = (*rng)() % 8 == 0 ? value(10.0) : 1.0 + value(5000.0);
    const size_t bound = 1 + (*rng)() % 3;
    for (size_t c = 0; c < bound; ++c) {
      in.distinct[pool[(*rng)() % pool.size()]] = value(2.0 * in.rows + 2.0);
    }
  }
  return inputs;
}

void ExpectSameDecision(const JoinOrderDecision& got,
                        const JoinOrderDecision& want) {
  EXPECT_EQ(got.dp_cost, want.dp_cost);
  EXPECT_EQ(got.greedy_cost, want.greedy_cost);
  EXPECT_EQ(got.subsets_explored, want.subsets_explored);
  EXPECT_EQ(got.tree.source, want.tree.source);
  ASSERT_EQ(got.tree.nodes.size(), want.tree.nodes.size());
  for (size_t i = 0; i < got.tree.nodes.size(); ++i) {
    SCOPED_TRACE("node " + std::to_string(i));
    const JoinTreeNode& g = got.tree.nodes[i];
    const JoinTreeNode& w = want.tree.nodes[i];
    EXPECT_EQ(g.leaf, w.leaf);
    EXPECT_EQ(g.input, w.input);
    EXPECT_EQ(g.left, w.left);
    EXPECT_EQ(g.right, w.right);
    EXPECT_EQ(g.join_columns, w.join_columns);
    EXPECT_EQ(g.est_rows, w.est_rows);
  }
}

TEST(JoinOrderDpPropertyTest, FlatTableMatchesMapReference) {
  size_t trees = 0;
  for (size_t n = 3; n <= 12; ++n) {
    for (bool bushy : {false, true}) {
      // Bushy enumeration is 3^n; fewer rounds at the top of the range.
      const int rounds = bushy && n >= 11 ? 2 : 25;
      for (int round = 0; round < rounds; ++round) {
        std::mt19937_64 rng(n * 1000 + round * 2 + (bushy ? 1 : 0));
        std::vector<EstRel> inputs = RandomInputs(n, &rng);
        JoinOrderOptions options;
        options.bushy = bushy;
        // min_gain 0 emits a tree whenever the DP strictly beats greedy.
        options.min_gain = round % 2 == 0 ? 0.05 : 0.0;
        SCOPED_TRACE("n " + std::to_string(n) + " bushy " +
                     std::to_string(bushy) + " round " +
                     std::to_string(round));
        JoinOrderDecision got = ChooseJoinOrder(inputs, options);
        ExpectSameDecision(got, ReferenceChooseJoinOrder(inputs, options));
        if (HasFatalFailure()) return;
        if (!got.tree.empty()) ++trees;
      }
    }
  }
  EXPECT_GT(trees, 50u) << "too few emitted trees to compare";
}

TEST(JoinOrderDpPropertyTest, BudgetAndTinyInputsMatchReference) {
  std::mt19937_64 rng(7);
  for (size_t n : {0, 1, 2, 13}) {
    std::vector<EstRel> inputs = RandomInputs(n, &rng);
    JoinOrderOptions options;
    ExpectSameDecision(ChooseJoinOrder(inputs, options),
                       ReferenceChooseJoinOrder(inputs, options));
  }
}

}  // namespace
}  // namespace pascalr
