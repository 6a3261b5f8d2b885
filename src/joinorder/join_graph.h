// The join-order optimizer's view of a conjunction's combination inputs
// (paper §3.3): each reference structure is summarised as an estimated
// relation — a row count plus per-column (per-variable) distinct counts —
// and joins between summaries follow the textbook containment estimate.
// The dynamic program (dp.h), the greedy heuristic (heuristics.h) and the
// cost model (src/cost/cost_model.cc) all share JoinEstimate, so planned
// trees and costed trees agree by construction.

#ifndef PASCALR_JOINORDER_JOIN_GRAPH_H_
#define PASCALR_JOINORDER_JOIN_GRAPH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pascalr {

/// An estimated combination-phase relation: expected (distinct) row count
/// plus per-column distinct counts. Columns are query variable names.
struct EstRel {
  double rows = 0.0;
  std::map<std::string, double> distinct;

  bool HasCol(const std::string& c) const { return distinct.count(c) > 0; }
};

/// Estimated natural join of `a` and `b`: Cartesian rows divided by the
/// larger distinct count of every shared column (containment assumption);
/// distinct counts of shared columns take the minimum, all counts capped
/// by the output row count. With no shared column this is the Cartesian
/// product estimate.
EstRel JoinEstimate(const EstRel& a, const EstRel& b);

/// Columns bound by both sides — the natural-join columns. Empty means a
/// join of the two degenerates to a Cartesian product.
std::vector<std::string> SharedColumns(const EstRel& a, const EstRel& b);

/// Connectivity over a conjunction's inputs: node i is input i, and an
/// edge links two inputs that share a column (a variable). Joining two
/// disjoint input sets is a Cartesian step iff no edge crosses them.
class JoinGraph {
 public:
  /// At most 64 inputs (bitset-indexed); callers budget far below that.
  explicit JoinGraph(const std::vector<EstRel>& inputs);

  size_t size() const { return neighbors_.size(); }

  /// Bitmask of the inputs sharing a column with input `i`.
  uint64_t Neighbors(size_t i) const { return neighbors_[i]; }

  /// True when some input in `mask` shares a column with input `j`.
  bool Connects(uint64_t mask, size_t j) const {
    return (neighbors_[j] & mask) != 0;
  }

  /// Union of the neighbor masks of every input in `mask`: joining `mask`
  /// against a subset disjoint from it is a Cartesian step iff that
  /// subset misses this mask entirely.
  uint64_t NeighborsOf(uint64_t mask) const {
    uint64_t out = 0;
    for (size_t i = 0; i < neighbors_.size(); ++i) {
      if ((mask >> i) & 1) out |= neighbors_[i];
    }
    return out;
  }

  /// True when the inputs of `mask` form one connected component.
  bool IsConnected(uint64_t mask) const;

 private:
  std::vector<uint64_t> neighbors_;
};

}  // namespace pascalr

#endif  // PASCALR_JOINORDER_JOIN_GRAPH_H_
