// Relational algebra over reference relations — the combination-phase
// machinery of paper §3.3: natural join / Cartesian product to combine
// single lists and indirect joins into n-tuples of references, union for
// the disjunction, projection for SOME.
// Relational division (for ALL) lives in division.h.

#ifndef PASCALR_REFSTRUCT_OPS_H_
#define PASCALR_REFSTRUCT_OPS_H_

#include <vector>

#include "base/status.h"
#include "exec/stats.h"
#include "refstruct/flat_hash.h"
#include "refstruct/ref_relation.h"

namespace pascalr {

/// Seed of the join-key hash; the pipeline's column-wise probe (the
/// batched ProbeJoinIter) folds chunk columns the same way.
constexpr uint64_t kJoinKeyHashSeed = 0x100001b3ULL;

/// Fold of kJoinKeyHashSeed with the refs at the `key` positions of `row`.
inline uint64_t JoinKeyHash(const RefRow& row, const std::vector<int>& key) {
  uint64_t h = kJoinKeyHashSeed;
  for (int p : key) h = HashCombine(h, row[static_cast<size_t>(p)].Hash());
  return h;
}

/// Join-key index over a RefRelation: the row indices grouped by key
/// hash, each group one contiguous run in row order, so a probe walks a
/// (pointer, count) chain. Rows whose keys merely collide share a group;
/// callers verify the key. Read-only once built, so the parallel drain
/// shares one table across its worker chains.
struct JoinHashTable {
  struct Chain {
    const uint32_t* rows = nullptr;
    size_t size = 0;
  };

  FlatHashTable groups;               ///< one entry per distinct key hash
  std::vector<uint32_t> group_begin;  ///< group g: rows[begin[g], begin[g+1])
  std::vector<uint32_t> rows;         ///< row indices, grouped

  /// Rows whose key hashes to `h`, in row order (empty when none).
  Chain Find(uint64_t h) const {
    const uint32_t g = groups.Find(h, [](uint32_t) { return true; });
    if (g == FlatHashTable::kNone) return {};
    return {rows.data() + group_begin[g], group_begin[g + 1] - group_begin[g]};
  }
};

/// Builds the join-key index over `rel` on the columns `key`. Chains list
/// rows in `rel`'s row order, so every build over one relation probes
/// identically.
JoinHashTable BuildJoinHashTable(const RefRelation& rel,
                                 const std::vector<int>& key);

/// Natural join on the columns the inputs share (hash join, the smaller
/// input builds). With no shared columns this degenerates to the Cartesian
/// product — the combinatorial step the paper's strategies fight.
/// Output columns: a's columns, then b's columns not in a.
RefRelation NaturalJoin(const RefRelation& a, const RefRelation& b,
                        ExecStats* stats);

/// Cartesian product of `a` with a plain set of refs bound to `var`
/// (used to extend a conjunction's tuple set to a variable it does not
/// reference; the full range ref list supplies the refs).
RefRelation ProductWithRefs(const RefRelation& a, const std::string& var,
                            const std::vector<Ref>& refs, ExecStats* stats);

/// Set union. `b`'s columns must be a permutation of `a`'s; rows are
/// realigned by name.
Result<RefRelation> UnionRows(const RefRelation& a, const RefRelation& b,
                              ExecStats* stats);

/// Projection onto `keep` (subset of a's columns, in the given order),
/// deduplicating rows. Existential quantification of var v == projection
/// removing v's column.
Result<RefRelation> Project(const RefRelation& a,
                            const std::vector<std::string>& keep,
                            ExecStats* stats);

}  // namespace pascalr

#endif  // PASCALR_REFSTRUCT_OPS_H_
