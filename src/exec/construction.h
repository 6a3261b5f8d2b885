// The construction phase (paper §3.3, step 3): dereferences the reference
// tuples delivered by the combination phase and projects them onto the
// component selection, dropping duplicates (a selection is a set). Used in
// two modes: ExecuteConstruction materialises the whole result, while the
// streaming Cursor (exec/cursor.h) pulls one tuple at a time; both go
// through one ResultDedup.

#ifndef PASCALR_EXEC_CONSTRUCTION_H_
#define PASCALR_EXEC_CONSTRUCTION_H_

#include <vector>

#include "base/status.h"
#include "catalog/database.h"
#include "exec/plan.h"
#include "exec/stats.h"
#include "refstruct/flat_hash.h"
#include "refstruct/ref_relation.h"

namespace pascalr {

/// Resolves the plan's projection against the combination result's
/// columns: entry i is the RefRelation column of projection component i.
Result<std::vector<int>> ResolveProjectionColumns(const QueryPlan& plan,
                                                  const RefRelation& table);

/// Same, against a bare column layout (the pipelined combination stream
/// has no materialised RefRelation to resolve against).
Result<std::vector<int>> ResolveProjectionColumns(
    const QueryPlan& plan, const std::vector<std::string>& columns);

/// Construction with duplicate elimination. Each combination row's
/// projected components are dereferenced once (one `dereferences` each)
/// and their Value hashes folded; a FlatHashTable over those hashes finds
/// earlier rows that may produce the same tuple. An entry stores only the
/// projected refs of the first row that produced its tuple, so an equal
/// hash is confirmed by dereferencing them again (uncounted) and comparing
/// values. A Tuple is built only for a fresh row.
class ResultDedup {
 public:
  ResultDedup() = default;
  /// `column_of_var` from ResolveProjectionColumns; `db` and `stats`
  /// (optional) must outlive the helper.
  ResultDedup(const QueryPlan& plan, const std::vector<int>& column_of_var,
              const Database* db, ExecStats* stats);

  /// Constructs `row`'s projected tuple into `*out` and returns true, or
  /// returns false (leaving `*out` alone) when an earlier row produced
  /// the same tuple.
  Result<bool> Next(const RefRow& row, Tuple* out);

  /// Distinct tuples produced so far.
  size_t size() const { return table_.size(); }

  /// Releases the dedup storage; size() reads 0 afterwards.
  void Clear();

 private:
  struct Component {
    size_t column;  ///< RefRow column of the projected variable
    size_t pos;     ///< component position within its relation
  };

  const Database* db_ = nullptr;
  ExecStats* stats_ = nullptr;
  std::vector<Component> projection_;
  FlatHashTable table_;    ///< entry i: refs_[i * arity, (i + 1) * arity)
  std::vector<Ref> refs_;  ///< first producing row's projected refs
  std::vector<const Value*> values_;  ///< current row's projected values
};

/// Produces the (deduplicated) result tuples in the projection's component
/// order.
Result<std::vector<Tuple>> ExecuteConstruction(const QueryPlan& plan,
                                               const RefRelation& table,
                                               const Database& db,
                                               ExecStats* stats);

}  // namespace pascalr

#endif  // PASCALR_EXEC_CONSTRUCTION_H_
