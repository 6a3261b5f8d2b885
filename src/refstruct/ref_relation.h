// RefRelation: a relation whose components are references (paper §3.2).
// Column names are query variable names; a row binds each variable to one
// element of its range relation.
//
//   SINGLE LIST    = RefRelation with one column   (monadic join term)
//   INDIRECT JOIN  = RefRelation with two columns  (dyadic join term)
//
// RefRelations have set semantics: duplicate rows collapse. Rows keep
// their insertion order; the dedup index is a FlatHashTable over row
// positions (cached row hash + open-addressing directory), so Add and
// Contains allocate nothing beyond the stored row itself.

#ifndef PASCALR_REFSTRUCT_REF_RELATION_H_
#define PASCALR_REFSTRUCT_REF_RELATION_H_

#include <string>
#include <vector>

#include "base/status.h"
#include "refstruct/flat_hash.h"
#include "storage/ref.h"

namespace pascalr {

using RefRow = std::vector<Ref>;

class RefRelation {
 public:
  RefRelation() = default;
  explicit RefRelation(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  /// Convenience constructors mirroring the paper's vocabulary.
  static RefRelation SingleList(std::string var) {
    return RefRelation({std::move(var)});
  }
  static RefRelation IndirectJoin(std::string var_a, std::string var_b) {
    return RefRelation({std::move(var_a), std::move(var_b)});
  }

  size_t arity() const { return columns_.size(); }
  const std::vector<std::string>& columns() const { return columns_; }
  /// Position of the column bound to `var`, or -1.
  int ColumnIndex(const std::string& var) const;

  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  const std::vector<RefRow>& rows() const { return rows_; }
  const RefRow& row(size_t i) const { return rows_[i]; }

  /// Inserts a row (arity must match); duplicate rows are ignored.
  /// Returns true if the row was new.
  bool Add(RefRow row);

  bool Contains(const RefRow& row) const;

  /// Seed of the row hash, public so vectorized probers (the pipeline's
  /// membership filter) can bulk-compute compatible hashes column-wise.
  static constexpr uint64_t kRowHashSeed = 0x9ae16a3b2f90404fULL;

  /// Contains with a caller-computed hash: `hash` must be the fold of
  /// kRowHashSeed with each ref's Hash() in column order (what HashRow
  /// computes). Skips re-hashing on the per-row probe path.
  bool ContainsPrehashed(uint64_t hash, const RefRow& row) const;

  void Clear();

  /// Total refs stored (rows * arity) — the "size of intermediate
  /// structures" measure the paper's strategies minimise.
  size_t RefCount() const { return rows_.size() * columns_.size(); }

  std::string DebugString(size_t max_rows = 8) const;

 private:
  static uint64_t HashRow(const RefRow& row);

  std::vector<std::string> columns_;
  std::vector<RefRow> rows_;
  FlatHashTable index_;  ///< entry i is rows_[i]
};

}  // namespace pascalr

#endif  // PASCALR_REFSTRUCT_REF_RELATION_H_
