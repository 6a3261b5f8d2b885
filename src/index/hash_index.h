// HashIndex: equality-optimised ComponentIndex. The distinct values live
// in one flat vector in first-insertion order, each beside its ref list,
// and a FlatHashTable over their cached hashes finds a value with one
// probe (refstruct/flat_hash.h). Non-equality probes fall back to a scan
// of that vector (correct, linear, in first-insertion order); the planner
// prefers a BTreeIndex when a term uses an ordering operator.
//
// Remove never drops a value's entry: a value whose refs are all removed
// keeps an empty list, which FindEqual reports as absent and a later Add
// revives in place.

#ifndef PASCALR_INDEX_HASH_INDEX_H_
#define PASCALR_INDEX_HASH_INDEX_H_

#include <vector>

#include "index/index.h"
#include "refstruct/flat_hash.h"

namespace pascalr {

class HashIndex : public ComponentIndex {
 public:
  HashIndex() = default;
  explicit HashIndex(std::string name) : name_(std::move(name)) {}

  void Add(const Value& v, const Ref& ref) override;
  bool Remove(const Value& v, const Ref& ref) override;
  size_t size() const override { return entry_count_; }

  void Probe(CompareOp op, const Value& probe,
             const std::function<bool(const Ref&)>& visit) const override;
  const std::vector<Ref>* FindEqual(const Value& probe) const override;

  /// Visits in first-insertion order of the values.
  void ForEachEntry(const std::function<bool(const Value&, const Ref&)>& visit)
      const override;

  std::string name() const override { return name_; }

  /// Number of distinct indexed values (values with at least one ref).
  size_t num_distinct_values() const { return distinct_count_; }

 private:
  struct Entry {
    Value value;
    std::vector<Ref> refs;  ///< insertion order
    bool ascending = true;  ///< see AppendUnique
  };

  /// Position of `v`'s entry in entries_, or FlatHashTable::kNone.
  uint32_t Find(const Value& v) const;

  std::string name_ = "hash";
  FlatHashTable table_;         ///< entry i is entries_[i]
  std::vector<Entry> entries_;  ///< first-insertion order
  size_t distinct_count_ = 0;
  size_t entry_count_ = 0;
};

}  // namespace pascalr

#endif  // PASCALR_INDEX_HASH_INDEX_H_
