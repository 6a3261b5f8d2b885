// BTreeIndex: an in-memory B+tree ComponentIndex supporting ordered probes.
//
// Leaves hold (value, ref-list) entries and are chained for in-order
// traversal; internal nodes route by separator keys. Ordering probes
// (<, <=, >, >=) visit exactly the qualifying leaf range; `=` descends to a
// single leaf; `<>` walks all leaves skipping the equal key.
//
// Removal takes refs out of the ref-list but performs no structural
// rebalancing: a value whose ref-list becomes empty remains as a tombstone
// key and is skipped by probes. Query-transient indexes are insert-only, so
// tombstones only matter for long-lived permanent indexes, where the
// catalog can rebuild via Compact().

#ifndef PASCALR_INDEX_BTREE_INDEX_H_
#define PASCALR_INDEX_BTREE_INDEX_H_

#include <memory>
#include <vector>

#include "index/index.h"

namespace pascalr {

class BTreeIndex : public ComponentIndex {
 public:
  /// `fanout` is the maximum number of keys per node (>= 4).
  explicit BTreeIndex(std::string name = "btree", size_t fanout = 32);
  ~BTreeIndex() override;

  void Add(const Value& v, const Ref& ref) override;
  bool Remove(const Value& v, const Ref& ref) override;
  size_t size() const override { return entry_count_; }

  void Probe(CompareOp op, const Value& probe,
             const std::function<bool(const Ref&)>& visit) const override;
  const std::vector<Ref>* FindEqual(const Value& probe) const override;

  void ForEachEntry(const std::function<bool(const Value&, const Ref&)>& visit)
      const override;

  std::string name() const override { return name_; }

  /// Smallest / largest indexed value (ignoring tombstones). Returns false
  /// if the index holds no live entries. Used by strategy 4's min/max
  /// value-list shortcut (paper §4.4).
  bool MinValue(Value* out) const;
  bool MaxValue(Value* out) const;

  size_t num_distinct_values() const { return distinct_count_; }

  /// Rebuilds the tree dropping tombstoned keys.
  void Compact();

  /// Tree height (leaf = 1); exposed for tests.
  size_t height() const;

  /// Verifies B+tree structural invariants (key ordering, child counts,
  /// leaf chaining). Exposed for tests.
  Status CheckInvariants() const;

 private:
  struct Node;
  struct LeafEntry {
    Value value;
    std::vector<Ref> refs;  ///< insertion order; empty = tombstone
    bool ascending = true;  ///< see AppendUnique
  };

  Node* FindLeaf(const Value& v) const;
  /// Splits `node` (which has overflowed) and propagates upward.
  void SplitAndPropagate(Node* node);
  bool VisitRange(const Node* start_leaf, size_t start_pos, CompareOp op,
                  const Value& probe,
                  const std::function<bool(const Ref&)>& visit) const;
  void FreeTree(Node* n);

  std::string name_;
  size_t fanout_;
  Node* root_ = nullptr;
  Node* first_leaf_ = nullptr;
  size_t entry_count_ = 0;
  size_t distinct_count_ = 0;  // live distinct values
};

}  // namespace pascalr

#endif  // PASCALR_INDEX_BTREE_INDEX_H_
