#include "index/btree_index.h"

#include <algorithm>

#include "base/logging.h"

namespace pascalr {

// A node is either a leaf (entries populated) or internal (keys/children
// populated; children.size() == keys.size() + 1). keys[i] is the smallest
// value reachable in children[i + 1].
struct BTreeIndex::Node {
  bool is_leaf = true;
  Node* parent = nullptr;

  // Leaf state.
  std::vector<LeafEntry> entries;
  Node* next_leaf = nullptr;
  Node* prev_leaf = nullptr;

  // Internal state.
  std::vector<Value> keys;
  std::vector<Node*> children;
};

BTreeIndex::BTreeIndex(std::string name, size_t fanout)
    : name_(std::move(name)), fanout_(fanout < 4 ? 4 : fanout) {
  root_ = new Node();
  first_leaf_ = root_;
}

BTreeIndex::~BTreeIndex() { FreeTree(root_); }

void BTreeIndex::FreeTree(Node* n) {
  if (n == nullptr) return;
  if (!n->is_leaf) {
    for (Node* c : n->children) FreeTree(c);
  }
  delete n;
}

BTreeIndex::Node* BTreeIndex::FindLeaf(const Value& v) const {
  Node* n = root_;
  while (!n->is_leaf) {
    // Find first key > v; descend into that child.
    size_t i = 0;
    while (i < n->keys.size() && !(v < n->keys[i])) ++i;
    n = n->children[i];
  }
  return n;
}

void BTreeIndex::Add(const Value& v, const Ref& ref) {
  Node* leaf = FindLeaf(v);
  auto it = std::lower_bound(
      leaf->entries.begin(), leaf->entries.end(), v,
      [](const LeafEntry& e, const Value& key) { return e.value < key; });
  if (it != leaf->entries.end() && it->value == v) {
    const bool tombstone = it->refs.empty();
    if (!AppendUnique(&it->refs, &it->ascending, ref)) return;
    if (tombstone) ++distinct_count_;  // resurrected
    ++entry_count_;
    return;
  }
  LeafEntry entry;
  entry.value = v;
  entry.refs.push_back(ref);
  leaf->entries.insert(it, std::move(entry));
  ++entry_count_;
  ++distinct_count_;
  if (leaf->entries.size() > fanout_) SplitAndPropagate(leaf);
}

void BTreeIndex::SplitAndPropagate(Node* node) {
  while (node != nullptr) {
    size_t load = node->is_leaf ? node->entries.size() : node->keys.size();
    if (load <= fanout_) return;

    Node* right = new Node();
    right->is_leaf = node->is_leaf;
    Value separator;

    if (node->is_leaf) {
      size_t mid = node->entries.size() / 2;
      separator = node->entries[mid].value;
      right->entries.assign(
          std::make_move_iterator(node->entries.begin() + mid),
          std::make_move_iterator(node->entries.end()));
      node->entries.resize(mid);
      right->next_leaf = node->next_leaf;
      if (right->next_leaf) right->next_leaf->prev_leaf = right;
      right->prev_leaf = node;
      node->next_leaf = right;
    } else {
      size_t mid = node->keys.size() / 2;
      separator = node->keys[mid];
      right->keys.assign(std::make_move_iterator(node->keys.begin() + mid + 1),
                         std::make_move_iterator(node->keys.end()));
      right->children.assign(node->children.begin() + mid + 1,
                             node->children.end());
      for (Node* c : right->children) c->parent = right;
      node->keys.resize(mid);
      node->children.resize(mid + 1);
    }

    Node* parent = node->parent;
    if (parent == nullptr) {
      parent = new Node();
      parent->is_leaf = false;
      parent->children.push_back(node);
      node->parent = parent;
      root_ = parent;
    }
    right->parent = parent;
    // Insert separator and right child after node's position.
    size_t pos = 0;
    while (parent->children[pos] != node) ++pos;
    parent->keys.insert(parent->keys.begin() + pos, separator);
    parent->children.insert(parent->children.begin() + pos + 1, right);

    node = parent;
  }
}

bool BTreeIndex::Remove(const Value& v, const Ref& ref) {
  Node* leaf = FindLeaf(v);
  auto it = std::lower_bound(
      leaf->entries.begin(), leaf->entries.end(), v,
      [](const LeafEntry& e, const Value& key) { return e.value < key; });
  if (it == leaf->entries.end() || it->value != v) return false;
  auto pos = std::find(it->refs.begin(), it->refs.end(), ref);
  if (pos == it->refs.end()) return false;
  it->refs.erase(pos);
  --entry_count_;
  if (it->refs.empty()) --distinct_count_;  // becomes a tombstone
  return true;
}

bool BTreeIndex::VisitRange(
    const Node* start_leaf, size_t start_pos, CompareOp op, const Value& probe,
    const std::function<bool(const Ref&)>& visit) const {
  const Node* leaf = start_leaf;
  size_t pos = start_pos;
  while (leaf != nullptr) {
    for (; pos < leaf->entries.size(); ++pos) {
      const LeafEntry& e = leaf->entries[pos];
      if (e.refs.empty()) continue;  // tombstone
      if (!e.value.Satisfies(op, probe)) {
        // Values are visited in ascending order, so < / <= / = ranges end
        // at the first non-qualifying value. <> and >= / > never end early.
        if (op == CompareOp::kLt || op == CompareOp::kLe ||
            op == CompareOp::kEq) {
          return true;
        }
        continue;
      }
      for (const Ref& r : e.refs) {
        if (!visit(r)) return false;
      }
    }
    leaf = leaf->next_leaf;
    pos = 0;
  }
  return true;
}

const std::vector<Ref>* BTreeIndex::FindEqual(const Value& probe) const {
  // An indexed value lives in the leaf FindLeaf routes it to (Add inserts
  // there and splits keep the routing), so one leaf search decides.
  const Node* leaf = FindLeaf(probe);
  auto it = std::lower_bound(
      leaf->entries.begin(), leaf->entries.end(), probe,
      [](const LeafEntry& e, const Value& key) { return e.value < key; });
  if (it == leaf->entries.end() || it->value != probe || it->refs.empty()) {
    return nullptr;
  }
  return &it->refs;
}

void BTreeIndex::Probe(CompareOp op, const Value& probe,
                       const std::function<bool(const Ref&)>& visit) const {
  switch (op) {
    case CompareOp::kLt:
    case CompareOp::kLe:
    case CompareOp::kNe:
      // Must start from the smallest value.
      VisitRange(first_leaf_, 0, op, probe, visit);
      return;
    case CompareOp::kEq:
    case CompareOp::kGe:
    case CompareOp::kGt: {
      // Start at the leaf that could contain `probe`.
      Node* leaf = FindLeaf(probe);
      size_t pos = static_cast<size_t>(
          std::lower_bound(
              leaf->entries.begin(), leaf->entries.end(), probe,
              [](const LeafEntry& e, const Value& key) { return e.value < key; }) -
          leaf->entries.begin());
      VisitRange(leaf, pos, op, probe, visit);
      return;
    }
  }
}

void BTreeIndex::ForEachEntry(
    const std::function<bool(const Value&, const Ref&)>& visit) const {
  for (const Node* leaf = first_leaf_; leaf != nullptr;
       leaf = leaf->next_leaf) {
    for (const LeafEntry& e : leaf->entries) {
      for (const Ref& r : e.refs) {
        if (!visit(e.value, r)) return;
      }
    }
  }
}

bool BTreeIndex::MinValue(Value* out) const {
  for (const Node* leaf = first_leaf_; leaf != nullptr;
       leaf = leaf->next_leaf) {
    for (const LeafEntry& e : leaf->entries) {
      if (!e.refs.empty()) {
        *out = e.value;
        return true;
      }
    }
  }
  return false;
}

bool BTreeIndex::MaxValue(Value* out) const {
  bool found = false;
  // Walk forward; trees here are small enough that a reverse leaf walk with
  // tombstone skipping is not worth the extra code.
  for (const Node* leaf = first_leaf_; leaf != nullptr;
       leaf = leaf->next_leaf) {
    for (const LeafEntry& e : leaf->entries) {
      if (!e.refs.empty()) {
        *out = e.value;
        found = true;
      }
    }
  }
  return found;
}

void BTreeIndex::Compact() {
  std::vector<LeafEntry> live;
  for (Node* leaf = first_leaf_; leaf != nullptr; leaf = leaf->next_leaf) {
    for (LeafEntry& e : leaf->entries) {
      if (!e.refs.empty()) live.push_back(std::move(e));
    }
  }
  FreeTree(root_);
  root_ = new Node();
  first_leaf_ = root_;
  entry_count_ = 0;
  distinct_count_ = 0;
  for (LeafEntry& e : live) {
    for (const Ref& r : e.refs) Add(e.value, r);
  }
}

size_t BTreeIndex::height() const {
  size_t h = 1;
  const Node* n = root_;
  while (!n->is_leaf) {
    ++h;
    n = n->children[0];
  }
  return h;
}

Status BTreeIndex::CheckInvariants() const {
  // Every leaf reachable from the root must appear in the leaf chain, keys
  // must be sorted, and internal fan-out must be consistent.
  std::vector<const Node*> stack = {root_};
  size_t counted_entries = 0;
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    if (n->is_leaf) {
      for (size_t i = 1; i < n->entries.size(); ++i) {
        if (!(n->entries[i - 1].value < n->entries[i].value)) {
          return Status::Internal("leaf keys out of order");
        }
      }
      for (const LeafEntry& e : n->entries) counted_entries += e.refs.size();
    } else {
      if (n->children.size() != n->keys.size() + 1) {
        return Status::Internal("internal node child count mismatch");
      }
      for (size_t i = 1; i < n->keys.size(); ++i) {
        if (!(n->keys[i - 1] < n->keys[i])) {
          return Status::Internal("internal keys out of order");
        }
      }
      for (const Node* c : n->children) {
        if (c->parent != n) return Status::Internal("broken parent link");
        stack.push_back(c);
      }
    }
  }
  if (counted_entries != entry_count_) {
    return Status::Internal("entry count drift");
  }
  // Leaf chain must be sorted end to end.
  const Node* leaf = first_leaf_;
  const Value* prev = nullptr;
  while (leaf != nullptr) {
    for (const LeafEntry& e : leaf->entries) {
      if (prev != nullptr && !(*prev < e.value)) {
        return Status::Internal("leaf chain out of order");
      }
      prev = &e.value;
    }
    leaf = leaf->next_leaf;
  }
  return Status::OK();
}

}  // namespace pascalr
