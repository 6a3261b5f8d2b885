// ComponentIndex: an index from one component's value to the references of
// the elements holding that value (paper §3.2, Figure 2: ind_t_cnr etc.).
//
// Indexes are built either permanently (Example 3.1's enrindex) or
// transiently during the collection phase, and are probed with any of the
// six comparison operators: Probe(op, x) yields every ref whose *stored*
// value v satisfies `v op x`. Equality, the hot probe of indirect joins,
// also has a direct lookup: FindEqual(x) returns the ref list stored
// under exactly x, with no visitor call per ref. HashIndex answers it with
// one probe of a flat hash directory (refstruct/flat_hash.h); BTreeIndex
// with a tree descent.
//
// Ascending-add contract: the refs under one value keep their insertion
// order, and duplicates collapse. A collection pass visits slots in
// ascending order, so while a value's list is ascending a ref greater than
// its last one is new and is appended in O(1) (AppendUnique below). Only
// an out-of-order add (a retried pass, or permanent-index maintenance
// after a slot is reused) pays the linear duplicate check.

#ifndef PASCALR_INDEX_INDEX_H_
#define PASCALR_INDEX_INDEX_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "storage/ref.h"
#include "value/value.h"

namespace pascalr {

/// Appends `item` to `list` unless an equal item is there; returns true if
/// it was new. `*ascending` records whether `list` is strictly ascending:
/// while it is, an item above the last one cannot be a duplicate and skips
/// the scan. An item appended out of order clears the flag until the list
/// is next empty, and adds in between scan linearly.
template <typename T>
bool AppendUnique(std::vector<T>* list, bool* ascending, T item) {
  if (list->empty()) {
    *ascending = true;
  } else if (!*ascending || !(list->back() < item)) {
    if (std::find(list->begin(), list->end(), item) != list->end()) {
      return false;
    }
    *ascending = false;
  }
  list->push_back(std::move(item));
  return true;
}

class ComponentIndex {
 public:
  virtual ~ComponentIndex() = default;

  /// Registers `ref` under value `v`. Duplicate (v, ref) pairs collapse;
  /// O(1) under the ascending-add contract above.
  virtual void Add(const Value& v, const Ref& ref) = 0;

  /// Unregisters (v, ref); returns false if absent.
  virtual bool Remove(const Value& v, const Ref& ref) = 0;

  /// Number of (value, ref) entries.
  virtual size_t size() const = 0;
  bool empty() const { return size() == 0; }

  /// Visits every ref whose stored value v satisfies `v op probe`.
  /// Returning false from the visitor stops early.
  virtual void Probe(CompareOp op, const Value& probe,
                     const std::function<bool(const Ref&)>& visit) const = 0;

  /// The refs stored under exactly `probe`, in insertion order — the
  /// same refs Probe(kEq, probe) visits — or nullptr when there are none.
  virtual const std::vector<Ref>* FindEqual(const Value& probe) const = 0;

  /// True if some stored value v satisfies `v op probe` (semi-join test).
  bool ProbeAny(CompareOp op, const Value& probe) const {
    if (op == CompareOp::kEq) return FindEqual(probe) != nullptr;
    bool found = false;
    Probe(op, probe, [&](const Ref&) {
      found = true;
      return false;
    });
    return found;
  }

  /// Visits every (value, ref) entry. Ordered indexes visit in value
  /// order; HashIndex visits its values in first-insertion order.
  virtual void ForEachEntry(
      const std::function<bool(const Value&, const Ref&)>& visit) const = 0;

  virtual std::string name() const = 0;
};

}  // namespace pascalr

#endif  // PASCALR_INDEX_INDEX_H_
