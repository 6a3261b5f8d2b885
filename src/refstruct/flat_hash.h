// FlatHashTable: the open-addressing hash directory behind every hashed
// lookup of the collection and construction phases (paper §3.2-3.3):
// RefRelation's row dedup, the join-key tables of the pipeline's
// ProbeJoinIter and of NaturalJoin, HashIndex's value directory (the
// transient indexes of indirect joins), the construction phase's result
// dedup (exec/construction.h), and — through FlatValueSet below — the
// full value lists of pushed-down quantifiers (§4.4) and ANALYZE's
// per-column distinct counts.
//
// The table indexes entries the caller stores elsewhere, by position:
// entry i carries a cached 64-bit hash, and a power-of-two directory of
// uint32 positions finds the entries with a given hash by linear probing.
// Entry equality beyond the hash is the caller's predicate over the
// position, so the table stores no keys and allocates only when it grows
// (the directory doubles at half load and is refilled from the cached
// hashes). Positions are handed out 0, 1, 2, ... in insertion order, so
// the caller's entry array keeps its insertion order.
//
// Hashes are run through a 64-bit finalizer before masking: HashCombine
// leaves structure in the low bits that would otherwise pile keys into
// neighbouring slots.

#ifndef PASCALR_REFSTRUCT_FLAT_HASH_H_
#define PASCALR_REFSTRUCT_FLAT_HASH_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "base/str_util.h"
#include "value/value.h"

namespace pascalr {

class FlatHashTable {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  size_t size() const { return hashes_.size(); }

  /// Position of the first entry (in probe order) whose hash is `h` and
  /// for which `eq(pos)` holds, or kNone.
  template <typename Eq>
  uint32_t Find(uint64_t h, const Eq& eq) const {
    if (slots_.empty()) return kNone;
    for (size_t slot = Fmix64(h) & mask_;; slot = (slot + 1) & mask_) {
      const uint32_t pos = slots_[slot];
      if (pos == kNone) return kNone;
      if (hashes_[pos] == h && eq(pos)) return pos;
    }
  }

  /// Find, and when nothing matches append a new entry with hash `h` at
  /// position size(). Returns {position, inserted}.
  template <typename Eq>
  std::pair<uint32_t, bool> FindOrInsert(uint64_t h, const Eq& eq) {
    size_t slot = 0;
    if (!slots_.empty()) {
      for (slot = Fmix64(h) & mask_;; slot = (slot + 1) & mask_) {
        const uint32_t pos = slots_[slot];
        if (pos == kNone) break;
        if (hashes_[pos] == h && eq(pos)) return {pos, false};
      }
    }
    if ((hashes_.size() + 1) * 2 > slots_.size()) {
      Rehash(slots_.empty() ? kMinSlots : slots_.size() * 2);
      slot = FreeSlot(h);
    }
    const auto pos = static_cast<uint32_t>(hashes_.size());
    slots_[slot] = pos;
    hashes_.push_back(h);
    return {pos, true};
  }

  /// Drops every entry and releases the storage.
  void Clear();

  /// The longest probe sequence any entry's lookup walks (1 = every entry
  /// sits in its home slot; 0 when empty): a hash-quality diagnostic.
  size_t MaxProbeLength() const;

 private:
  static constexpr size_t kMinSlots = 16;

  /// First empty slot on `h`'s probe sequence.
  size_t FreeSlot(uint64_t h) const {
    size_t slot = Fmix64(h) & mask_;
    while (slots_[slot] != kNone) slot = (slot + 1) & mask_;
    return slot;
  }

  void Rehash(size_t slot_count);

  std::vector<uint32_t> slots_;   ///< directory: entry position or kNone
  std::vector<uint64_t> hashes_;  ///< cached hash per entry position
  size_t mask_ = 0;               ///< slots_.size() - 1
};

/// A set of distinct Values in first-insertion order: each value is
/// hashed once, and the values live in one flat vector.
class FlatValueSet {
 public:
  /// Adds `v`; returns true if it was not in the set.
  bool Insert(const Value& v) {
    const bool inserted =
        table_
            .FindOrInsert(v.Hash(),
                          [&](uint32_t pos) { return values_[pos] == v; })
            .second;
    if (inserted) values_.push_back(v);
    return inserted;
  }

  bool Contains(const Value& v) const {
    return table_.Find(v.Hash(), [&](uint32_t pos) {
      return values_[pos] == v;
    }) != FlatHashTable::kNone;
  }

  size_t size() const { return values_.size(); }

 private:
  FlatHashTable table_;        ///< entry i is values_[i]
  std::vector<Value> values_;  ///< distinct values, first-insertion order
};

}  // namespace pascalr

#endif  // PASCALR_REFSTRUCT_FLAT_HASH_H_
