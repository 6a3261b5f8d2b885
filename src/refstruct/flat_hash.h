// FlatHashTable: the open-addressing hash directory behind the reference
// structures' lookups — RefRelation's row dedup and the join-key tables
// of the pipeline's ProbeJoinIter and of NaturalJoin (paper §3.2–3.3).
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
    for (size_t slot = Mix(h) & mask_;; slot = (slot + 1) & mask_) {
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
      for (slot = Mix(h) & mask_;; slot = (slot + 1) & mask_) {
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

 private:
  static constexpr size_t kMinSlots = 16;

  /// The murmur3 64-bit finalizer.
  static uint64_t Mix(uint64_t h) {
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h;
  }

  /// First empty slot on `h`'s probe sequence.
  size_t FreeSlot(uint64_t h) const {
    size_t slot = Mix(h) & mask_;
    while (slots_[slot] != kNone) slot = (slot + 1) & mask_;
    return slot;
  }

  void Rehash(size_t slot_count);

  std::vector<uint32_t> slots_;   ///< directory: entry position or kNone
  std::vector<uint64_t> hashes_;  ///< cached hash per entry position
  size_t mask_ = 0;               ///< slots_.size() - 1
};

}  // namespace pascalr

#endif  // PASCALR_REFSTRUCT_FLAT_HASH_H_
