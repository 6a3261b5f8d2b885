#include "refstruct/flat_hash.h"

#include <algorithm>

#include "base/logging.h"

namespace pascalr {

void FlatHashTable::Rehash(size_t slot_count) {
  PASCALR_CHECK(hashes_.size() < kNone) << "flat hash table full";
  slots_.assign(slot_count, kNone);
  mask_ = slot_count - 1;
  for (size_t pos = 0; pos < hashes_.size(); ++pos) {
    slots_[FreeSlot(hashes_[pos])] = static_cast<uint32_t>(pos);
  }
}

size_t FlatHashTable::MaxProbeLength() const {
  size_t longest = 0;
  for (size_t slot = 0; slot < slots_.size(); ++slot) {
    const uint32_t pos = slots_[slot];
    if (pos == kNone) continue;
    const size_t home = Fmix64(hashes_[pos]) & mask_;
    longest = std::max(longest, ((slot - home) & mask_) + 1);
  }
  return longest;
}

void FlatHashTable::Clear() {
  slots_ = {};
  hashes_ = {};
  mask_ = 0;
}

}  // namespace pascalr
