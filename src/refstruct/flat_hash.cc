#include "refstruct/flat_hash.h"

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

void FlatHashTable::Clear() {
  slots_ = {};
  hashes_ = {};
  mask_ = 0;
}

}  // namespace pascalr
