#include "index/hash_index.h"

#include <algorithm>

namespace pascalr {

uint32_t HashIndex::Find(const Value& v) const {
  return table_.Find(v.Hash(),
                     [&](uint32_t pos) { return entries_[pos].value == v; });
}

void HashIndex::Add(const Value& v, const Ref& ref) {
  const auto [pos, inserted] = table_.FindOrInsert(
      v.Hash(), [&](uint32_t pos) { return entries_[pos].value == v; });
  if (inserted) entries_.push_back(Entry{v, {}, true});
  Entry& entry = entries_[pos];
  const bool was_empty = entry.refs.empty();
  if (!AppendUnique(&entry.refs, &entry.ascending, ref)) return;
  ++entry_count_;
  if (was_empty) ++distinct_count_;
}

bool HashIndex::Remove(const Value& v, const Ref& ref) {
  const uint32_t pos = Find(v);
  if (pos == FlatHashTable::kNone) return false;
  std::vector<Ref>& refs = entries_[pos].refs;
  auto it = std::find(refs.begin(), refs.end(), ref);
  if (it == refs.end()) return false;
  refs.erase(it);
  --entry_count_;
  if (refs.empty()) --distinct_count_;
  return true;
}

const std::vector<Ref>* HashIndex::FindEqual(const Value& probe) const {
  const uint32_t pos = Find(probe);
  if (pos == FlatHashTable::kNone || entries_[pos].refs.empty()) {
    return nullptr;
  }
  return &entries_[pos].refs;
}

void HashIndex::Probe(CompareOp op, const Value& probe,
                      const std::function<bool(const Ref&)>& visit) const {
  if (op == CompareOp::kEq) {
    if (const std::vector<Ref>* refs = FindEqual(probe)) {
      for (const Ref& r : *refs) {
        if (!visit(r)) return;
      }
    }
    return;
  }
  // Fallback scan for ordering operators and <>.
  for (const Entry& entry : entries_) {
    if (!entry.value.Satisfies(op, probe)) continue;
    for (const Ref& r : entry.refs) {
      if (!visit(r)) return;
    }
  }
}

void HashIndex::ForEachEntry(
    const std::function<bool(const Value&, const Ref&)>& visit) const {
  for (const Entry& entry : entries_) {
    for (const Ref& r : entry.refs) {
      if (!visit(entry.value, r)) return;
    }
  }
}

}  // namespace pascalr
