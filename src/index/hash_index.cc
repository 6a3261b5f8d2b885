#include "index/hash_index.h"

#include <algorithm>

namespace pascalr {

void HashIndex::Add(const Value& v, const Ref& ref) {
  RefList& list = map_[v];
  if (AppendUnique(&list.refs, &list.ascending, ref)) ++entry_count_;
}

bool HashIndex::Remove(const Value& v, const Ref& ref) {
  auto it = map_.find(v);
  if (it == map_.end()) return false;
  auto& refs = it->second.refs;
  auto pos = std::find(refs.begin(), refs.end(), ref);
  if (pos == refs.end()) return false;
  refs.erase(pos);
  --entry_count_;
  if (refs.empty()) map_.erase(it);
  return true;
}

const std::vector<Ref>* HashIndex::FindEqual(const Value& probe) const {
  auto it = map_.find(probe);
  return it == map_.end() ? nullptr : &it->second.refs;
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
  for (const auto& [value, list] : map_) {
    if (!value.Satisfies(op, probe)) continue;
    for (const Ref& r : list.refs) {
      if (!visit(r)) return;
    }
  }
}

void HashIndex::ForEachEntry(
    const std::function<bool(const Value&, const Ref&)>& visit) const {
  for (const auto& [value, list] : map_) {
    for (const Ref& r : list.refs) {
      if (!visit(value, r)) return;
    }
  }
}

}  // namespace pascalr
