#include "value/tuple.h"

#include "base/logging.h"
#include "base/str_util.h"

namespace pascalr {

int Tuple::Compare(const Tuple& other) const {
  size_t n = values_.size() < other.values_.size() ? values_.size()
                                                   : other.values_.size();
  for (size_t i = 0; i < n; ++i) {
    int c = values_[i].Compare(other.values_[i]);
    if (c != 0) return c;
  }
  if (values_.size() < other.values_.size()) return -1;
  if (values_.size() > other.values_.size()) return 1;
  return 0;
}

uint64_t Tuple::Hash() const {
  uint64_t h = kHashSeed;
  for (const Value& v : values_) h = HashCombine(h, v.Hash());
  return h;
}

Tuple Tuple::Project(const std::vector<size_t>& positions) const {
  std::vector<Value> out;
  out.reserve(positions.size());
  for (size_t p : positions) {
    PASCALR_DCHECK(p < values_.size());
    out.push_back(values_[p]);
  }
  return Tuple(std::move(out));
}

std::string Tuple::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(values_.size());
  for (const Value& v : values_) parts.push_back(v.ToString());
  return "<" + Join(parts, ", ") + ">";
}

}  // namespace pascalr
