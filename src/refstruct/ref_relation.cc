#include "refstruct/ref_relation.h"

#include "base/logging.h"
#include "base/str_util.h"

namespace pascalr {

int RefRelation::ColumnIndex(const std::string& var) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i] == var) return static_cast<int>(i);
  }
  return -1;
}

uint64_t RefRelation::HashRow(const RefRow& row) {
  uint64_t h = kRowHashSeed;
  for (const Ref& r : row) h = HashCombine(h, r.Hash());
  return h;
}

bool RefRelation::Add(RefRow row) {
  PASCALR_DCHECK(row.size() == columns_.size());
  const bool inserted =
      index_
          .FindOrInsert(HashRow(row),
                        [&](uint32_t pos) { return rows_[pos] == row; })
          .second;
  if (inserted) rows_.push_back(std::move(row));
  return inserted;
}

bool RefRelation::Contains(const RefRow& row) const {
  return ContainsPrehashed(HashRow(row), row);
}

bool RefRelation::ContainsPrehashed(uint64_t hash, const RefRow& row) const {
  return index_.Find(hash, [&](uint32_t pos) { return rows_[pos] == row; }) !=
         FlatHashTable::kNone;
}

void RefRelation::Clear() {
  rows_.clear();
  index_.Clear();
}

std::string RefRelation::DebugString(size_t max_rows) const {
  std::string out = "(" + Join(columns_, ",") + ") {";
  for (size_t i = 0; i < rows_.size() && i < max_rows; ++i) {
    if (i > 0) out += ", ";
    std::vector<std::string> parts;
    for (const Ref& r : rows_[i]) parts.push_back(r.ToString());
    out += "<" + Join(parts, ",") + ">";
  }
  if (rows_.size() > max_rows) out += ", ...";
  out += StrFormat("} %zu rows", rows_.size());
  return out;
}

}  // namespace pascalr
