#include "refstruct/ops.h"

#include "base/logging.h"
#include "base/str_util.h"

namespace pascalr {

namespace {

bool KeyEquals(const RefRow& a, const std::vector<int>& pa, const RefRow& b,
               const std::vector<int>& pb) {
  for (size_t i = 0; i < pa.size(); ++i) {
    if (a[static_cast<size_t>(pa[i])] != b[static_cast<size_t>(pb[i])]) {
      return false;
    }
  }
  return true;
}

}  // namespace

JoinHashTable BuildJoinHashTable(const RefRelation& rel,
                                 const std::vector<int>& key) {
  JoinHashTable table;
  // Pass 1 numbers the distinct key hashes and sizes their groups; pass 2
  // lays each group's rows out contiguously, in row order.
  std::vector<uint32_t> group_of(rel.size());
  std::vector<uint32_t> count;
  for (size_t i = 0; i < rel.size(); ++i) {
    const auto [g, inserted] = table.groups.FindOrInsert(
        JoinKeyHash(rel.row(i), key), [](uint32_t) { return true; });
    if (inserted) count.push_back(0);
    ++count[g];
    group_of[i] = g;
  }
  table.group_begin.resize(count.size() + 1);
  table.group_begin[0] = 0;
  for (size_t g = 0; g < count.size(); ++g) {
    table.group_begin[g + 1] = table.group_begin[g] + count[g];
    count[g] = table.group_begin[g];  // now the group's fill cursor
  }
  table.rows.resize(rel.size());
  for (size_t i = 0; i < rel.size(); ++i) {
    table.rows[count[group_of[i]]++] = static_cast<uint32_t>(i);
  }
  return table;
}

RefRelation NaturalJoin(const RefRelation& a, const RefRelation& b,
                        ExecStats* stats) {
  // Shared columns and the positions of b's non-shared columns.
  std::vector<int> a_shared, b_shared;
  std::vector<int> b_extra;
  for (size_t i = 0; i < b.columns().size(); ++i) {
    int pos = a.ColumnIndex(b.columns()[i]);
    if (pos >= 0) {
      a_shared.push_back(pos);
      b_shared.push_back(static_cast<int>(i));
    } else {
      b_extra.push_back(static_cast<int>(i));
    }
  }

  std::vector<std::string> out_columns = a.columns();
  for (int i : b_extra) out_columns.push_back(b.columns()[static_cast<size_t>(i)]);
  RefRelation out(std::move(out_columns));

  // Build on the smaller side. For symmetry of output column order we
  // always emit a-row followed by b-extras; only the probe direction flips.
  const bool build_a = a.size() <= b.size();
  const RefRelation& build = build_a ? a : b;
  const RefRelation& probe = build_a ? b : a;
  const std::vector<int>& build_key = build_a ? a_shared : b_shared;
  const std::vector<int>& probe_key = build_a ? b_shared : a_shared;

  const JoinHashTable table = BuildJoinHashTable(build, build_key);
  for (size_t j = 0; j < probe.size(); ++j) {
    const RefRow& pr = probe.row(j);
    const JoinHashTable::Chain chain = table.Find(JoinKeyHash(pr, probe_key));
    for (size_t c = 0; c < chain.size; ++c) {
      const RefRow& br = build.row(chain.rows[c]);
      if (!KeyEquals(br, build_key, pr, probe_key)) continue;
      const RefRow& a_row = build_a ? br : pr;
      const RefRow& b_row = build_a ? pr : br;
      RefRow row = a_row;
      row.reserve(row.size() + b_extra.size());
      for (int e : b_extra) row.push_back(b_row[static_cast<size_t>(e)]);
      if (out.Add(std::move(row)) && stats != nullptr) {
        ++stats->combination_rows;
      }
    }
  }
  return out;
}

RefRelation ProductWithRefs(const RefRelation& a, const std::string& var,
                            const std::vector<Ref>& refs, ExecStats* stats) {
  PASCALR_DCHECK(a.ColumnIndex(var) < 0) << "variable already bound";
  std::vector<std::string> out_columns = a.columns();
  out_columns.push_back(var);
  RefRelation out(std::move(out_columns));
  for (const RefRow& base : a.rows()) {
    for (const Ref& r : refs) {
      RefRow row = base;
      row.push_back(r);
      if (out.Add(std::move(row)) && stats != nullptr) {
        ++stats->combination_rows;
      }
    }
  }
  return out;
}

Result<RefRelation> UnionRows(const RefRelation& a, const RefRelation& b,
                              ExecStats* stats) {
  if (a.arity() != b.arity()) {
    return Status::InvalidArgument(
        StrFormat("union of ref relations with arity %zu and %zu", a.arity(),
                  b.arity()));
  }
  std::vector<int> realign;  // out column i comes from b column realign[i]
  for (const std::string& col : a.columns()) {
    int pos = b.ColumnIndex(col);
    if (pos < 0) {
      return Status::InvalidArgument("union operand lacks column '" + col +
                                     "'");
    }
    realign.push_back(pos);
  }
  RefRelation out(a.columns());
  for (const RefRow& row : a.rows()) {
    if (out.Add(row) && stats != nullptr) ++stats->combination_rows;
  }
  for (const RefRow& row : b.rows()) {
    RefRow aligned;
    aligned.reserve(row.size());
    for (int p : realign) aligned.push_back(row[static_cast<size_t>(p)]);
    if (out.Add(std::move(aligned)) && stats != nullptr) {
      ++stats->combination_rows;
    }
  }
  return out;
}

Result<RefRelation> Project(const RefRelation& a,
                            const std::vector<std::string>& keep,
                            ExecStats* stats) {
  std::vector<int> positions;
  for (const std::string& col : keep) {
    int pos = a.ColumnIndex(col);
    if (pos < 0) {
      return Status::InvalidArgument("projection on unknown column '" + col +
                                     "'");
    }
    positions.push_back(pos);
  }
  RefRelation out(keep);
  for (const RefRow& row : a.rows()) {
    RefRow projected;
    projected.reserve(positions.size());
    for (int p : positions) projected.push_back(row[static_cast<size_t>(p)]);
    if (out.Add(std::move(projected)) && stats != nullptr) {
      ++stats->combination_rows;
    }
  }
  return out;
}

}  // namespace pascalr
