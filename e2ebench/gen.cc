// Deterministic input generation: scaled university data, the olap query
// cycle, the ad-hoc chain/star/cycle selection generator, and the serving
// readers' parameter streams plus the writer's log. Everything derives
// from the seed alone.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <tuple>

#include "bench.h"

namespace e2e {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

size_t Rng::Weighted(const std::vector<double>& weights) {
  return WeightedAt(weights, Unit());
}

size_t WeightedAt(const std::vector<double>& weights, double u) {
  double total = 0;
  for (double w : weights) total += w;
  u *= total;
  for (size_t i = 0; i < weights.size(); ++i) {
    if (u < weights[i]) return i;
    u -= weights[i];
  }
  return weights.size() - 1;
}

std::unique_ptr<Database> MakeUniversityDb(size_t n, uint64_t seed) {
  auto db = std::make_unique<Database>();
  pascalr::Status st = pascalr::CreateUniversitySchema(db.get());
  pascalr::UniversityScale scale;
  scale.employees = n;
  scale.papers = 2 * n;
  scale.courses = n / 2 + 1;
  scale.timetable = 3 * n;
  scale.seed = seed;
  if (st.ok()) st = pascalr::PopulateSynthetic(db.get(), scale);
  if (!st.ok()) {
    std::fprintf(stderr, "populate failed: %s\n", st.ToString().c_str());
    std::exit(2);
  }
  return db;
}

namespace {

const char* const kStatus[] = {"student", "technician", "assistant",
                               "professor"};
const char* const kLevel[] = {"freshman", "sophomore", "junior", "senior"};
const char* const kDay[] = {"monday", "tuesday", "wednesday", "thursday",
                            "friday"};

std::string Int(int64_t v) { return std::to_string(v); }

}  // namespace

// Five shapes from the paper, twenty literal variants each. The variants
// cover each literal's domain evenly (every status, level and day equally
// often, years 1978-1997 once each), and the seed permutes how literals
// pair up and the order they run in. So every run draws the same latency
// mix and its median stays steady across seeds.
std::vector<std::string> OlapStatements(uint64_t seed) {
  Rng rng(seed ^ 0x01a9u);
  constexpr int kVariants = 20;
  std::vector<int64_t> years;
  for (int64_t y = 1978; y <= 1997; ++y) years.push_back(y);
  for (size_t i = years.size() - 1; i > 0; --i) std::swap(years[i], years[rng.Below(i + 1)]);
  std::vector<std::vector<std::string>> by_shape(5);
  for (int v = 0; v < kVariants; ++v) {
    const std::string year = Int(years[static_cast<size_t>(v)]);
    const std::string low_level = kLevel[(v / 2) % 2];
    const std::string level = kLevel[v % 4];
    const std::string status = kStatus[2 + v % 2];
    const std::string day = kDay[v % 5];
    const std::string k = Int(2 + v % 3);
    // Example 2.1: ALL/SOME, division and quantifier push-down.
    by_shape[0].push_back(
        "[<e.ename> OF EACH e IN employees: (e.estatus = " + status +
        ") AND (ALL p IN papers ((p.pyear <> " + year +
        ") OR (e.enr <> p.penr)) OR SOME c IN courses ((c.clevel <= " +
        low_level +
        ") AND SOME t IN timetable ((c.cnr = t.tcnr) AND (e.enr = "
        "t.tenr))))]");
    // Example 4.5: extended ranges.
    by_shape[1].push_back(
        "[<e.ename> OF EACH e IN [EACH e IN employees: e.estatus = " +
        status + "]: ALL p IN [EACH p IN papers: p.pyear = " + year +
        "] SOME c IN [EACH c IN courses: c.clevel <= " + low_level +
        "] SOME t IN timetable ((p.penr <> e.enr) OR (t.tenr = e.enr) AND "
        "(t.tcnr = c.cnr))]");
    // ALL-division over courses x timetable.
    by_shape[2].push_back(
        "[<e.ename> OF EACH e IN employees: (e.estatus = " + status +
        ") AND ALL c IN [EACH c IN courses: c.cnr <= " + k +
        "] SOME t IN timetable ((t.tcnr = c.cnr) AND (t.tenr = e.enr))]");
    // Two free variables joined through timetable.
    by_shape[3].push_back(
        "[<e.ename, c.ctitle> OF EACH e IN employees, EACH c IN courses: "
        "(c.clevel <> " +
        level +
        ") AND SOME t IN timetable ((e.enr = t.tenr) AND (c.cnr = "
        "t.tcnr))]");
    // Three free variables.
    by_shape[4].push_back(
        "[<e.ename, c.ctitle, t.troom> OF EACH e IN employees, EACH c IN "
        "courses, EACH t IN timetable: (e.enr = t.tenr) AND (c.cnr = "
        "t.tcnr) AND (t.tday <> " +
        std::string(day) + ")]");
  }
  // Round-robin over the shapes; the variant order is a seeded shuffle.
  std::vector<size_t> order(kVariants);
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = order.size() - 1; i > 0; --i) std::swap(order[i], order[rng.Below(i + 1)]);
  std::vector<std::string> cycle;
  for (size_t v : order) {
    for (auto& shape : by_shape) cycle.push_back(shape[v]);
  }
  return cycle;
}

namespace {

// ---------------------------------------------------- ad-hoc generator

enum class Key { kNone, kEmployee, kCourse };
enum class Kind { kInt, kEnum, kString };

struct Attr {
  const char* name;
  Kind kind;
  Key key;
  int64_t lo, hi;                 ///< integer domain (kInt)
  const char* const* labels;      ///< enum labels (kEnum)
  int n_labels;
};

struct Rel {
  const char* name;
  char letter;
  std::vector<Attr> attrs;
};

std::vector<Rel> AdhocSchema(size_t n) {
  const int64_t e = static_cast<int64_t>(n);
  const int64_t c = static_cast<int64_t>(n / 2 + 1);
  return {
      {"employees",
       'e',
       {{"enr", Kind::kInt, Key::kEmployee, 1, e, nullptr, 0},
        {"ename", Kind::kString, Key::kNone, 0, 0, nullptr, 0},
        {"estatus", Kind::kEnum, Key::kNone, 0, 0, kStatus, 4}}},
      {"papers",
       'p',
       {{"penr", Kind::kInt, Key::kEmployee, 1, e, nullptr, 0},
        {"pyear", Kind::kInt, Key::kNone, 1977, 1997, nullptr, 0},
        {"ptitle", Kind::kString, Key::kNone, 0, 0, nullptr, 0}}},
      {"courses",
       'c',
       {{"cnr", Kind::kInt, Key::kCourse, 1, c, nullptr, 0},
        {"clevel", Kind::kEnum, Key::kNone, 0, 0, kLevel, 4},
        {"ctitle", Kind::kString, Key::kNone, 0, 0, nullptr, 0}}},
      {"timetable",
       't',
       {{"tenr", Kind::kInt, Key::kEmployee, 1, e, nullptr, 0},
        {"tcnr", Kind::kInt, Key::kCourse, 1, c, nullptr, 0},
        {"tday", Kind::kEnum, Key::kNone, 0, 0, kDay, 5},
        {"ttime", Kind::kInt, Key::kNone, 9000000, 17999999, nullptr, 0},
        {"troom", Kind::kString, Key::kNone, 0, 0, nullptr, 0}}},
  };
}

// The weighted classes of the JoinOrderDataWrangling query generator:
// attribute-domain classes and their probabilities. A restriction keeps
// about 1/sqrt(domain) of its relation.
double RestrictionSelectivity(Rng* rng) {
  static const std::vector<std::pair<int, int>> kDomainClass = {
      {2, 10}, {10, 100}, {100, 500}, {500, 1000}};
  static const std::vector<double> kDomainWeight = {5, 50, 30, 15};
  const auto& cls = kDomainClass[rng->Weighted(kDomainWeight)];
  const double domain = static_cast<double>(rng->Between(cls.first, cls.second - 1));
  return 1.0 / std::sqrt(domain);
}

std::string Restriction(Rng* rng, const std::string& var, const Rel& rel) {
  std::vector<const Attr*> usable;
  for (const Attr& a : rel.attrs) {
    if (a.kind != Kind::kString) usable.push_back(&a);
  }
  const Attr& a = *usable[rng->Below(usable.size())];
  const std::string lhs = var + "." + a.name;
  if (a.kind == Kind::kEnum) {
    const char* op = rng->Below(3) == 0 ? " <> " : " = ";
    return "(" + lhs + op + a.labels[rng->Below(static_cast<uint64_t>(a.n_labels))] + ")";
  }
  const double s = RestrictionSelectivity(rng);
  const int64_t span = a.hi - a.lo;
  const int64_t width = static_cast<int64_t>(std::llround(s * static_cast<double>(span)));
  if (rng->Below(2) == 0) return "(" + lhs + " <= " + Int(a.lo + width) + ")";
  return "(" + lhs + " >= " + Int(a.hi - width) + ")";
}

/// A restriction, sometimes a disjunction of two.
std::string RestrictionOrDisjunction(Rng* rng, const std::string& var,
                                     const Rel& rel) {
  std::string r = Restriction(rng, var, rel);
  if (rng->Below(5) == 0) r = "(" + r + " OR " + Restriction(rng, var, rel) + ")";
  return r;
}

/// Attribute pairs (a of ra, b of rb) a join term may compare.
/// Self-joins on non-key attributes (pyear, troom, ttime, titles) are
/// offered only where `nonkey` allows it (the inner variable is quantified
/// and the statement feeds no division), and never on enums: a four- or
/// five-valued domain fans out by a quarter of the relation per join.
std::vector<std::pair<const Attr*, const Attr*>> JoinCandidates(const Rel& ra, const Rel& rb,
                                                                bool nonkey) {
  std::vector<std::pair<const Attr*, const Attr*>> out;
  for (const Attr& a : ra.attrs) {
    for (const Attr& b : rb.attrs) {
      if (a.key != Key::kNone && a.key == b.key) out.push_back({&a, &b});
      if (nonkey && &ra == &rb && &a == &b && a.key == Key::kNone && a.kind != Kind::kEnum) {
        out.push_back({&a, &b});
      }
    }
  }
  if (out.empty()) {  // e.g. employees-courses: compare the integer keys
    for (const Attr& a : ra.attrs) {
      for (const Attr& b : rb.attrs) {
        if (a.key != Key::kNone && b.key != Key::kNone) out.push_back({&a, &b});
      }
    }
  }
  return out;
}

/// The `dim`-th coordinate of a low-discrepancy (Weyl) sequence at `i`:
/// every prefix of the pool holds each query class in close to its
/// weighted proportion, so the hot head of the skewed draws has the same
/// class mix under every seed.
double Stratum(size_t i, int dim) {
  static const double kAlpha[] = {0.6180339887498949, 0.4142135623730951,
                                  0.7320508075688772, 0.2360679774997897};
  const double x = static_cast<double>(i + 1) * kAlpha[dim];
  return x - static_cast<double>(static_cast<uint64_t>(x));
}

/// Pool entry `index`: its class (variable count, graph shape, free
/// variables, whether it has an ALL) comes from the stratified sequence,
/// everything else from the seeded generator.
std::string GenerateSelection(Rng* rng, const std::vector<Rel>& rels, size_t index) {
  const size_t m = 2 + WeightedAt({25, 30, 22, 13, 10}, Stratum(index, 0));  // 2..6 vars
  std::vector<const Rel*> rel_of(m);
  std::vector<std::string> var(m);
  for (size_t i = 0; i < m; ++i) {
    rel_of[i] = &rels[rng->Below(rels.size())];
    var[i] = std::string(1, rel_of[i]->letter) + Int(static_cast<int64_t>(i));
  }
  // Query graph over variable positions 0..m-1 (position 0 is the star's
  // centre; free variables are the first positions, so they are joined).
  // 0 chain, 1 star, 2 cycle (with two variables all three are one edge).
  const size_t graph = m >= 3 ? WeightedAt({1, 1, 1}, Stratum(index, 1)) : 0;
  std::vector<std::pair<size_t, size_t>> edges;
  for (size_t i = 1; i < m; ++i) edges.push_back({graph == 1 ? 0 : i - 1, i});
  if (graph == 2) edges.push_back({m - 1, 0});

  const size_t free = std::min(m, 1 + WeightedAt({45, 40, 15}, Stratum(index, 2)));
  std::vector<int> quant(m, 0);  // 0 free, 1 SOME, 2 ALL
  for (size_t i = free; i < m; ++i) quant[i] = 1;
  // At most one ALL, on a leaf of a chain or star with at most three
  // variables, over a few rows (see below). The engine materializes the
  // division input: the ALL range times every combination of the
  // variables before it. Chained, unrestricted or deeply nested ALLs run
  // for seconds and take gigabytes even at n = 100, and a single one of
  // them would set the run's peak RSS.
  const bool has_all = m <= 3 && free < m && graph != 2 && Stratum(index, 3) < 0.4;
  if (has_all) quant[m - 1] = 2;

  // Join terms, grouped with the highest-positioned (innermost) variable.
  std::vector<std::vector<std::string>> terms(m);
  for (const auto& [a, b] : edges) {
    const auto cands =
        JoinCandidates(*rel_of[a], *rel_of[b], quant[std::max(a, b)] != 0 && !has_all);
    const auto& [x, y] = cands[rng->Below(cands.size())];
    const size_t inner = std::max(a, b);
    const bool negate = quant[inner] == 2;
    terms[inner].push_back("(" + var[a] + "." + x->name + (negate ? " <> " : " = ") +
                           var[b] + "." + y->name + ")");
  }
  std::string projection;
  for (size_t i = 0; i < free; ++i) {
    const Rel& r = *rel_of[i];
    const Attr& a = r.attrs[rng->Below(r.attrs.size())];
    projection += (i ? ", " : "") + var[i] + "." + a.name;
  }
  std::string text = "[<" + projection + "> OF ";
  for (size_t i = 0; i < free; ++i) {
    text += (i ? ", EACH " : "EACH ") + var[i] + " IN " + rel_of[i]->name;
  }
  text += ": ";

  std::vector<std::string> outer;  // conjuncts over free variables only
  for (size_t i = 0; i < free; ++i) {
    for (const std::string& t : terms[i]) outer.push_back(t);
    if (rng->Below(2) == 0) {
      outer.push_back(RestrictionOrDisjunction(rng, var[i], *rel_of[i]));
    }
  }
  std::string prefix;
  std::vector<std::string> matrix;
  for (size_t i = free; i < m; ++i) {
    std::string range = rel_of[i]->name;
    if (quant[i] == 2) {
      const Attr& key = rel_of[i]->attrs[0];  // every relation leads with its integer key
      range = std::string("[EACH ") + var[i] + " IN " + rel_of[i]->name + ": (" + var[i] + "." +
              key.name + " <= " + Int(key.lo + std::max<int64_t>(1, (key.hi - key.lo) / 30)) + ")]";
    } else if (rng->Below(10) < 3) {
      range = std::string("[EACH ") + var[i] + " IN " + rel_of[i]->name + ": " +
              Restriction(rng, var[i], *rel_of[i]) + "]";
    }
    prefix += (quant[i] == 1 ? "SOME " : "ALL ") + var[i] + " IN " + range + " ";
    std::string body;
    for (size_t j = 0; j < terms[i].size(); ++j) {
      body += (j ? " AND " : "") + terms[i][j];
    }
    if (quant[i] == 2) {
      // ALL x: x is unrelated, or it satisfies a restriction.
      matrix.push_back("(" + body + " OR " + Restriction(rng, var[i], *rel_of[i]) + ")");
    } else {
      matrix.push_back(body);
      if (rng->Below(3) == 0) matrix.push_back(Restriction(rng, var[i], *rel_of[i]));
    }
  }
  std::string wff;
  for (size_t j = 0; j < outer.size(); ++j) wff += (j ? " AND " : "") + outer[j];
  if (!prefix.empty()) {
    std::string inner;
    for (size_t j = 0; j < matrix.size(); ++j) inner += (j ? " AND " : "") + matrix[j];
    if (!wff.empty()) wff += " AND ";
    wff += prefix + "(" + inner + ")";
  }
  return text + wff + "]";
}

}  // namespace

AdhocStream AdhocStatements(uint64_t seed, size_t n) {
  // Larger than the shared plan cache (512 entries), so its hit rate is
  // a property of the workload rather than pinned at 100%.
  constexpr size_t kPool = 1024;
  constexpr size_t kDraws = 400000;
  constexpr double kZipf = 0.45;  // mild skew: the top 50 texts take 18% of draws
  Rng rng(seed ^ 0xad0cu);
  const std::vector<Rel> rels = AdhocSchema(n);
  AdhocStream out;
  std::set<std::string> seen;
  while (out.pool.size() < kPool) {
    std::string text = GenerateSelection(&rng, rels, out.pool.size());
    if (seen.insert(text).second) out.pool.push_back(std::move(text));
  }
  std::vector<double> cdf(kPool);
  double total = 0;
  for (size_t r = 0; r < kPool; ++r) {
    total += std::pow(static_cast<double>(r + 1), -kZipf);
    cdf[r] = total;
  }
  out.draws.reserve(kDraws);
  for (size_t i = 0; i < kDraws; ++i) {
    const double u = rng.Unit() * total;
    const size_t rank =
        static_cast<size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    out.draws.push_back(static_cast<uint32_t>(std::min(rank, kPool - 1)));
  }
  return out;
}

// --------------------------------------------------------------- serving

ServingStream ServingStatements(uint64_t seed, const Database& db,
                                size_t n_readers, size_t reads_per_reader,
                                size_t writes) {
  ServingStream out;
  out.queries = {
      // Point key lookup joined to timetable.
      "[<e.ename, t.tday, t.troom> OF EACH e IN employees, EACH t IN "
      "timetable: (e.enr = $k) AND (t.tenr = e.enr)]",
      // Small key range with SOME.
      "[<e.ename> OF EACH e IN employees: (e.enr >= $lo) AND (e.enr <= $hi) "
      "AND SOME t IN timetable (t.tenr = e.enr)]",
      // Example 2.1 parameterized on the year.
      "[<e.ename> OF EACH e IN employees: (e.estatus = professor) AND (ALL p "
      "IN papers ((p.pyear <> $year) OR (e.enr <> p.penr)) OR SOME c IN "
      "courses ((c.clevel <= sophomore) AND SOME t IN timetable ((c.cnr = "
      "t.tcnr) AND (e.enr = t.tenr))))]",
  };
  const pascalr::Relation* employees = db.FindRelation("employees");
  const int64_t n = static_cast<int64_t>(employees->cardinality());
  Rng rng(seed ^ 0x5e7fu);
  out.readers.resize(n_readers);
  for (auto& reads : out.readers) {
    for (size_t i = 0; i < reads_per_reader; ++i) {
      ServingRead r;
      r.query = i % out.queries.size();
      std::string text = out.queries[r.query];
      auto bind = [&](const std::string& name, int64_t v) {
        r.params[name] = pascalr::Value::MakeInt(v);
        const std::string marker = "$" + name;
        text.replace(text.find(marker), marker.size(), Int(v));
      };
      if (r.query == 0) bind("k", rng.Between(1, n));
      if (r.query == 1) {
        const int64_t lo = rng.Between(1, n - 9);
        bind("lo", lo);
        bind("hi", lo + 9);
      }
      if (r.query == 2) bind("year", rng.Between(1977, 1997));
      r.literal_text = std::move(text);
      reads.push_back(std::move(r));
    }
  }

  // Writer: churn on timetable (3/4) and papers (1/4). Each relation
  // alternates inserting a fresh row and deleting its oldest live row, so
  // sizes stay level while deletes of base rows feed threshold compaction.
  struct Churn {
    std::vector<std::string> fifo;  ///< delete statements, oldest first
    size_t head = 0;
    uint64_t ops = 0;
  };
  Churn tt, pp;
  std::set<std::tuple<int64_t, int64_t, int>> tt_keys;
  auto tt_delete = [](int64_t enr, int64_t cnr, int day) {
    return "timetable :- [<" + Int(enr) + ", " + Int(cnr) + ", " + kDay[day] + ">];";
  };
  db.FindRelation("timetable")->Scan([&](const pascalr::Ref&, const pascalr::Tuple& t) {
    const int64_t enr = t.at(0).AsInt(), cnr = t.at(1).AsInt();
    const int day = t.at(2).AsEnumOrdinal();
    tt_keys.insert({enr, cnr, day});
    tt.fifo.push_back(tt_delete(enr, cnr, day));
    return true;
  });
  db.FindRelation("papers")->Scan([&](const pascalr::Ref&, const pascalr::Tuple& t) {
    pp.fifo.push_back("papers :- [<'" + t.at(2).AsString() + "', " + Int(t.at(0).AsInt()) + ">];");
    return true;
  });
  const int64_t courses = static_cast<int64_t>(db.FindRelation("courses")->cardinality());
  for (size_t i = 0; i < writes; ++i) {
    const bool timetable = rng.Below(4) != 0;
    Churn& c = timetable ? tt : pp;
    if (c.ops++ % 2 == 1) {
      out.writes.push_back(c.fifo[c.head++]);
      continue;
    }
    if (timetable) {
      int64_t enr, cnr;
      int day;
      do {
        enr = rng.Between(1, n);
        cnr = rng.Between(1, courses);
        day = static_cast<int>(rng.Below(5));
      } while (!tt_keys.insert({enr, cnr, day}).second);
      out.writes.push_back("timetable :+ [<" + Int(enr) + ", " + Int(cnr) + ", " +
                           kDay[day] + ", " + Int(rng.Between(9000000, 17999999)) +
                           ", 'W" + Int(rng.Between(0, 19)) + "'>];");
      c.fifo.push_back(tt_delete(enr, cnr, day));
    } else {
      const std::string title = "W" + Int(static_cast<int64_t>(i));
      const int64_t enr = rng.Between(1, n);
      out.writes.push_back("papers :+ [<" + Int(enr) + ", " + Int(rng.Between(1977, 1997)) +
                           ", '" + title + "'>];");
      c.fifo.push_back("papers :- [<'" + title + "', " + Int(enr) + ">];");
    }
  }
  return out;
}

}  // namespace e2e
