// The kAuto plan search shares compile work between its candidates
// (one normalization per search, one compile per level, the division and
// ordered-index variants patched onto one plan). Sharing must be
// invisible: every costed candidate, and the chosen plan, must equal what
// a standalone PlanQuery with the candidate's concrete options produces —
// estimate, EXPLAIN text, physical knobs, join trees and verdicts — and
// every failed candidate must fail standalone with the same status.
//
// Corpus: generated chain / star selections, random SOME/ALL formulas,
// cycle queries, random small databases with empty relations (Lemma 1
// folding) and empty extended ranges (strategy 3 abandoned), with and
// without permanent catalog indexes, under both ranking modes.

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "base/counters.h"
#include "base/str_util.h"
#include "calculus/printer.h"
#include "cost/cost_model.h"
#include "cost/plan_search.h"
#include "opt/explain.h"
#include "opt/planner.h"
#include "tests/query_gen.h"
#include "tests/test_util.h"

namespace pascalr {
namespace {

using testing_util::MakeUniversityDb;
using testing_util::MustBind;
using testing_util::QueryGenerator;

std::string Label(const PlannerOptions& o) {
  std::string label = StrFormat("O%d", static_cast<int>(o.level));
  label += o.division == DivisionAlgorithm::kHash ? "/hash-div" : "/sort-div";
  if (o.use_permanent_indexes) label += "/perm";
  if (o.prefer_ordered_indexes) label += "/btree";
  return label;
}

/// The concrete options a candidate-table label stands for.
PlannerOptions OptionsFor(const std::string& label, PlannerOptions base) {
  base.level = static_cast<OptLevel>(label[1] - '0');
  base.division = label.find("/sort-div") != std::string::npos
                      ? DivisionAlgorithm::kSort
                      : DivisionAlgorithm::kHash;
  base.use_permanent_indexes = label.find("/perm") != std::string::npos;
  base.prefer_ordered_indexes = label.find("/btree") != std::string::npos;
  return base;
}

/// Everything a plan is: EXPLAIN plus the fields EXPLAIN may not print.
std::string Fingerprint(const PlannedQuery& planned) {
  PlannedQuery copy = ClonePlannedQuery(planned);
  copy.cost_based = false;  // the search's table is checked separately
  copy.cost_candidates.clear();
  std::ostringstream out;
  out << ExplainPlan(copy) << "replans " << planned.replans << "\n"
      << "division " << static_cast<int>(planned.plan.division) << "\n";
  for (const IndexBuildSpec& spec : planned.plan.indexes) {
    out << "index " << spec.id << " ordered " << spec.ordered << " perm "
        << spec.try_permanent << "\n";
  }
  for (const JoinTree& tree : planned.plan.join_trees) {
    out << "tree " << static_cast<int>(tree.source) << ":";
    for (const JoinTreeNode& n : tree.nodes) {
      out << " [" << n.leaf << " " << n.input << " " << n.left << " "
          << n.right << " " << StrFormat("%.17g", n.est_rows);
      for (const std::string& c : n.join_columns) out << " " << c;
      out << "]";
    }
    out << "\n";
  }
  for (const EmptinessVerdict& v : planned.verdicts) {
    out << "verdict " << v.range.ToString("v") << " " << v.was_empty << "\n";
  }
  return out.str();
}

struct Coverage {
  size_t searches = 0;
  size_t candidates = 0;
  size_t failed_lines = 0;
  size_t folded = 0;         // searches whose stage 1 folded a range
  size_t abandoned = 0;      // candidates that abandoned strategy 3
  size_t perm_candidates = 0;
  size_t btree_candidates = 0;
  size_t sort_candidates = 0;
};

/// Runs one kAuto search and checks it candidate by candidate against
/// standalone plans.
void CheckSearch(const Database& db, const BoundQuery& query,
                 const PlannerOptions& base, const std::string& context,
                 Coverage* coverage) {
  SCOPED_TRACE(context);
  std::vector<SearchCandidate> costed;
  Result<PlannedQuery> searched =
      SearchBestPlan(db, CloneBoundQuery(query), base, &costed);
  ++coverage->searches;

  // Costed candidates: estimate, table line and the whole plan.
  std::string table = searched.ok() ? searched->cost_candidates : "";
  for (const SearchCandidate& c : costed) {
    ++coverage->candidates;
    const std::string label = Label(c.options);
    SCOPED_TRACE(label);
    if (c.options.use_permanent_indexes) ++coverage->perm_candidates;
    if (c.options.prefer_ordered_indexes) ++coverage->btree_candidates;
    if (c.options.division == DivisionAlgorithm::kSort) {
      ++coverage->sort_candidates;
    }
    if (c.planned.adaptation_notes.find("abandoned") != std::string::npos) {
      ++coverage->abandoned;
    }
    Result<PlannedQuery> alone = PlanQuery(db, CloneBoundQuery(query),
                                           c.options);
    ASSERT_TRUE(alone.ok()) << alone.status().ToString();
    alone->estimate = EstimatePlanCost(alone->plan, db);
    const CostEstimate& got = c.planned.estimate;
    EXPECT_EQ(got.weighted_cost, alone->estimate.weighted_cost);
    EXPECT_EQ(got.pipelined_weighted_cost,
              alone->estimate.pipelined_weighted_cost);
    EXPECT_EQ(got.predicted.TotalWork(),
              alone->estimate.predicted.TotalWork());
    EXPECT_EQ(Fingerprint(c.planned), Fingerprint(*alone));
    const std::string line = StrFormat(
        "  %-22s estimated work %llu (weighted %.0f, pipelined %.0f)\n",
        label.c_str(),
        static_cast<unsigned long long>(
            alone->estimate.predicted.TotalWork()),
        alone->estimate.weighted_cost,
        alone->estimate.pipelined_weighted_cost);
    EXPECT_NE(table.find(line), std::string::npos) << table;
  }

  if (!searched.ok()) {
    // Every candidate failed: each must fail standalone the same way.
    EXPECT_TRUE(costed.empty());
    Result<PlannedQuery> alone =
        PlanQuery(db, CloneBoundQuery(query), OptionsFor("O4/hash-div", base));
    ASSERT_FALSE(alone.ok());
    EXPECT_EQ(alone.status().ToString(), searched.status().ToString());
    return;
  }

  // Failed candidates: one line per label, each failing standalone with
  // the same status.
  std::istringstream lines(table);
  std::string line;
  std::set<std::string> failed_labels;
  while (std::getline(lines, line)) {
    const size_t at = line.find(": failed: ");
    if (at == std::string::npos) continue;
    ++coverage->failed_lines;
    const std::string label = line.substr(2, at - 2);
    EXPECT_TRUE(failed_labels.insert(label).second) << "duplicate " << label;
    Result<PlannedQuery> alone =
        PlanQuery(db, CloneBoundQuery(query), OptionsFor(label, base));
    ASSERT_FALSE(alone.ok()) << label;
    EXPECT_EQ(line.substr(at + 10), alone.status().ToString());
  }

  // The chosen plan is the standalone plan of the chosen label.
  const size_t chosen_at = table.find("  chosen: ");
  ASSERT_NE(chosen_at, std::string::npos);
  std::string chosen = table.substr(chosen_at + 10);
  chosen = chosen.substr(0, chosen.find('\n'));
  Result<PlannedQuery> alone =
      PlanQuery(db, CloneBoundQuery(query), OptionsFor(chosen, base));
  ASSERT_TRUE(alone.ok()) << alone.status().ToString();
  alone->estimate = EstimatePlanCost(alone->plan, db);
  EXPECT_TRUE(searched->cost_based);
  EXPECT_EQ(Fingerprint(*searched), Fingerprint(*alone));
  EXPECT_EQ(searched->estimate.weighted_cost, alone->estimate.weighted_cost);
  EXPECT_EQ(searched->estimate.pipelined_weighted_cost,
            alone->estimate.pipelined_weighted_cost);
  if (searched->replans > 0) ++coverage->folded;
}

/// A cycle over free e and 2-4 SOME/ALL variables: equality joins on the
/// schema's small-integer components close back onto e.
std::string CycleSource(std::mt19937_64* rng) {
  static const char* kRelations[] = {"employees", "papers", "courses",
                                     "timetable"};
  auto int_component = [&](const std::string& relation) {
    std::vector<std::string> pool;
    for (const testing_util::CompInfo& c : testing_util::AllComponents()) {
      if (relation == c.relation && c.tag == testing_util::CompTag::kSmallInt) {
        pool.push_back(c.component);
      }
    }
    return pool[(*rng)() % pool.size()];
  };
  const size_t k = 2 + (*rng)() % 3;
  std::vector<std::pair<std::string, std::string>> vars = {{"e", "employees"}};
  std::string prefix;
  for (size_t i = 0; i < k; ++i) {
    std::string name = "c" + std::to_string(i);
    std::string relation = kRelations[(*rng)() % 4];
    prefix += ((*rng)() % 4 == 0 ? "ALL " : "SOME ") + name + " IN " +
              relation + " ";
    vars.push_back({name, relation});
  }
  std::string body;
  for (size_t i = 0; i < vars.size(); ++i) {
    const auto& a = vars[i];
    const auto& b = vars[(i + 1) % vars.size()];
    if (!body.empty()) body += " AND ";
    body += "(" + a.first + "." + int_component(a.second) + " = " +
            b.first + "." + int_component(b.second) + ")";
  }
  return "[<e.ename> OF EACH e IN employees: " + prefix + "(" + body + ")]";
}

std::vector<PlannerOptions> Bases(uint64_t seed) {
  PlannerOptions pipelined;
  pipelined.level = OptLevel::kAuto;
  pipelined.join_dp_bushy = seed % 3 == 0;
  PlannerOptions materializing = pipelined;
  materializing.pipeline = false;
  return {pipelined, materializing};
}

TEST(PlanSearchEquivalenceTest, CandidatesEqualStandalonePlans) {
  Coverage coverage;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    auto db = MakeUniversityDb(false);
    QueryGenerator gen(seed);
    gen.RandomDatabase(db.get(), /*empty_prob=*/0.25);
    if (seed % 3 == 0) {
      ASSERT_TRUE(db->EnsureIndex("timetable", "tenr", false).ok());
      ASSERT_TRUE(db->EnsureIndex("employees", "enr", seed % 2 == 0).ok());
      ASSERT_TRUE(db->EnsureIndex("courses", "cnr", false).ok());
    }
    // Some databases plan without statistics: the DP stays off there.
    if (seed % 4 != 0) {
      ASSERT_TRUE(db->AnalyzeAll().ok());
    }

    std::vector<std::string> sources;
    for (int k = 0; k < 3; ++k) {
      sources.push_back(FormatSelection(gen.RandomSelection(4)));
    }
    sources.push_back(FormatSelection(gen.RandomChainSelection(3, 0.5)));
    sources.push_back(FormatSelection(gen.RandomChainSelection(5, 0.6)));
    sources.push_back(FormatSelection(gen.RandomSelectionTwoFree(3)));
    sources.push_back(CycleSource(&gen.rng()));

    for (const std::string& source : sources) {
      BoundQuery query = MustBind(*db, source);
      for (const PlannerOptions& base : Bases(seed)) {
        CheckSearch(*db, query, base,
                    "seed " + std::to_string(seed) + ": " + source,
                    &coverage);
        if (HasFatalFailure()) return;
      }
    }
  }
  // The corpus must reach every shared path the search takes.
  EXPECT_GT(coverage.candidates, 1000u);
  EXPECT_GT(coverage.failed_lines, 0u) << "no O4 compile failure covered";
  EXPECT_GT(coverage.folded, 0u) << "no Lemma 1 folding covered";
  EXPECT_GT(coverage.abandoned, 0u) << "no empty extended range covered";
  EXPECT_GT(coverage.perm_candidates, 0u);
  EXPECT_GT(coverage.btree_candidates, 0u);
  EXPECT_GT(coverage.sort_candidates, 0u);
}

TEST(PlanSearchEquivalenceTest, FigureOneDatabaseExamples) {
  auto db = MakeUniversityDb();
  ASSERT_TRUE(db->AnalyzeAll().ok());
  ASSERT_TRUE(db->EnsureIndex("timetable", "tenr", false).ok());
  Coverage coverage;
  const std::string kSources[] = {
      // Example 2.1: SOME and ALL, a division at the weaker levels.
      Example21QuerySource(),
      // A 3-input conjunction: the join-order DP runs.
      "[<e.ename> OF EACH e IN employees: SOME t IN timetable SOME c IN "
      "courses ((e.enr = t.tenr) AND (t.tcnr = c.cnr) AND "
      "(c.clevel <= junior))]",
      // An extended range that is empty: strategies 3/4 are abandoned.
      "[<e.ename> OF EACH e IN employees: SOME p IN papers "
      "((p.pyear = 1900) AND (p.penr = e.enr))]",
  };
  for (const std::string& source : kSources) {
    BoundQuery query = MustBind(*db, source);
    for (const PlannerOptions& base : Bases(1)) {
      CheckSearch(*db, query, base, source, &coverage);
    }
  }
  EXPECT_GT(coverage.abandoned, 0u);
}

TEST(PlanSearchEquivalenceTest, SearchNormalizesOnceAndWalksOncePerGroup) {
  auto db = MakeUniversityDb();
  ASSERT_TRUE(db->AnalyzeAll().ok());
  ASSERT_TRUE(db->EnsureIndex("timetable", "tenr", false).ok());
  const std::string sources[] = {
      "[<e.ename> OF EACH e IN employees: SOME t IN timetable SOME c IN "
      "courses ((e.enr = t.tenr) AND (t.tcnr = c.cnr) AND "
      "(c.clevel <= junior))]",
      Example21QuerySource(),
  };
  for (const std::string& source : sources) {
    SCOPED_TRACE(source);
    PlannerOptions base;
    base.level = OptLevel::kAuto;
    std::vector<SearchCandidate> costed;
    const CompileCounters before = GlobalCompileCounters();
    Result<PlannedQuery> planned =
        SearchBestPlan(*db, MustBind(*db, source), base, &costed);
    const CompileCounters after = GlobalCompileCounters();
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();
    ASSERT_EQ(planned->replans, 0u);  // no range is empty

    EXPECT_EQ(after.standard_forms - before.standard_forms, 1u);
    // One plan per costed candidate, as standalone planning would count.
    EXPECT_EQ(after.plans - before.plans, costed.size());
    std::set<std::tuple<int, bool, bool>> groups;
    for (const SearchCandidate& c : costed) {
      groups.insert({static_cast<int>(c.options.level),
                     c.options.use_permanent_indexes,
                     c.options.prefer_ordered_indexes});
    }
    EXPECT_LT(groups.size(), costed.size());  // some group has variants
    EXPECT_LE(after.collection_walks - before.collection_walks, groups.size());
  }
}

}  // namespace
}  // namespace pascalr
