// Plan-cache validity (opt/plan_stamp.h). A small write keeps the cached
// plan: the next execute re-probes the plan's emptiness verdicts under
// its snapshot, counts a revalidation and does zero compile work. What
// forces a replan: a flipped verdict (Lemma 1 / rule 2), a referenced
// relation's cardinality doubling or halving, ANALYZE (stats epoch),
// option changes, relation re-creation, and parameter values that flip a
// parameter-dependent range. Either way a stale cache never returns wrong
// tuples — every row check compares against a freshly planned query.

#include <gtest/gtest.h>

#include "base/counters.h"
#include "concurrency/session_manager.h"
#include "opt/plan_stamp.h"
#include "pascalr/prepared.h"
#include "pascalr/session.h"
#include "tests/test_util.h"

namespace pascalr {
namespace {

using testing_util::FirstStrings;
using testing_util::MakeUniversityDb;
using testing_util::TupleStrings;

uint64_t CompileWorkSince(const CompileCounters& before) {
  const CompileCounters& now = GlobalCompileCounters();
  return (now.parses - before.parses) + (now.binds - before.binds) +
         (now.standard_forms - before.standard_forms) +
         (now.plans - before.plans) +
         (now.plan_searches - before.plan_searches);
}

/// The one-shot reference: bind and plan from scratch, no cache involved.
std::multiset<std::string> OneShot(Session* session, const std::string& src) {
  auto bound = session->Bind(src);
  EXPECT_TRUE(bound.ok()) << bound.status().ToString();
  auto run = RunQuery(*session->db(), std::move(bound).value(),
                      session->options());
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return TupleStrings(run->tuples);
}

TEST(PlanCacheTest, MutationBumpsModCountAndRevalidates) {
  auto db = MakeUniversityDb();
  Session session(db.get());
  auto prepared = session.Prepare(
      "[<e.ename> OF EACH e IN employees: e.enr >= $lo]");
  ASSERT_TRUE(prepared.ok());

  ASSERT_TRUE(prepared->Execute({{"lo", Value::MakeInt(1)}}).ok());
  EXPECT_EQ(prepared->stats().plan_compiles, 1u);

  // A small write to a referenced relation keeps the cached plan: its
  // verdicts are re-probed, none flips, no compile work runs...
  ASSERT_TRUE(session
                  .ExecuteScript("employees :+ [<42, 'Zara', professor>];")
                  .ok());
  CompileCounters before = GlobalCompileCounters();
  auto after = prepared->Execute({{"lo", Value::MakeInt(1)}});
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->plan_cache_hit);
  EXPECT_EQ(CompileWorkSince(before), 0u);
  EXPECT_EQ(prepared->stats().plan_compiles, 1u);
  EXPECT_EQ(prepared->stats().revalidations, 1u);
  // ...and the new tuple is visible.
  bool found = false;
  for (const Tuple& t : after->tuples) {
    if (t.at(0).AsString() == "Zara") found = true;
  }
  EXPECT_TRUE(found);

  // Mutating an *unreferenced* relation does not even revalidate.
  ASSERT_TRUE(session
                  .ExecuteScript("courses :+ [<77, senior, 'Opt'>];")
                  .ok());
  auto unrelated = prepared->Execute({{"lo", Value::MakeInt(1)}});
  ASSERT_TRUE(unrelated.ok());
  EXPECT_TRUE(unrelated->plan_cache_hit);
  EXPECT_EQ(prepared->stats().revalidations, 1u);
}

TEST(PlanCacheTest, HitAndMissCountersFeedTheSessionMetrics) {
  auto db = MakeUniversityDb();
  Session session(db.get());
  auto prepared = session.Prepare(
      "[<e.ename> OF EACH e IN employees: e.enr >= $lo]");
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(session.metrics().FindCounter("plan_cache.misses"), nullptr);

  // First execute compiles: one miss, no hit yet.
  ASSERT_TRUE(prepared->Execute({{"lo", Value::MakeInt(1)}}).ok());
  ASSERT_NE(session.metrics().FindCounter("plan_cache.misses"), nullptr);
  EXPECT_EQ(session.metrics().FindCounter("plan_cache.misses")->value(), 1u);
  EXPECT_EQ(session.metrics().FindCounter("plan_cache.hits"), nullptr);

  // Cached re-executes count hits without moving the miss counter.
  ASSERT_TRUE(prepared->Execute({{"lo", Value::MakeInt(2)}}).ok());
  ASSERT_TRUE(prepared->Execute({{"lo", Value::MakeInt(3)}}).ok());
  ASSERT_NE(session.metrics().FindCounter("plan_cache.hits"), nullptr);
  EXPECT_EQ(session.metrics().FindCounter("plan_cache.hits")->value(), 2u);
  EXPECT_EQ(session.metrics().FindCounter("plan_cache.misses")->value(), 1u);
  EXPECT_EQ(session.metrics().FindCounter("plan_cache.revalidations"),
            nullptr);

  // A write turns the next execute into a revalidated hit, not a miss.
  ASSERT_TRUE(session
                  .ExecuteScript("employees :+ [<43, 'Yuri', student>];")
                  .ok());
  ASSERT_TRUE(prepared->Execute({{"lo", Value::MakeInt(1)}}).ok());
  EXPECT_EQ(session.metrics().FindCounter("plan_cache.misses")->value(), 1u);
  EXPECT_EQ(session.metrics().FindCounter("plan_cache.hits")->value(), 3u);
  ASSERT_NE(session.metrics().FindCounter("plan_cache.revalidations"),
            nullptr);
  EXPECT_EQ(
      session.metrics().FindCounter("plan_cache.revalidations")->value(), 1u);
}

TEST(PlanCacheTest, AnalyzeAfterSkewShiftDropsTheCachedAutoPlan) {
  auto db = MakeUniversityDb();
  ASSERT_TRUE(db->AnalyzeAll().ok());
  Session session(db.get());
  session.options().level = OptLevel::kAuto;

  auto prepared = session.Prepare(
      "[<e.ename> OF EACH e IN employees:"
      " (e.enr <= $top) AND SOME t IN timetable (e.enr = t.tenr)]");
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->Execute({{"top", Value::MakeInt(9)}}).ok());
  ASSERT_TRUE(prepared->Execute({{"top", Value::MakeInt(9)}})->plan_cache_hit);

  // Shift the data, then ANALYZE: the epoch moves even though the
  // relations' mod_counts were already going to force a replan — and the
  // re-search runs against the *new* statistics.
  CompileCounters before = GlobalCompileCounters();
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(session
                    .ExecuteScript("timetable :+ [<1, " +
                                   std::to_string(30 + i) +
                                   ", monday, 9001000, 'R9'>];")
                    .ok());
  }
  ASSERT_TRUE(db->AnalyzeAll().ok());
  auto re = prepared->Execute({{"top", Value::MakeInt(9)}});
  ASSERT_TRUE(re.ok());
  EXPECT_FALSE(re->plan_cache_hit);
  EXPECT_GT(GlobalCompileCounters().plan_searches, before.plan_searches);

  // A delete + ANALYZE moves both the mod_count and the stats epoch; the
  // next execute replans against the refreshed statistics.
  ASSERT_TRUE(prepared->Execute({{"top", Value::MakeInt(9)}})->plan_cache_hit);
  ASSERT_TRUE(session.ExecuteScript("timetable :- [<1, 30, monday>];").ok());
  ASSERT_TRUE(db->AnalyzeAll().ok());
  auto re2 = prepared->Execute({{"top", Value::MakeInt(9)}});
  ASSERT_TRUE(re2.ok());
  EXPECT_FALSE(re2->plan_cache_hit);
  // ANALYZE over an unchanged catalog recomputes nothing, keeps the
  // epoch, and the cache stays warm.
  ASSERT_TRUE(db->AnalyzeAll().ok());
  ASSERT_TRUE(prepared->Execute({{"top", Value::MakeInt(9)}})->plan_cache_hit);
}

TEST(PlanCacheTest, NewPermanentIndexInvalidates) {
  auto db = MakeUniversityDb();
  ASSERT_TRUE(db->AnalyzeAll().ok());
  Session session(db.get());
  session.options().use_permanent_indexes = true;
  auto prepared = session.Prepare(
      "[<e.ename> OF EACH e IN employees:"
      " SOME t IN timetable (e.enr = t.tenr)]");
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->Execute().ok());
  ASSERT_TRUE(prepared->Execute()->plan_cache_hit);

  // Declaring a permanent index moves the stats epoch: the cached plan
  // replans and can now borrow it instead of building a transient one.
  ASSERT_TRUE(session.ExecuteScript("INDEX timetable tenr;").ok());
  auto exec = prepared->Execute();
  ASSERT_TRUE(exec.ok());
  EXPECT_FALSE(exec->plan_cache_hit);
}

TEST(PlanCacheTest, OptionChangeInvalidates) {
  auto db = MakeUniversityDb();
  Session session(db.get());
  auto prepared = session.Prepare(
      "[<e.ename> OF EACH e IN employees: e.enr >= $lo]");
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->Execute({{"lo", Value::MakeInt(1)}}).ok());
  session.options().level = OptLevel::kNaive;
  auto exec = prepared->Execute({{"lo", Value::MakeInt(1)}});
  ASSERT_TRUE(exec.ok());
  EXPECT_FALSE(exec->plan_cache_hit);
  EXPECT_EQ(prepared->planned()->plan.level, OptLevel::kNaive);
}

TEST(PlanCacheTest, RelationRecreationForcesRebind) {
  Database db;
  Session session(&db);
  ASSERT_TRUE(session
                  .ExecuteScript(
                      "VAR r : RELATION <a> OF RECORD a : 1..99 END;"
                      "r :+ [<1>]; r :+ [<2>]; r :+ [<3>];")
                  .ok());
  auto prepared =
      session.Prepare("[<x.a> OF EACH x IN r: x.a >= $lo]");
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->Execute({{"lo", Value::MakeInt(1)}}).ok());

  // Drop + re-create r with the same shape but different contents: the
  // prepared query rebinds against the new relation object.
  ASSERT_TRUE(db.DropRelation("r").ok());
  ASSERT_TRUE(session
                  .ExecuteScript(
                      "VAR r : RELATION <a> OF RECORD a : 1..99 END;"
                      "r :+ [<7>];")
                  .ok());
  auto exec = prepared->Execute({{"lo", Value::MakeInt(1)}});
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_FALSE(exec->plan_cache_hit);
  EXPECT_GE(prepared->stats().rebinds, 1u);
  ASSERT_EQ(exec->tuples.size(), 1u);
  EXPECT_EQ(exec->tuples[0].at(0).AsInt(), 7);
}

TEST(PlanCacheTest, ParamEmptinessFlipInExtendedRangeStaysCorrect) {
  auto db = MakeUniversityDb();
  Session session(db.get());
  // ALL over a user-written extended range whose contents depend on $y:
  // when no paper has pyear = $y the range is empty and Lemma-1 folding
  // makes the ALL vacuously true — a plan compiled for a non-empty
  // binding is *wrong* for an empty one, so the cache must replan.
  const std::string src =
      "[<e.ename> OF EACH e IN employees:"
      " ALL p IN [EACH p IN papers: p.pyear = $y] (e.enr <> p.penr)]";
  auto prepared = session.Prepare(src);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  auto reference = [&](int64_t y) {
    std::string lit = src;
    std::string::size_type at = lit.find("$y");
    lit.replace(at, 2, std::to_string(y));
    auto run = session.Query(lit);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    return TupleStrings(run->tuples);
  };

  for (int64_t y : {1977, 1399, 1975, 1399, 1977, 1976}) {
    auto exec = prepared->Execute({{"y", Value::MakeInt(y)}});
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    EXPECT_EQ(TupleStrings(exec->tuples), reference(y)) << "y=" << y;
  }
}

TEST(PlanCacheTest, StaleCacheNeverReturnsWrongTuplesUnderChurn) {
  auto db = MakeUniversityDb();
  Session session(db.get());
  auto prepared = session.Prepare(
      "[<e.ename> OF EACH e IN employees:"
      " (e.enr >= $lo) AND SOME t IN timetable (e.enr = t.tenr)]");
  ASSERT_TRUE(prepared.ok());

  // Interleave mutations, ANALYZE, option flips, and executes; after
  // every step the prepared result must equal a freshly planned Query.
  const char* mutations[] = {
      "employees :+ [<50, 'New1', student>];",
      "timetable :+ [<50, 12, friday, 9001000, 'R7'>];",
      "ANALYZE;",
      "timetable :- [<50, 12, friday>];",
      "employees :+ [<51, 'New2', professor>];",
      "ANALYZE employees;",
      "timetable :+ [<51, 11, friday, 9001000, 'R8'>];",
  };
  int64_t lo = 0;
  for (const char* mutation : mutations) {
    ASSERT_TRUE(session.ExecuteScript(mutation).ok()) << mutation;
    lo = (lo + 3) % 7;
    auto exec = prepared->Execute({{"lo", Value::MakeInt(lo)}});
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    auto fresh = session.Query(
        "[<e.ename> OF EACH e IN employees:"
        " (e.enr >= " +
        std::to_string(lo) +
        ") AND SOME t IN timetable (e.enr = t.tenr)]");
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(TupleStrings(exec->tuples), TupleStrings(fresh->tuples))
        << mutation << " lo=" << lo;
    // And an immediate re-execute hits the (now fresh) cache, still
    // agreeing.
    auto again = prepared->Execute({{"lo", Value::MakeInt(lo)}});
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(again->plan_cache_hit);
    EXPECT_EQ(TupleStrings(again->tuples), TupleStrings(fresh->tuples));
  }
}

TEST(PlanCacheTest, SharedCollectionWalkPerAutoCandidate) {
  auto db = MakeUniversityDb();
  ASSERT_TRUE(db->AnalyzeAll().ok());
  Session session(db.get());
  session.options().level = OptLevel::kAuto;

  // A 3-input conjunction: the join-order DP needs structure estimates,
  // so each kAuto candidate walks the collection phase — the walk must be
  // shared with EstimatePlanCost (one walk per candidate, not two).
  const std::string src =
      "[<e.ename> OF EACH e IN employees:"
      " SOME t IN timetable SOME c IN courses"
      " ((e.enr = t.tenr) AND (t.tcnr = c.cnr) AND (c.clevel <= junior))]";
  CompileCounters before = GlobalCompileCounters();
  auto run = session.Query(src);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const CompileCounters& now = GlobalCompileCounters();
  uint64_t candidates = now.plans - before.plans;
  uint64_t walks = now.collection_walks - before.collection_walks;
  ASSERT_GT(candidates, 0u);
  EXPECT_LE(walks, candidates) << "each candidate should walk the "
                                  "collection phase at most once";

  // Sharing must not change the estimate: costing with a saved walk
  // equals costing from scratch, on a deterministic fixed-level plan.
  PlannerOptions fixed = session.options();
  fixed.level = OptLevel::kOneStep;
  auto bound = session.Bind(src);
  ASSERT_TRUE(bound.ok());
  auto planned = PlanQuery(*db, std::move(bound).value(), fixed);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  CollectionCost saved;
  EstimateStructureSizes(planned->plan, *db, &saved);
  ASSERT_TRUE(saved.valid);
  CostEstimate with_reuse = EstimatePlanCost(planned->plan, *db, &saved);
  CostEstimate from_scratch = EstimatePlanCost(planned->plan, *db);
  EXPECT_EQ(with_reuse.weighted_cost, from_scratch.weighted_cost);
  EXPECT_EQ(with_reuse.predicted.TotalWork(),
            from_scratch.predicted.TotalWork());
}

TEST(PlanCacheTest, InterleavedWritesFromAnotherSessionRevalidate) {
  // Concurrent serving: session B — a different session, write guard and
  // all — mutates a referenced relation between session A's executes. A
  // keeps its plan (the verdicts are re-probed under A's snapshot) and
  // every re-execute sees exactly the rows committed before its snapshot.
  auto db = MakeUniversityDb();
  SessionManager manager(db.get());
  auto a = manager.CreateSession();
  auto b = manager.CreateSession();

  auto prepared = a->Prepare(
      "[<e.ename> OF EACH e IN employees: e.enr >= $lo]");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto first = prepared->Execute({{"lo", Value::MakeInt(1)}});
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(prepared->stats().plan_compiles, 1u);
  size_t baseline_rows = first->tuples.size();

  // B's committed write lands between A's executes: A revalidates the
  // cached plan, compiles nothing, and produces the new row.
  ASSERT_TRUE(
      b->ExecuteScript("employees :+ [<81, 'Ivy', professor>];").ok());
  CompileCounters before = GlobalCompileCounters();
  auto second = prepared->Execute({{"lo", Value::MakeInt(1)}});
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->plan_cache_hit);
  EXPECT_EQ(CompileWorkSince(before), 0u);
  EXPECT_EQ(prepared->stats().revalidations, 1u);
  EXPECT_EQ(second->tuples.size(), baseline_rows + 1);

  // Steady state: no interleaved write, a plain hit.
  auto third = prepared->Execute({{"lo", Value::MakeInt(1)}});
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third->plan_cache_hit);
  EXPECT_EQ(prepared->stats().revalidations, 1u);
  EXPECT_EQ(TupleStrings(third->tuples), TupleStrings(second->tuples));

  // A delete from B revalidates again and shrinks the visible set.
  ASSERT_TRUE(b->ExecuteScript("employees :- [<81>];").ok());
  auto fourth = prepared->Execute({{"lo", Value::MakeInt(1)}});
  ASSERT_TRUE(fourth.ok());
  EXPECT_TRUE(fourth->plan_cache_hit);
  EXPECT_EQ(prepared->stats().revalidations, 2u);
  EXPECT_EQ(prepared->stats().plan_compiles, 1u);
  EXPECT_EQ(fourth->tuples.size(), baseline_rows);
}

// ---- what still replans ------------------------------------------------

/// r(a) and s(b) over 1..99, for the flip and drift cases below.
void MakeRS(Session* session, const std::string& r_rows,
            const std::string& s_rows) {
  ASSERT_TRUE(session
                  ->ExecuteScript(
                      "VAR r : RELATION <a> OF RECORD a : 1..99 END;"
                      "VAR s : RELATION <b> OF RECORD b : 1..99 END;" +
                      r_rows + s_rows)
                  .ok());
}

TEST(PlanCacheTest, LemmaOneFlipReplans) {
  // Emptying a quantified relation flips its Lemma-1 verdict (ALL over an
  // empty range is vacuously true); refilling flips it back.
  Database db;
  Session session(&db);
  MakeRS(&session, "r :+ [<1>]; r :+ [<2>]; r :+ [<3>];",
         "s :+ [<2>]; s :+ [<7>];");
  const std::string src = "[<x.a> OF EACH x IN r: ALL y IN s (x.a <> y.b)]";
  auto prepared = session.Prepare(src);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto first = prepared->Execute();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(TupleStrings(first->tuples), OneShot(&session, src));

  ASSERT_TRUE(session.ExecuteScript("s :- [<2>]; s :- [<7>];").ok());
  auto emptied = prepared->Execute();
  ASSERT_TRUE(emptied.ok()) << emptied.status().ToString();
  EXPECT_FALSE(emptied->plan_cache_hit);
  EXPECT_EQ(prepared->stats().plan_compiles, 2u);
  EXPECT_EQ(emptied->tuples.size(), 3u);
  EXPECT_EQ(TupleStrings(emptied->tuples), OneShot(&session, src));

  ASSERT_TRUE(session.ExecuteScript("s :+ [<2>]; s :+ [<7>];").ok());
  auto refilled = prepared->Execute();
  ASSERT_TRUE(refilled.ok()) << refilled.status().ToString();
  EXPECT_FALSE(refilled->plan_cache_hit);
  EXPECT_EQ(prepared->stats().plan_compiles, 3u);
  EXPECT_EQ(TupleStrings(refilled->tuples), TupleStrings(first->tuples));
  EXPECT_EQ(TupleStrings(refilled->tuples), OneShot(&session, src));
}

TEST(PlanCacheTest, LemmaOneFlipOfAnExtendedRangeReplansWithoutDrift) {
  // The same flip on a user-written extended range, while s keeps most of
  // its rows: only the re-probed verdict can catch it, not the drift rule.
  Database db;
  Session session(&db);
  MakeRS(&session, "r :+ [<1>]; r :+ [<2>]; r :+ [<50>];",
         "s :+ [<1>]; s :+ [<2>]; s :+ [<3>]; s :+ [<4>]; s :+ [<50>];");
  const std::string src =
      "[<x.a> OF EACH x IN r: ALL y IN [EACH y IN s: y.b > 10]"
      " (x.a <> y.b)]";
  auto prepared = session.Prepare(src);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto first = prepared->Execute();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(TupleStrings(first->tuples), OneShot(&session, src));

  // A write that leaves the extended range non-empty revalidates.
  ASSERT_TRUE(session.ExecuteScript("s :- [<1>];").ok());
  auto kept = prepared->Execute();
  ASSERT_TRUE(kept.ok());
  EXPECT_TRUE(kept->plan_cache_hit);
  EXPECT_EQ(prepared->stats().revalidations, 1u);
  EXPECT_EQ(TupleStrings(kept->tuples), OneShot(&session, src));

  ASSERT_TRUE(session.ExecuteScript("s :- [<50>];").ok());  // 5 -> 3 rows
  auto flipped = prepared->Execute();
  ASSERT_TRUE(flipped.ok()) << flipped.status().ToString();
  EXPECT_FALSE(flipped->plan_cache_hit);
  EXPECT_EQ(prepared->stats().plan_compiles, 2u);
  EXPECT_EQ(flipped->tuples.size(), 3u);
  EXPECT_EQ(TupleStrings(flipped->tuples), OneShot(&session, src));
}

TEST(PlanCacheTest, RuleTwoFlipOfParameterFreeExtensionReplans) {
  // Strategy 3 moves the monadic y.b > 10 into y's range; the plan keeps
  // that extension only while [EACH y IN s: y.b > 10] is non-empty.
  Database db;
  Session session(&db);
  session.options().level = OptLevel::kRangeExt;
  MakeRS(&session, "r :+ [<1>]; r :+ [<2>]; r :+ [<50>];",
         "s :+ [<1>]; s :+ [<2>]; s :+ [<3>]; s :+ [<4>]; s :+ [<50>];");
  const std::string src =
      "[<x.a> OF EACH x IN r: ALL y IN s ((y.b <= 10) OR (x.a <> y.b))]";
  auto prepared = session.Prepare(src);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto first = prepared->Execute();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(TupleStrings(first->tuples), OneShot(&session, src));
  bool extended = false;
  for (const EmptinessVerdict& v : prepared->planned()->verdicts) {
    if (v.range.IsExtended() && !v.was_empty) extended = true;
  }
  ASSERT_TRUE(extended) << "the plan should rely on a non-empty extension";

  ASSERT_TRUE(session.ExecuteScript("s :- [<50>];").ok());  // 5 -> 4 rows
  auto flipped = prepared->Execute();
  ASSERT_TRUE(flipped.ok()) << flipped.status().ToString();
  EXPECT_FALSE(flipped->plan_cache_hit);
  EXPECT_EQ(prepared->stats().plan_compiles, 2u);
  EXPECT_EQ(prepared->stats().revalidations, 0u);
  EXPECT_EQ(TupleStrings(flipped->tuples), OneShot(&session, src));
}

TEST(PlanCacheTest, CardinalityDriftReplans) {
  Database db;
  Session session(&db);
  MakeRS(&session, "r :+ [<1>]; r :+ [<2>]; r :+ [<3>]; r :+ [<4>];",
         "s :+ [<2>];");
  const std::string src =
      "[<x.a> OF EACH x IN r: SOME y IN s (x.a <= y.b)]";
  auto prepared = session.Prepare(src);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ASSERT_TRUE(prepared->Execute().ok());

  // 4 -> 7 rows: below 2x, the plan is kept.
  ASSERT_TRUE(
      session.ExecuteScript("r :+ [<5>]; r :+ [<6>]; r :+ [<7>];").ok());
  auto grown = prepared->Execute();
  ASSERT_TRUE(grown.ok());
  EXPECT_TRUE(grown->plan_cache_hit);
  EXPECT_EQ(TupleStrings(grown->tuples), OneShot(&session, src));

  // 7 -> 8 rows: twice the plan-time 4 (drift is measured against plan
  // time, not the last revalidation) — replan.
  ASSERT_TRUE(session.ExecuteScript("r :+ [<8>];").ok());
  auto doubled = prepared->Execute();
  ASSERT_TRUE(doubled.ok());
  EXPECT_FALSE(doubled->plan_cache_hit);
  EXPECT_EQ(prepared->stats().plan_compiles, 2u);
  EXPECT_EQ(TupleStrings(doubled->tuples), OneShot(&session, src));

  // 8 -> 4 rows: half of the new plan-time 8 — replan again.
  ASSERT_TRUE(session
                  .ExecuteScript("r :- [<5>]; r :- [<6>]; r :- [<7>];"
                                 "r :- [<8>];")
                  .ok());
  auto halved = prepared->Execute();
  ASSERT_TRUE(halved.ok());
  EXPECT_FALSE(halved->plan_cache_hit);
  EXPECT_EQ(prepared->stats().plan_compiles, 3u);
  EXPECT_EQ(TupleStrings(halved->tuples), OneShot(&session, src));

  EXPECT_FALSE(CardinalityDrifted(4, 7));
  EXPECT_TRUE(CardinalityDrifted(4, 8));
  EXPECT_FALSE(CardinalityDrifted(8, 5));
  EXPECT_TRUE(CardinalityDrifted(8, 4));
  EXPECT_FALSE(CardinalityDrifted(0, 0));
  EXPECT_TRUE(CardinalityDrifted(0, 1));
}

TEST(PlanCacheTest, SharedAdoptionAcrossAnotherSessionsWrite) {
  // Session A compiles and publishes; B writes; a fresh session C adopts
  // A's shared entry after re-probing its verdicts under C's snapshot —
  // no compile work, and C sees B's row.
  auto db = MakeUniversityDb();
  SessionManager manager(db.get());
  auto a = manager.CreateSession();
  auto b = manager.CreateSession();
  auto c = manager.CreateSession();
  const std::string src =
      "[<e.ename> OF EACH e IN employees:"
      " (e.enr >= $lo) AND SOME t IN timetable (e.enr = t.tenr)]";
  auto pa = a->Prepare(src);
  ASSERT_TRUE(pa.ok()) << pa.status().ToString();
  ASSERT_TRUE(pa->Execute({{"lo", Value::MakeInt(1)}}).ok());

  ASSERT_TRUE(b->ExecuteScript("employees :+ [<82, 'Una', student>];"
                               "timetable :+ [<82, 11, friday, 9001000,"
                               " 'R9'>];")
                  .ok());
  auto pc = c->Prepare(src);
  ASSERT_TRUE(pc.ok()) << pc.status().ToString();
  auto shared_before = manager.counters();
  CompileCounters before = GlobalCompileCounters();
  auto adopted = pc->Execute({{"lo", Value::MakeInt(2)}});
  ASSERT_TRUE(adopted.ok()) << adopted.status().ToString();
  EXPECT_EQ(CompileWorkSince(before), 0u);
  EXPECT_TRUE(adopted->plan_cache_hit);
  EXPECT_EQ(pc->stats().plan_compiles, 0u);
  EXPECT_EQ(pc->stats().revalidations, 1u);
  auto shared_after = manager.counters();
  EXPECT_EQ(shared_after.shared_plan_hits, shared_before.shared_plan_hits + 1);
  EXPECT_EQ(shared_after.shared_plan_misses, shared_before.shared_plan_misses);

  auto reference = c->Query(
      "[<e.ename> OF EACH e IN employees:"
      " (e.enr >= 2) AND SOME t IN timetable (e.enr = t.tenr)]");
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(TupleStrings(adopted->tuples), TupleStrings(reference->tuples));
  EXPECT_EQ(FirstStrings(adopted->tuples).count("Una"), 1u);
}

}  // namespace
}  // namespace pascalr
