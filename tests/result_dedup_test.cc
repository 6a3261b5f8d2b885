// Construction-phase duplicate elimination (exec/construction.h): every
// cursor drain — batched, row-at-a-time, materializing — and the
// materializing evaluator return each projected tuple once, count one
// dereference per projected component per combination row, and report the
// emitted-tuple count to the close hook.

#include "exec/construction.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/cursor.h"
#include "opt/planner.h"
#include "tests/test_util.h"

namespace pascalr {
namespace {

using testing_util::MakeUniversityDb;
using testing_util::MustBind;
using testing_util::TupleStrings;

/// Figure 1's employees plus a second Alice (same status as the first)
/// and a second Bob (a student, unlike the first).
std::unique_ptr<Database> MakeDbWithRepeatedNames() {
  auto db = MakeUniversityDb();
  Relation* employees = db->FindRelation("employees");
  EXPECT_TRUE(employees
                  ->Insert(Tuple{Value::MakeInt(7), Value::MakeString("Alice"),
                                 Value::MakeEnum(3)})
                  .ok());
  EXPECT_TRUE(employees
                  ->Insert(Tuple{Value::MakeInt(8), Value::MakeString("Bob"),
                                 Value::MakeEnum(0)})
                  .ok());
  return db;
}

struct Drained {
  std::vector<Tuple> tuples;
  ExecStats stats;
  uint64_t hook_count = 0;
};

Drained DrainCursor(const Database& db, const std::string& source,
                    const PlannerOptions& options) {
  Drained out;
  Result<PlannedQuery> planned =
      PlanQuery(db, MustBind(db, source), options);
  EXPECT_TRUE(planned.ok()) << planned.status().ToString();
  if (!planned.ok()) return out;
  Result<Cursor> cursor = Cursor::Open(
      std::make_shared<const QueryPlan>(std::move(planned->plan)), db,
      &out.stats);
  EXPECT_TRUE(cursor.ok()) << cursor.status().ToString();
  if (!cursor.ok()) return out;
  EXPECT_EQ(cursor->pipelined(), options.pipeline);
  cursor->set_close_hook(
      [&out](const ExecStats&, uint64_t emitted) { out.hook_count = emitted; });
  Tuple tuple;
  while (true) {
    Result<bool> more = cursor->Next(&tuple);
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!more.ok() || !*more) break;
    out.tuples.push_back(std::move(tuple));
  }
  cursor->Close();
  return out;
}

struct DedupCase {
  const char* source;
  std::multiset<std::string> expected;
  uint64_t dereferences;  ///< projected components x combination rows
};

const DedupCase kCases[] = {
    // 8 employees, 6 distinct names: both Alices and both Bobs collapse.
    {"[<e.ename> OF EACH e IN employees: e.enr > 0]",
     {"<'Alice'>", "<'Bob'>", "<'Carol'>", "<'Dave'>", "<'Erin'>",
      "<'Frank'>"},
     8},
    // The two Alices agree on estatus, the two Bobs do not.
    {"[<e.ename, e.estatus> OF EACH e IN employees: e.enr > 0]",
     {"<'Alice', #3>", "<'Bob', #3>", "<'Bob', #0>", "<'Carol', #3>",
      "<'Dave', #2>", "<'Erin', #0>", "<'Frank', #3>"},
     16},
    // Professors only: Alice twice, Bob once.
    {"[<e.ename> OF EACH e IN employees: e.estatus = professor]",
     {"<'Alice'>", "<'Bob'>", "<'Carol'>", "<'Frank'>"},
     5},
};

TEST(ResultDedupTest, EveryCursorDrainReturnsEachTupleOnce) {
  auto db = MakeDbWithRepeatedNames();
  for (const DedupCase& c : kCases) {
    for (bool pipeline : {true, false}) {
      for (size_t batch : {size_t{1}, size_t{7}, size_t{1024}}) {
        if (!pipeline && batch != 1) continue;  // batching is pipelined only
        PlannerOptions options;
        options.pipeline = pipeline;
        options.batch_size = batch;
        Drained got = DrainCursor(*db, c.source, options);
        const std::string where = std::string(c.source) +
                                  " pipeline=" + (pipeline ? "on" : "off") +
                                  " batch=" + std::to_string(batch);
        EXPECT_EQ(TupleStrings(got.tuples), c.expected) << where;
        EXPECT_EQ(got.stats.dereferences, c.dereferences) << where;
        EXPECT_EQ(got.hook_count, got.tuples.size()) << where;
      }
    }
  }
}

TEST(ResultDedupTest, MaterializingEvaluatorMatches) {
  auto db = MakeDbWithRepeatedNames();
  for (const DedupCase& c : kCases) {
    PlannerOptions options;
    options.pipeline = false;
    Result<QueryRun> run = RunQuery(*db, MustBind(*db, c.source), options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(TupleStrings(run->tuples), c.expected) << c.source;
    EXPECT_EQ(run->stats.dereferences, c.dereferences) << c.source;
  }
}

TEST(ResultDedupTest, EqualValuesUnderDifferentRefsCollapse) {
  // Direct use: rows are (e) refs; the helper compares dereferenced
  // values, not refs, and keeps the first row's tuple.
  auto db = MakeDbWithRepeatedNames();
  const std::string source = "[<e.ename> OF EACH e IN employees: e.enr > 0]";
  Result<PlannedQuery> planned =
      PlanQuery(*db, MustBind(*db, source), PlannerOptions());
  ASSERT_TRUE(planned.ok());
  const QueryPlan& plan = planned->plan;
  ExecStats stats;
  ResultDedup dedup(plan, {0}, db.get(), &stats);
  std::vector<Ref> refs;
  db->FindRelation("employees")->Scan([&](const Ref& ref, const Tuple&) {
    refs.push_back(ref);
    return true;
  });
  ASSERT_EQ(refs.size(), 8u);
  std::vector<std::string> emitted;
  Tuple tuple;
  for (int pass = 0; pass < 2; ++pass) {
    for (const Ref& ref : refs) {
      Result<bool> fresh = dedup.Next({ref}, &tuple);
      ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
      if (*fresh) emitted.push_back(tuple.ToString());
    }
  }
  EXPECT_EQ(emitted.size(), 6u);
  EXPECT_EQ(dedup.size(), 6u);
  EXPECT_EQ(stats.dereferences, 16u);  // counted for every row, fresh or not
  dedup.Clear();
  EXPECT_EQ(dedup.size(), 0u);
}

}  // namespace
}  // namespace pascalr
