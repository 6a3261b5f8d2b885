// Seeded differential test of the plan caches' validity rule
// (opt/plan_stamp.h). Random :+ / :- statements — including emptying and
// refilling whole relations, so Lemma-1 and rule-2 verdicts flip both ways
// and cardinalities drift — interleave with executes of prepared
// statements at several strategy levels. Every result is compared against
// the naive evaluator (exec/naive.h), which neither plans nor caches.
//
// Three runners share the workload:
//   - a plain Session (private plan caches only);
//   - a SessionManager (private caches plus the shared cache, with fresh
//     sessions adopting entries across writes);
//   - a writer thread racing reader threads under a SessionManager, each
//     result checked against a serial replay of the commit log up to its
//     snapshot version. CI also runs this binary under ThreadSanitizer.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "concurrency/session_manager.h"
#include "exec/naive.h"
#include "opt/params.h"
#include "pascalr/prepared.h"
#include "pascalr/session.h"
#include "tests/test_util.h"

namespace pascalr {
namespace {

using testing_util::MustBind;
using testing_util::TupleStrings;

constexpr int kKeys = 24;  // key domain of r.a and s.b is 1..kKeys

const char kSchema[] =
    "VAR r : RELATION <a> OF RECORD a : 1..24; g : 1..4 END;"
    "VAR s : RELATION <b> OF RECORD b : 1..24; h : 1..4 END;";

/// Prepared statements; `$p` ranges over 1..4 wherever it appears.
const char* const kStatements[] = {
    // Lemma 1 on a base range: ALL over an emptied s is vacuously true.
    "[<x.a> OF EACH x IN r: ALL y IN s (x.a <> y.b)]",
    // A parameter inside a SOME; extended by strategy 3.
    "[<x.a> OF EACH x IN r: SOME y IN s ((y.h = $p) AND (x.a = y.b))]",
    // Lemma 1 on a user-written, parameter-carrying extended range.
    "[<x.a> OF EACH x IN r: ALL y IN [EACH y IN s: y.h = $p] (x.g <> y.h)]",
    // Rule 2: strategy 3 extends y's range to [EACH y IN s: y.h > 2].
    "[<x.a> OF EACH x IN r: ALL y IN s ((y.h <= 2) OR (x.a <> y.b))]",
    // Two free variables and a parameter-restricted free range.
    "[<x.a, y.b> OF EACH x IN r, EACH y IN s: (x.g = y.h) AND (x.g <= $p)]",
    // Negated quantifier.
    "[<x.a> OF EACH x IN r: NOT SOME y IN s ((y.b = x.a) AND (y.h > 2))]",
    // Nested quantifiers over both relations, extended free range.
    "[<x.a> OF EACH x IN [EACH x IN r: x.g >= $p]:"
    " SOME y IN s ALL z IN r ((y.h = x.g) AND ((z.a <> y.b) OR (z.g = 1)))]",
};
constexpr size_t kNumStatements = sizeof(kStatements) / sizeof(kStatements[0]);

const OptLevel kLevels[] = {OptLevel::kOneStep, OptLevel::kRangeExt,
                            OptLevel::kQuantPush, OptLevel::kAuto};

ParamBindings BindingsFor(const char* source, int64_t p) {
  if (std::string(source).find("$p") == std::string::npos) return {};
  return {{"p", Value::MakeInt(p)}};
}

/// The random write stream. Tracks the live keys so every statement
/// succeeds; whole-relation empties and refills come in bursts of
/// single-row statements (one commit version each).
class WriteStream {
 public:
  explicit WriteStream(uint32_t seed) : rng_(seed) {}

  /// Initial contents: every relation half full.
  std::string InitialRows() {
    std::string out;
    for (int k = 1; k <= kKeys; k += 2) {
      out += Insert(0, k) + Insert(1, k + 1);
    }
    return out;
  }

  /// Next burst of statements: one insert or delete, or (rarely) every
  /// statement needed to empty or to refill one relation.
  std::vector<std::string> Next() {
    const int rel = static_cast<int>(rng_() % 2);
    const uint32_t roll = rng_() % 100;
    std::vector<std::string> out;
    if (roll < 6) {
      std::vector<int> keys(keys_[rel].begin(), keys_[rel].end());
      for (int k : keys) out.push_back(Delete(rel, k));
    } else if (roll < 12) {
      for (int i = 0; i < 8; ++i) out.push_back(InsertRandom(rel));
    } else if (roll < 55 || keys_[rel].empty()) {
      out.push_back(InsertRandom(rel));
    } else {
      auto it = keys_[rel].begin();
      std::advance(it, rng_() % keys_[rel].size());
      out.push_back(Delete(rel, *it));
    }
    out.erase(std::remove(out.begin(), out.end(), std::string()), out.end());
    return out;
  }

 private:
  std::string Insert(int rel, int key) {
    keys_[rel].insert(key);
    return std::string(rel == 0 ? "r" : "s") + " :+ [<" +
           std::to_string(key) + ", " + std::to_string(1 + rng_() % 4) +
           ">];";
  }
  std::string Delete(int rel, int key) {
    keys_[rel].erase(key);
    return std::string(rel == 0 ? "r" : "s") + " :- [<" +
           std::to_string(key) + ">];";
  }
  /// "" when the relation is full.
  std::string InsertRandom(int rel) {
    if (keys_[rel].size() == static_cast<size_t>(kKeys)) return "";
    int key = 1 + static_cast<int>(rng_() % kKeys);
    while (keys_[rel].count(key) > 0) key = key % kKeys + 1;
    return Insert(rel, key);
  }

  std::mt19937 rng_;
  std::set<int> keys_[2];
};

/// The uncached reference: the naive evaluator over `db`'s current state.
std::multiset<std::string> Naive(const Database& db, const char* source,
                                 const ParamBindings& bindings) {
  BoundQuery bound = MustBind(db, source);
  Status bind = BindSelectionParams(&bound.selection, bindings);
  EXPECT_TRUE(bind.ok()) << bind.ToString();
  NaiveEvaluator naive(&db);
  auto tuples = naive.Evaluate(bound);
  EXPECT_TRUE(tuples.ok()) << tuples.status().ToString();
  return TupleStrings(tuples.ok() ? *tuples : std::vector<Tuple>{});
}

/// One session per strategy level, each with every statement prepared.
struct Reader {
  std::unique_ptr<Session> session;
  std::vector<PreparedQuery> prepared;
};

Reader MakeReader(std::unique_ptr<Session> session, OptLevel level) {
  Reader reader;
  reader.session = std::move(session);
  reader.session->options().level = level;
  for (const char* source : kStatements) {
    auto prepared = reader.session->Prepare(source);
    EXPECT_TRUE(prepared.ok()) << prepared.status().ToString();
    reader.prepared.push_back(std::move(prepared).value());
  }
  return reader;
}

struct Totals {
  uint64_t executes = 0;
  uint64_t compiles = 0;
  uint64_t revalidations = 0;
};

void AddTotals(const Reader& reader, Totals* totals) {
  for (const PreparedQuery& pq : reader.prepared) {
    totals->executes += pq.stats().executes;
    totals->compiles += pq.stats().plan_compiles;
    totals->revalidations += pq.stats().revalidations;
  }
}

/// Serial runner: writes and checked executes interleaved on one thread.
void RunSerial(uint32_t seed, bool serving) {
  SCOPED_TRACE("seed " + std::to_string(seed) +
               (serving ? " serving" : " session"));
  Database db;
  WriteStream writes(seed);
  {
    Session setup(&db);
    ASSERT_TRUE(
        setup.ExecuteScript(std::string(kSchema) + writes.InitialRows()).ok());
    ASSERT_TRUE(setup.ExecuteScript("ANALYZE;").ok());
  }
  std::unique_ptr<SessionManager> manager;
  if (serving) manager = std::make_unique<SessionManager>(&db);
  auto new_session = [&] {
    return serving ? manager->CreateSession()
                   : std::make_unique<Session>(&db);
  };

  std::unique_ptr<Session> writer = new_session();
  std::vector<Reader> readers;
  for (OptLevel level : kLevels) {
    readers.push_back(MakeReader(new_session(), level));
  }

  std::mt19937 rng(seed * 7919u + 1);
  Totals totals;
  uint64_t adoptions = 0;
  for (int step = 0; step < 400; ++step) {
    const uint32_t roll = rng() % 100;
    if (roll < 40) {
      for (const std::string& stmt : writes.Next()) {
        Status status = writer->ExecuteScript(stmt);
        ASSERT_TRUE(status.ok()) << stmt << ": " << status.ToString();
      }
      continue;
    }
    const size_t q = rng() % kNumStatements;
    const ParamBindings bindings =
        BindingsFor(kStatements[q], 1 + static_cast<int64_t>(rng() % 4));
    Reader& reader = readers[rng() % readers.size()];
    if (serving && roll < 46) {
      // The reader's execute leaves a current shared entry for (q, level);
      // after one more write a fresh session prepares q at that level —
      // its first execute can only adopt the entry or compile.
      ASSERT_TRUE(reader.prepared[q].Execute(bindings).ok());
      for (const std::string& stmt : writes.Next()) {
        Status status = writer->ExecuteScript(stmt);
        ASSERT_TRUE(status.ok()) << stmt << ": " << status.ToString();
      }
      Reader fresh =
          MakeReader(new_session(), reader.session->options().level);
      auto exec = fresh.prepared[q].Execute(bindings);
      ASSERT_TRUE(exec.ok()) << exec.status().ToString();
      EXPECT_EQ(TupleStrings(exec->tuples), Naive(db, kStatements[q], bindings))
          << "fresh session, step " << step << ": " << kStatements[q];
      adoptions += fresh.prepared[q].stats().plan_cache_hits;
      continue;
    }
    auto exec = reader.prepared[q].Execute(bindings);
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    EXPECT_EQ(TupleStrings(exec->tuples), Naive(db, kStatements[q], bindings))
        << "level " << OptLevelToString(reader.session->options().level)
        << ", step " << step << ": " << kStatements[q];
  }
  for (const Reader& reader : readers) AddTotals(reader, &totals);
  // The workload must exercise both outcomes of the validity check.
  EXPECT_GT(totals.revalidations, 0u);
  EXPECT_GT(totals.compiles, kNumStatements * readers.size());
  EXPECT_LT(totals.compiles, totals.executes);
  if (serving) {
    EXPECT_GT(adoptions, 0u);
  }
}

TEST(PlanCacheDifferentialTest, SessionMatchesNaiveAcrossWrites) {
  for (uint32_t seed : {1u, 2u, 3u}) RunSerial(seed, /*serving=*/false);
}

TEST(PlanCacheDifferentialTest, SessionManagerMatchesNaiveAcrossWrites) {
  for (uint32_t seed : {1u, 2u, 3u}) RunSerial(seed, /*serving=*/true);
}

TEST(PlanCacheDifferentialTest, ConcurrentReadersMatchReplayAtTheirSnapshot) {
  constexpr uint32_t kSeed = 11;
  constexpr int kWriteBursts = 120;
  constexpr int kReaders = 2;
  Database db;
  WriteStream writes(kSeed);
  const std::string initial = std::string(kSchema) + writes.InitialRows();
  {
    Session setup(&db);
    ASSERT_TRUE(setup.ExecuteScript(initial).ok());
  }
  SessionManager manager(&db);

  std::mutex log_mu;
  std::map<uint64_t, std::string> commit_log;
  std::atomic<bool> done{false};

  struct Observation {
    size_t statement = 0;
    int64_t p = 0;
    uint64_t snapshot_version = 0;
    std::multiset<std::string> tuples;
  };
  std::vector<std::vector<Observation>> observations(kReaders);
  std::vector<Totals> totals(kReaders);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Reader reader = MakeReader(manager.CreateSession(),
                                 kLevels[(r * 2 + 1) % 4]);
      std::mt19937 rng(kSeed + 100 + r);
      auto observe = [&] {
        Observation obs;
        obs.statement = rng() % kNumStatements;
        obs.p = 1 + static_cast<int64_t>(rng() % 4);
        auto exec = reader.prepared[obs.statement].Execute(
            BindingsFor(kStatements[obs.statement], obs.p));
        ASSERT_TRUE(exec.ok()) << exec.status().ToString();
        obs.snapshot_version = exec->snapshot_version;
        obs.tuples = TupleStrings(exec->tuples);
        observations[r].push_back(std::move(obs));
      };
      while (!done.load(std::memory_order_acquire)) observe();
      observe();  // after the last commit
      AddTotals(reader, &totals[r]);
    });
  }
  {
    auto writer = manager.CreateSession();
    for (int i = 0; i < kWriteBursts; ++i) {
      for (const std::string& stmt : writes.Next()) {
        Status status = writer->ExecuteScript(stmt);
        ASSERT_TRUE(status.ok()) << stmt << ": " << status.ToString();
        std::lock_guard<std::mutex> lock(log_mu);
        commit_log.emplace(writer->last_commit_version(), stmt);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  // Serial oracle: replay the log in version order into a fresh
  // database, checking each observation once its version is reached.
  std::vector<const Observation*> ordered;
  for (const auto& per_reader : observations) {
    for (const Observation& obs : per_reader) ordered.push_back(&obs);
  }
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const Observation* a, const Observation* b) {
                     return a->snapshot_version < b->snapshot_version;
                   });
  Database replay_db;
  Session replay(&replay_db);
  ASSERT_TRUE(replay.ExecuteScript(initial).ok());
  auto next = commit_log.begin();
  for (const Observation* obs : ordered) {
    for (; next != commit_log.end() && next->first <= obs->snapshot_version;
         ++next) {
      ASSERT_TRUE(replay.ExecuteScript(next->second).ok()) << next->second;
    }
    const char* source = kStatements[obs->statement];
    EXPECT_EQ(obs->tuples,
              Naive(replay_db, source, BindingsFor(source, obs->p)))
        << "snapshot version " << obs->snapshot_version << ": " << source;
  }
  uint64_t revalidations = 0;
  for (const Totals& t : totals) revalidations += t.revalidations;
  EXPECT_GT(revalidations, 0u);
  EXPECT_GT(ordered.size(), static_cast<size_t>(kReaders));
}

}  // namespace
}  // namespace pascalr
