#include "refstruct/value_list.h"

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace pascalr {
namespace {

Value V(int64_t x) { return Value::MakeInt(x); }

TEST(ValueListModeTest, ModeForMatchesPaperTable) {
  // Paper §4.4: < / <= keep only the max for SOME, the min for ALL;
  // mirrored for > / >=; = with ALL and <> with SOME keep at most one
  // value; the remaining combinations need the full list.
  EXPECT_EQ(ValueList::ModeFor(CompareOp::kLt, Quantifier::kSome),
            ValueList::Mode::kMaxOnly);
  EXPECT_EQ(ValueList::ModeFor(CompareOp::kLe, Quantifier::kSome),
            ValueList::Mode::kMaxOnly);
  EXPECT_EQ(ValueList::ModeFor(CompareOp::kLt, Quantifier::kAll),
            ValueList::Mode::kMinOnly);
  EXPECT_EQ(ValueList::ModeFor(CompareOp::kGt, Quantifier::kSome),
            ValueList::Mode::kMinOnly);
  EXPECT_EQ(ValueList::ModeFor(CompareOp::kGe, Quantifier::kAll),
            ValueList::Mode::kMaxOnly);
  EXPECT_EQ(ValueList::ModeFor(CompareOp::kEq, Quantifier::kAll),
            ValueList::Mode::kAtMostOne);
  EXPECT_EQ(ValueList::ModeFor(CompareOp::kNe, Quantifier::kSome),
            ValueList::Mode::kAtMostOne);
  EXPECT_EQ(ValueList::ModeFor(CompareOp::kEq, Quantifier::kSome),
            ValueList::Mode::kFull);
  EXPECT_EQ(ValueList::ModeFor(CompareOp::kNe, Quantifier::kAll),
            ValueList::Mode::kFull);
}

/// For every op, brute-force SOME/ALL truth over a list of ints.
bool BruteSome(const std::vector<int64_t>& list, CompareOp op, int64_t x) {
  for (int64_t w : list) {
    if (V(x).Satisfies(op, V(w))) return true;
  }
  return false;
}
bool BruteAll(const std::vector<int64_t>& list, CompareOp op, int64_t x) {
  for (int64_t w : list) {
    if (!V(x).Satisfies(op, V(w))) return false;
  }
  return true;
}

class ValueListOpTest : public ::testing::TestWithParam<CompareOp> {};

TEST_P(ValueListOpTest, SomeMatchesBruteForceInSufficientMode) {
  CompareOp op = GetParam();
  const std::vector<int64_t> lists[] = {
      {}, {5}, {1, 9}, {3, 3, 3}, {2, 4, 6, 8}};
  for (const auto& list : lists) {
    ValueList vl(ValueList::ModeFor(op, Quantifier::kSome));
    for (int64_t w : list) vl.Add(V(w));
    for (int64_t x = 0; x <= 10; ++x) {
      Result<bool> got = vl.SatisfiesSome(op, V(x));
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, BruteSome(list, op, x))
          << "op=" << CompareOpToString(op) << " x=" << x;
    }
  }
}

TEST_P(ValueListOpTest, AllMatchesBruteForceInSufficientMode) {
  CompareOp op = GetParam();
  const std::vector<int64_t> lists[] = {
      {}, {5}, {1, 9}, {3, 3, 3}, {2, 4, 6, 8}};
  for (const auto& list : lists) {
    ValueList vl(ValueList::ModeFor(op, Quantifier::kAll));
    for (int64_t w : list) vl.Add(V(w));
    for (int64_t x = 0; x <= 10; ++x) {
      Result<bool> got = vl.SatisfiesAll(op, V(x));
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, BruteAll(list, op, x))
          << "op=" << CompareOpToString(op) << " x=" << x;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllOps, ValueListOpTest,
                         ::testing::Values(CompareOp::kEq, CompareOp::kNe,
                                           CompareOp::kLt, CompareOp::kLe,
                                           CompareOp::kGt, CompareOp::kGe));

// ------------------------------------------ exhaustive oracle, every mode

/// The probes a mode can answer, from the paper's table (§4.4) read
/// per field: the minimum answers SOME > / >= and ALL < / <=, the maximum
/// the mirrored four; kAtMostOne keeps both bounds (so it answers every
/// ordering probe) plus the one-distinct-value test behind ALL = and
/// SOME <>; only kFull answers SOME = and ALL <>, which need membership.
bool Answerable(ValueList::Mode mode, CompareOp op, Quantifier q) {
  const bool some = q == Quantifier::kSome;
  const bool needs_min = some ? (op == CompareOp::kGt || op == CompareOp::kGe)
                              : (op == CompareOp::kLt || op == CompareOp::kLe);
  const bool needs_max = some ? (op == CompareOp::kLt || op == CompareOp::kLe)
                              : (op == CompareOp::kGt || op == CompareOp::kGe);
  const bool needs_one = some ? op == CompareOp::kNe : op == CompareOp::kEq;
  switch (mode) {
    case ValueList::Mode::kFull:
      return true;
    case ValueList::Mode::kMinOnly:
      return needs_min;
    case ValueList::Mode::kMaxOnly:
      return needs_max;
    case ValueList::Mode::kAtMostOne:
      return needs_min || needs_max || needs_one;
  }
  return false;
}

TEST(ValueListOracleTest, EveryModeOpAndQuantifierMatchesBruteForce) {
  const ValueList::Mode kModes[] = {
      ValueList::Mode::kFull, ValueList::Mode::kMinOnly,
      ValueList::Mode::kMaxOnly, ValueList::Mode::kAtMostOne};
  const CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                            CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
  const std::vector<int64_t> kLists[] = {
      {},                                  // empty
      {5},                                 // one value
      {4, 4, 4},                           // one value, repeated
      {6, 2, 6, 2, 2},                     // two values, repeated
      {7, 3, 9, 1, 8, 3, 10, 0, 5, 9, 1},  // many values, some repeated
      {9, 8, 7, 6, 5, 4, 3, 2},            // descending: max set first
      {2, 3, 4, 5, 6, 7, 8, 9},            // ascending: min set first
  };
  for (ValueList::Mode mode : kModes) {
    for (const std::vector<int64_t>& list : kLists) {
      ValueList vl(mode);
      for (int64_t w : list) vl.Add(V(w));
      ASSERT_EQ(vl.count(), list.size());
      ASSERT_EQ(vl.empty(), list.empty());
      const std::set<int64_t> distinct(list.begin(), list.end());
      size_t stored = 0;
      if (!list.empty()) {
        switch (mode) {
          case ValueList::Mode::kFull: stored = distinct.size(); break;
          case ValueList::Mode::kMinOnly:
          case ValueList::Mode::kMaxOnly: stored = 1; break;
          case ValueList::Mode::kAtMostOne:
            stored = distinct.size() >= 2 ? 2 : 1;
            break;
        }
      }
      EXPECT_EQ(vl.stored_values(), stored) << vl.DebugString();
      for (CompareOp op : kOps) {
        for (Quantifier q : {Quantifier::kSome, Quantifier::kAll}) {
          const bool some = q == Quantifier::kSome;
          for (int64_t x = -1; x <= 11; ++x) {
            Result<bool> got =
                some ? vl.SatisfiesSome(op, V(x)) : vl.SatisfiesAll(op, V(x));
            const std::string where =
                vl.DebugString() + " op=" +
                std::string(CompareOpToString(op)) +
                (some ? " SOME" : " ALL") + " x=" + std::to_string(x) +
                " list size " + std::to_string(list.size());
            // The empty list answers everything (SOME false, ALL true)
            // before any mode check.
            if (!list.empty() && !Answerable(mode, op, q)) {
              ASSERT_FALSE(got.ok()) << where;
              EXPECT_EQ(got.status().code(), StatusCode::kInternal) << where;
              continue;
            }
            ASSERT_TRUE(got.ok()) << where << ": " << got.status().ToString();
            EXPECT_EQ(*got, some ? BruteSome(list, op, x)
                                 : BruteAll(list, op, x))
                << where;
          }
        }
      }
    }
  }
}

TEST(ValueListTest, SummaryModesStoreO1Values) {
  ValueList max_only(ValueList::Mode::kMaxOnly);
  for (int i = 0; i < 100; ++i) max_only.Add(V(i));
  EXPECT_EQ(max_only.stored_values(), 1u);
  EXPECT_EQ(max_only.count(), 100u);

  ValueList at_most_one(ValueList::Mode::kAtMostOne);
  for (int i = 0; i < 100; ++i) at_most_one.Add(V(i % 2));
  EXPECT_EQ(at_most_one.stored_values(), 2u);  // value + overflow marker

  ValueList full(ValueList::Mode::kFull);
  for (int i = 0; i < 100; ++i) full.Add(V(i));
  EXPECT_EQ(full.stored_values(), 100u);
}

TEST(ValueListTest, InsufficientModeIsAnInternalError) {
  ValueList min_only(ValueList::Mode::kMinOnly);
  min_only.Add(V(1));
  // kMinOnly cannot answer "exists w: x < w" (needs the max).
  Result<bool> bad = min_only.SatisfiesSome(CompareOp::kLt, V(0));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInternal);
  // kEq with SOME needs the full set.
  Result<bool> eq = min_only.SatisfiesSome(CompareOp::kEq, V(1));
  EXPECT_FALSE(eq.ok());
}

TEST(ValueListTest, EmptyListSemantics) {
  ValueList vl(ValueList::Mode::kFull);
  EXPECT_TRUE(vl.empty());
  // SOME over empty = false, ALL over empty = true for every operator.
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    EXPECT_FALSE(*vl.SatisfiesSome(op, V(3)));
    EXPECT_TRUE(*vl.SatisfiesAll(op, V(3)));
  }
}

TEST(ValueListTest, AtMostOneSemantics) {
  // = with ALL: true iff exactly one distinct value equal to x.
  ValueList single(ValueList::Mode::kAtMostOne);
  single.Add(V(7));
  single.Add(V(7));
  EXPECT_TRUE(*single.SatisfiesAll(CompareOp::kEq, V(7)));
  EXPECT_FALSE(*single.SatisfiesAll(CompareOp::kEq, V(8)));

  ValueList many(ValueList::Mode::kAtMostOne);
  many.Add(V(7));
  many.Add(V(8));
  // Two distinct values: ALL-equal is false for every x...
  EXPECT_FALSE(*many.SatisfiesAll(CompareOp::kEq, V(7)));
  // ...and SOME-different is true for every x.
  EXPECT_TRUE(*many.SatisfiesSome(CompareOp::kNe, V(7)));
}

TEST(ValueListTest, StringValues) {
  ValueList vl(ValueList::Mode::kFull);
  vl.Add(Value::MakeString("b"));
  vl.Add(Value::MakeString("d"));
  EXPECT_TRUE(*vl.SatisfiesSome(CompareOp::kLt, Value::MakeString("c")));
  EXPECT_FALSE(*vl.SatisfiesAll(CompareOp::kLt, Value::MakeString("c")));
  EXPECT_TRUE(*vl.SatisfiesAll(CompareOp::kLe, Value::MakeString("a")));
}

TEST(ValueListTest, DebugString) {
  ValueList vl(ValueList::Mode::kMaxOnly);
  vl.Add(V(1));
  std::string s = vl.DebugString();
  EXPECT_NE(s.find("mode=max"), std::string::npos);
  EXPECT_NE(s.find("added=1"), std::string::npos);
}

}  // namespace
}  // namespace pascalr
