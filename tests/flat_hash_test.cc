// FlatHashTable and the structures built on it: RefRelation's row dedup
// and the grouped join-key chains of JoinHashTable.

#include "refstruct/flat_hash.h"

#include <gtest/gtest.h>

#include "refstruct/ops.h"
#include "refstruct/ref_relation.h"

namespace pascalr {
namespace {

Ref R(RelationId rel, uint32_t slot) { return Ref{rel, slot, 1}; }

uint64_t RowHash(const RefRow& row) {
  uint64_t h = RefRelation::kRowHashSeed;
  for (const Ref& r : row) h = HashCombine(h, r.Hash());
  return h;
}

// ------------------------------------------------------------ FlatHashTable

TEST(FlatHashTableTest, PositionsFollowInsertionOrder) {
  FlatHashTable table;
  std::vector<int> keys;
  auto eq_to = [&](int key) {
    return [&, key](uint32_t pos) { return keys[pos] == key; };
  };
  for (int k = 0; k < 1000; ++k) {
    auto [pos, inserted] = table.FindOrInsert(static_cast<uint64_t>(k) * 31,
                                              eq_to(k));
    ASSERT_TRUE(inserted);
    ASSERT_EQ(pos, static_cast<uint32_t>(k));
    keys.push_back(k);
  }
  EXPECT_EQ(table.size(), 1000u);
  for (int k = 0; k < 1000; ++k) {
    EXPECT_EQ(table.Find(static_cast<uint64_t>(k) * 31, eq_to(k)),
              static_cast<uint32_t>(k));
  }
  EXPECT_EQ(table.Find(7, eq_to(7)), FlatHashTable::kNone);
}

TEST(FlatHashTableTest, EqualHashesStayDistinctEntries) {
  // Every key hashes alike: lookups must fall through to the predicate.
  FlatHashTable table;
  std::vector<int> keys;
  for (int k = 0; k < 100; ++k) {
    auto [pos, inserted] = table.FindOrInsert(
        42, [&](uint32_t p) { return keys[p] == k; });
    ASSERT_TRUE(inserted);
    EXPECT_EQ(pos, static_cast<uint32_t>(k));
    keys.push_back(k);
  }
  for (int k = 0; k < 100; ++k) {
    auto [pos, inserted] = table.FindOrInsert(
        42, [&](uint32_t p) { return keys[p] == k; });
    EXPECT_FALSE(inserted);
    EXPECT_EQ(pos, static_cast<uint32_t>(k));
  }
  EXPECT_EQ(table.Find(42, [&](uint32_t p) { return keys[p] == 100; }),
            FlatHashTable::kNone);
  EXPECT_EQ(table.size(), 100u);
}

TEST(FlatHashTableTest, GrowthAndClear) {
  FlatHashTable table;
  for (uint64_t h = 0; h < 500; ++h) {
    table.FindOrInsert(h, [](uint32_t) { return true; });
  }
  EXPECT_EQ(table.size(), 500u);
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.Find(3, [](uint32_t) { return true; }), FlatHashTable::kNone);
  EXPECT_EQ(table.FindOrInsert(3, [](uint32_t) { return true; }).first, 0u);
}

// ------------------------------------------------------ RefRelation dedup

TEST(FlatRefRelationTest, HundredThousandRowsWithDuplicates) {
  constexpr uint32_t kRows = 100000;
  RefRelation ij = RefRelation::IndirectJoin("a", "b");
  auto row_of = [](uint32_t i) { return RefRow{R(1, i), R(2, i / 7)}; };
  for (uint32_t i = 0; i < kRows; ++i) {
    ASSERT_TRUE(ij.Add(row_of(i)));
    if (i % 3 == 0) {
      ASSERT_FALSE(ij.Add(row_of(i / 2)));  // an earlier row
    }
  }
  for (uint32_t i = 0; i < kRows; i += 5) ASSERT_FALSE(ij.Add(row_of(i)));
  ASSERT_EQ(ij.size(), kRows);
  for (uint32_t i = 0; i < kRows; ++i) {
    ASSERT_EQ(ij.row(i), row_of(i)) << "insertion order broken at " << i;
  }
}

TEST(FlatRefRelationTest, ContainsHitsAndMisses) {
  RefRelation ij = RefRelation::IndirectJoin("a", "b");
  for (uint32_t i = 0; i < 5000; ++i) ij.Add({R(1, i), R(2, i % 10)});
  for (uint32_t i = 0; i < 5000; i += 37) {
    const RefRow hit{R(1, i), R(2, i % 10)};
    const RefRow miss{R(1, i), R(2, (i + 1) % 10)};
    EXPECT_TRUE(ij.Contains(hit));
    EXPECT_TRUE(ij.ContainsPrehashed(RowHash(hit), hit));
    EXPECT_FALSE(ij.Contains(miss));
    EXPECT_FALSE(ij.ContainsPrehashed(RowHash(miss), miss));
    // A right hash with the wrong row is still a miss.
    EXPECT_FALSE(ij.ContainsPrehashed(RowHash(hit), miss));
  }
  EXPECT_FALSE(ij.Contains({R(1, 5000), R(2, 0)}));
}

TEST(FlatRefRelationTest, ClearThenReuse) {
  RefRelation sl = RefRelation::SingleList("e");
  for (uint32_t i = 0; i < 300; ++i) sl.Add({R(1, i)});
  sl.Clear();
  EXPECT_TRUE(sl.empty());
  EXPECT_FALSE(sl.Contains({R(1, 5)}));
  for (uint32_t i = 300; i-- > 0;) EXPECT_TRUE(sl.Add({R(1, i)}));
  EXPECT_FALSE(sl.Add({R(1, 17)}));
  ASSERT_EQ(sl.size(), 300u);
  EXPECT_EQ(sl.row(0), RefRow{R(1, 299)});
  EXPECT_EQ(sl.row(299), RefRow{R(1, 0)});
}

TEST(FlatRefRelationTest, CopyIsIndependent) {
  RefRelation original = RefRelation::SingleList("e");
  for (uint32_t i = 0; i < 100; ++i) original.Add({R(1, i)});
  RefRelation copy = original;
  EXPECT_TRUE(copy.Add({R(1, 100)}));
  EXPECT_FALSE(copy.Add({R(1, 50)}));
  EXPECT_TRUE(original.Add({R(1, 200)}));
  EXPECT_FALSE(original.Contains({R(1, 100)}));
  EXPECT_FALSE(copy.Contains({R(1, 200)}));
  EXPECT_EQ(original.size(), 101u);
  EXPECT_EQ(copy.size(), 101u);
  original.Clear();
  EXPECT_TRUE(copy.Contains({R(1, 99)}));
}

// ------------------------------------------------------------ JoinHashTable

std::vector<uint32_t> ChainRows(const JoinHashTable& table, uint64_t h) {
  JoinHashTable::Chain chain = table.Find(h);
  return std::vector<uint32_t>(chain.rows, chain.rows + chain.size);
}

TEST(JoinHashTableTest, EveryEqualKeyRowInScanOrder) {
  RefRelation rel({"x", "y"});
  for (uint32_t i = 0; i < 2000; ++i) rel.Add({R(1, i % 13), R(2, i)});
  const std::vector<int> key = {0};
  JoinHashTable table = BuildJoinHashTable(rel, key);
  size_t total = 0;
  for (uint32_t k = 0; k < 13; ++k) {
    std::vector<uint32_t> expected;
    for (uint32_t i = 0; i < rel.size(); ++i) {
      if (rel.row(i)[0] == R(1, k)) expected.push_back(i);
    }
    const RefRow probe{R(1, k)};
    std::vector<uint32_t> got = ChainRows(table, JoinKeyHash(probe, key));
    EXPECT_EQ(got, expected) << "key " << k;
    total += got.size();
  }
  EXPECT_EQ(total, rel.size());
  EXPECT_TRUE(ChainRows(table, JoinKeyHash({R(1, 13)}, key)).empty());
}

TEST(JoinHashTableTest, TwoColumnKey) {
  RefRelation rel({"x", "y", "z"});
  for (uint32_t i = 0; i < 600; ++i) {
    rel.Add({R(1, i % 4), R(2, i % 6), R(3, i)});
  }
  const std::vector<int> key = {0, 1};
  JoinHashTable table = BuildJoinHashTable(rel, key);
  for (uint32_t a = 0; a < 4; ++a) {
    for (uint32_t b = 0; b < 6; ++b) {
      std::vector<uint32_t> got =
          ChainRows(table, JoinKeyHash({R(1, a), R(2, b)}, {0, 1}));
      std::vector<uint32_t> expected;
      for (uint32_t i = 0; i < rel.size(); ++i) {
        if (rel.row(i)[0] == R(1, a) && rel.row(i)[1] == R(2, b)) {
          expected.push_back(i);
        }
      }
      EXPECT_EQ(got, expected);
    }
  }
}

TEST(JoinHashTableTest, EmptyKeyIsOneChainOfAllRows) {
  RefRelation rel({"x"});
  for (uint32_t i = 0; i < 50; ++i) rel.Add({R(1, i)});
  JoinHashTable table = BuildJoinHashTable(rel, {});
  std::vector<uint32_t> got = ChainRows(table, JoinKeyHash({}, {}));
  ASSERT_EQ(got.size(), 50u);
  for (uint32_t i = 0; i < 50; ++i) EXPECT_EQ(got[i], i);
}

TEST(JoinHashTableTest, EmptyRelation) {
  RefRelation rel({"x"});
  JoinHashTable table = BuildJoinHashTable(rel, {0});
  EXPECT_EQ(table.Find(JoinKeyHash({R(1, 0)}, {0})).size, 0u);
  EXPECT_EQ(BuildJoinHashTable(rel, {}).Find(JoinKeyHash({}, {})).size, 0u);
}

}  // namespace
}  // namespace pascalr
