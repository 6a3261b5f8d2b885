#include "index/hash_index.h"

#include <type_traits>

#include <gtest/gtest.h>

#include "index/btree_index.h"

namespace pascalr {
namespace {

Ref R(uint32_t slot) { return Ref{1, slot, 1}; }

TEST(HashIndexTest, AddProbeEq) {
  HashIndex idx("test");
  idx.Add(Value::MakeInt(5), R(0));
  idx.Add(Value::MakeInt(5), R(1));
  idx.Add(Value::MakeInt(7), R(2));
  EXPECT_EQ(idx.size(), 3u);
  EXPECT_EQ(idx.num_distinct_values(), 2u);

  std::vector<uint32_t> hits;
  idx.Probe(CompareOp::kEq, Value::MakeInt(5), [&](const Ref& r) {
    hits.push_back(r.slot);
    return true;
  });
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<uint32_t>{0, 1}));
}

TEST(HashIndexTest, DuplicateEntryCollapses) {
  HashIndex idx;
  idx.Add(Value::MakeInt(5), R(0));
  idx.Add(Value::MakeInt(5), R(0));
  EXPECT_EQ(idx.size(), 1u);
}

TEST(HashIndexTest, Remove) {
  HashIndex idx;
  idx.Add(Value::MakeInt(5), R(0));
  idx.Add(Value::MakeInt(5), R(1));
  EXPECT_TRUE(idx.Remove(Value::MakeInt(5), R(0)));
  EXPECT_FALSE(idx.Remove(Value::MakeInt(5), R(0)));
  EXPECT_FALSE(idx.Remove(Value::MakeInt(9), R(0)));
  EXPECT_EQ(idx.size(), 1u);
  EXPECT_FALSE(idx.ProbeAny(CompareOp::kEq, Value::MakeInt(9)));
  EXPECT_TRUE(idx.ProbeAny(CompareOp::kEq, Value::MakeInt(5)));
}

TEST(HashIndexTest, OrderingProbesFallBackToScan) {
  HashIndex idx;
  for (int i = 0; i < 10; ++i) {
    idx.Add(Value::MakeInt(i), R(static_cast<uint32_t>(i)));
  }
  // Stored v satisfies `v < 3` -> slots 0,1,2.
  std::vector<uint32_t> hits;
  idx.Probe(CompareOp::kLt, Value::MakeInt(3), [&](const Ref& r) {
    hits.push_back(r.slot);
    return true;
  });
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<uint32_t>{0, 1, 2}));

  hits.clear();
  idx.Probe(CompareOp::kNe, Value::MakeInt(4), [&](const Ref& r) {
    hits.push_back(r.slot);
    return true;
  });
  EXPECT_EQ(hits.size(), 9u);
}

TEST(HashIndexTest, ProbeEarlyStop) {
  HashIndex idx;
  for (int i = 0; i < 10; ++i) idx.Add(Value::MakeInt(1), R(static_cast<uint32_t>(i)));
  int count = 0;
  idx.Probe(CompareOp::kEq, Value::MakeInt(1), [&](const Ref&) {
    return ++count < 3;
  });
  EXPECT_EQ(count, 3);
}

TEST(HashIndexTest, ForEachEntryVisitsAll) {
  HashIndex idx;
  idx.Add(Value::MakeString("a"), R(0));
  idx.Add(Value::MakeString("b"), R(1));
  size_t count = 0;
  idx.ForEachEntry([&](const Value&, const Ref&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 2u);
}

TEST(HashIndexTest, RemoveToEmptyThenReAdd) {
  HashIndex idx;
  idx.Add(Value::MakeInt(5), R(0));
  idx.Add(Value::MakeInt(5), R(1));
  idx.Add(Value::MakeInt(7), R(2));
  ASSERT_EQ(idx.num_distinct_values(), 2u);
  ASSERT_TRUE(idx.Remove(Value::MakeInt(5), R(0)));
  EXPECT_EQ(idx.num_distinct_values(), 2u);
  ASSERT_TRUE(idx.Remove(Value::MakeInt(5), R(1)));
  // The emptied value is gone for every reader...
  EXPECT_EQ(idx.FindEqual(Value::MakeInt(5)), nullptr);
  EXPECT_FALSE(idx.ProbeAny(CompareOp::kEq, Value::MakeInt(5)));
  EXPECT_EQ(idx.num_distinct_values(), 1u);
  EXPECT_EQ(idx.size(), 1u);
  EXPECT_FALSE(idx.Remove(Value::MakeInt(5), R(1)));
  std::vector<uint32_t> visited;
  idx.ForEachEntry([&](const Value&, const Ref& r) {
    visited.push_back(r.slot);
    return true;
  });
  EXPECT_EQ(visited, (std::vector<uint32_t>{2}));
  // ...and a re-Add revives it.
  idx.Add(Value::MakeInt(5), R(3));
  ASSERT_NE(idx.FindEqual(Value::MakeInt(5)), nullptr);
  EXPECT_EQ(*idx.FindEqual(Value::MakeInt(5)), (std::vector<Ref>{R(3)}));
  EXPECT_EQ(idx.num_distinct_values(), 2u);
  EXPECT_EQ(idx.size(), 2u);
}

TEST(HashIndexTest, ScansVisitValuesInFirstInsertionOrder) {
  HashIndex idx;
  // Values first seen in the order 30, 10, 20, 40; 10 gains a second ref
  // after 20 arrived, and 20 is emptied and revived in place.
  idx.Add(Value::MakeInt(30), R(0));
  idx.Add(Value::MakeInt(10), R(1));
  idx.Add(Value::MakeInt(20), R(2));
  idx.Add(Value::MakeInt(10), R(3));
  idx.Add(Value::MakeInt(40), R(4));
  ASSERT_TRUE(idx.Remove(Value::MakeInt(20), R(2)));
  idx.Add(Value::MakeInt(20), R(5));

  std::vector<std::pair<int64_t, uint32_t>> entries;
  idx.ForEachEntry([&](const Value& v, const Ref& r) {
    entries.emplace_back(v.AsInt(), r.slot);
    return true;
  });
  EXPECT_EQ(entries, (std::vector<std::pair<int64_t, uint32_t>>{
                         {30, 0}, {10, 1}, {10, 3}, {20, 5}, {40, 4}}));

  auto probe = [&](CompareOp op, int64_t x) {
    std::vector<uint32_t> hits;
    idx.Probe(op, Value::MakeInt(x), [&](const Ref& r) {
      hits.push_back(r.slot);
      return true;
    });
    return hits;
  };
  EXPECT_EQ(probe(CompareOp::kNe, 20), (std::vector<uint32_t>{0, 1, 3, 4}));
  EXPECT_EQ(probe(CompareOp::kLt, 35), (std::vector<uint32_t>{0, 1, 3, 5}));
  EXPECT_EQ(probe(CompareOp::kGe, 20), (std::vector<uint32_t>{0, 5, 4}));
}

TEST(HashIndexTest, StringKeys) {
  HashIndex idx;
  idx.Add(Value::MakeString("alpha"), R(0));
  idx.Add(Value::MakeString("beta"), R(1));
  EXPECT_TRUE(idx.ProbeAny(CompareOp::kEq, Value::MakeString("alpha")));
  EXPECT_FALSE(idx.ProbeAny(CompareOp::kEq, Value::MakeString("gamma")));
}

// ------------------------------------------- both index kinds: ref lists

template <typename Index>
class RefListTest : public ::testing::Test {
 protected:
  // Fanout 4 makes the B-tree split early, so lookups cross many leaves.
  static Index Make() {
    if constexpr (std::is_same_v<Index, BTreeIndex>) {
      return BTreeIndex("btree", 4);
    } else {
      return Index();
    }
  }

  static std::vector<uint32_t> Slots(const ComponentIndex& idx, int64_t v) {
    std::vector<uint32_t> out;
    if (const std::vector<Ref>* refs = idx.FindEqual(Value::MakeInt(v))) {
      for (const Ref& r : *refs) out.push_back(r.slot);
    }
    return out;
  }
};

using IndexKinds = ::testing::Types<HashIndex, BTreeIndex>;
TYPED_TEST_SUITE(RefListTest, IndexKinds);

TYPED_TEST(RefListTest, AscendingAddsKeepOrderAndCollapseRepeats) {
  TypeParam idx = TestFixture::Make();
  // A collection pass: ascending slots over few values, with re-adds of
  // the current and of an earlier ref mixed in.
  for (uint32_t i = 0; i < 1000; ++i) {
    idx.Add(Value::MakeInt(i % 5), R(i));
    idx.Add(Value::MakeInt(i % 5), R(i));
    if (i >= 5) idx.Add(Value::MakeInt(i % 5), R(i - 5));
  }
  EXPECT_EQ(idx.size(), 1000u);
  for (int64_t v = 0; v < 5; ++v) {
    std::vector<uint32_t> expected;
    for (uint32_t i = static_cast<uint32_t>(v); i < 1000; i += 5) {
      expected.push_back(i);
    }
    EXPECT_EQ(TestFixture::Slots(idx, v), expected);
  }
}

TYPED_TEST(RefListTest, OutOfOrderAddsCollapse) {
  TypeParam idx = TestFixture::Make();
  for (uint32_t slot : {5u, 2u, 5u, 9u, 2u, 7u, 9u, 5u}) {
    idx.Add(Value::MakeInt(1), R(slot));
  }
  EXPECT_EQ(idx.size(), 4u);
  EXPECT_EQ(TestFixture::Slots(idx, 1), (std::vector<uint32_t>{5, 2, 9, 7}));
}

TYPED_TEST(RefListTest, RetriedPassCollapsesThenAppends) {
  TypeParam idx = TestFixture::Make();
  for (uint32_t i = 0; i < 100; ++i) idx.Add(Value::MakeInt(0), R(i));
  for (uint32_t i = 0; i < 150; ++i) idx.Add(Value::MakeInt(0), R(i));
  std::vector<uint32_t> expected;
  for (uint32_t i = 0; i < 150; ++i) expected.push_back(i);
  EXPECT_EQ(TestFixture::Slots(idx, 0), expected);
  EXPECT_EQ(idx.size(), 150u);
}

TYPED_TEST(RefListTest, SlotReuseAfterRemove) {
  // Permanent-index maintenance: slot 5 is deleted and reused with a new
  // generation, which lands after the larger slot 9.
  TypeParam idx = TestFixture::Make();
  for (uint32_t slot : {1u, 5u, 9u}) idx.Add(Value::MakeInt(3), R(slot));
  ASSERT_TRUE(idx.Remove(Value::MakeInt(3), R(5)));
  const Ref reused{1, 5, 2};
  idx.Add(Value::MakeInt(3), reused);
  idx.Add(Value::MakeInt(3), R(7));
  idx.Add(Value::MakeInt(3), R(9));    // duplicate behind an out-of-order ref
  idx.Add(Value::MakeInt(3), reused);  // duplicate
  idx.Add(Value::MakeInt(3), R(1));    // duplicate
  EXPECT_EQ(TestFixture::Slots(idx, 3), (std::vector<uint32_t>{1, 9, 5, 7}));
  EXPECT_EQ(idx.size(), 4u);
  EXPECT_EQ((*idx.FindEqual(Value::MakeInt(3)))[2], reused);
}

TYPED_TEST(RefListTest, FindEqualMatchesEqualityProbe) {
  TypeParam idx = TestFixture::Make();
  for (uint32_t i = 0; i < 600; ++i) {
    idx.Add(Value::MakeInt((i * 7) % 97), R(i));
  }
  for (int64_t v = -1; v <= 97; ++v) {
    std::vector<uint32_t> probed;
    idx.Probe(CompareOp::kEq, Value::MakeInt(v), [&](const Ref& r) {
      probed.push_back(r.slot);
      return true;
    });
    EXPECT_EQ(TestFixture::Slots(idx, v), probed) << "value " << v;
    EXPECT_EQ(idx.FindEqual(Value::MakeInt(v)) != nullptr, !probed.empty());
    EXPECT_EQ(idx.ProbeAny(CompareOp::kEq, Value::MakeInt(v)),
              !probed.empty());
  }
}

TYPED_TEST(RefListTest, FindEqualAfterAllRefsRemoved) {
  TypeParam idx = TestFixture::Make();
  idx.Add(Value::MakeInt(4), R(1));
  idx.Add(Value::MakeInt(4), R(2));
  ASSERT_TRUE(idx.Remove(Value::MakeInt(4), R(1)));
  ASSERT_TRUE(idx.Remove(Value::MakeInt(4), R(2)));
  EXPECT_EQ(idx.FindEqual(Value::MakeInt(4)), nullptr);
  EXPECT_FALSE(idx.ProbeAny(CompareOp::kEq, Value::MakeInt(4)));
  idx.Add(Value::MakeInt(4), R(2));
  idx.Add(Value::MakeInt(4), R(1));
  EXPECT_EQ(TestFixture::Slots(idx, 4), (std::vector<uint32_t>{2, 1}));
}

}  // namespace
}  // namespace pascalr
