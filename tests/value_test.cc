#include "value/value.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "pascalr/sample_db.h"
#include "refstruct/flat_hash.h"
#include "value/tuple.h"
#include "value/type.h"

namespace pascalr {
namespace {

/// Longest probe walk the hash-quality tests tolerate at half load.
constexpr size_t kMaxProbeBound = 64;

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_TRUE(Value::MakeInt(3).is_int());
  EXPECT_EQ(Value::MakeInt(3).AsInt(), 3);
  EXPECT_TRUE(Value::MakeString("x").is_string());
  EXPECT_EQ(Value::MakeString("x").AsString(), "x");
  EXPECT_TRUE(Value::MakeBool(true).is_bool());
  EXPECT_TRUE(Value::MakeBool(true).AsBool());
  EXPECT_TRUE(Value::MakeEnum(2).is_enum());
  EXPECT_EQ(Value::MakeEnum(2).AsEnumOrdinal(), 2);
}

TEST(ValueTest, IntOrdering) {
  EXPECT_LT(Value::MakeInt(1).Compare(Value::MakeInt(2)), 0);
  EXPECT_GT(Value::MakeInt(5).Compare(Value::MakeInt(-5)), 0);
  EXPECT_EQ(Value::MakeInt(7).Compare(Value::MakeInt(7)), 0);
}

TEST(ValueTest, StringOrderingIsLexicographic) {
  EXPECT_LT(Value::MakeString("abc").Compare(Value::MakeString("abd")), 0);
  EXPECT_LT(Value::MakeString("ab").Compare(Value::MakeString("abc")), 0);
  EXPECT_EQ(Value::MakeString("").Compare(Value::MakeString("")), 0);
}

TEST(ValueTest, EnumOrderingFollowsDeclarationOrder) {
  // freshman(0) < sophomore(1) < junior(2) < senior(3): the paper compares
  // `c.clevel <= sophomore`.
  EXPECT_TRUE(
      Value::MakeEnum(0).Satisfies(CompareOp::kLe, Value::MakeEnum(1)));
  EXPECT_TRUE(
      Value::MakeEnum(1).Satisfies(CompareOp::kLe, Value::MakeEnum(1)));
  EXPECT_FALSE(
      Value::MakeEnum(2).Satisfies(CompareOp::kLe, Value::MakeEnum(1)));
}

struct OpCase {
  CompareOp op;
  int lhs;
  int rhs;
  bool expected;
};

class CompareOpTest : public ::testing::TestWithParam<OpCase> {};

TEST_P(CompareOpTest, IntSemantics) {
  const OpCase& c = GetParam();
  EXPECT_EQ(Value::MakeInt(c.lhs).Satisfies(c.op, Value::MakeInt(c.rhs)),
            c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, CompareOpTest,
    ::testing::Values(
        OpCase{CompareOp::kEq, 3, 3, true}, OpCase{CompareOp::kEq, 3, 4, false},
        OpCase{CompareOp::kNe, 3, 4, true}, OpCase{CompareOp::kNe, 3, 3, false},
        OpCase{CompareOp::kLt, 3, 4, true}, OpCase{CompareOp::kLt, 4, 4, false},
        OpCase{CompareOp::kLe, 4, 4, true}, OpCase{CompareOp::kLe, 5, 4, false},
        OpCase{CompareOp::kGt, 5, 4, true}, OpCase{CompareOp::kGt, 4, 4, false},
        OpCase{CompareOp::kGe, 4, 4, true},
        OpCase{CompareOp::kGe, 3, 4, false}));

class OpAlgebraTest : public ::testing::TestWithParam<CompareOp> {};

TEST_P(OpAlgebraTest, NegateIsComplement) {
  CompareOp op = GetParam();
  for (int a = -2; a <= 2; ++a) {
    for (int b = -2; b <= 2; ++b) {
      Value va = Value::MakeInt(a), vb = Value::MakeInt(b);
      EXPECT_NE(va.Satisfies(op, vb), va.Satisfies(NegateOp(op), vb))
          << a << " " << b;
    }
  }
}

TEST_P(OpAlgebraTest, MirrorSwapsSides) {
  CompareOp op = GetParam();
  for (int a = -2; a <= 2; ++a) {
    for (int b = -2; b <= 2; ++b) {
      Value va = Value::MakeInt(a), vb = Value::MakeInt(b);
      EXPECT_EQ(va.Satisfies(op, vb), vb.Satisfies(MirrorOp(op), va))
          << a << " " << b;
    }
  }
}

TEST_P(OpAlgebraTest, NegateAndMirrorAreInvolutions) {
  CompareOp op = GetParam();
  EXPECT_EQ(NegateOp(NegateOp(op)), op);
  EXPECT_EQ(MirrorOp(MirrorOp(op)), op);
}

INSTANTIATE_TEST_SUITE_P(AllOps, OpAlgebraTest,
                         ::testing::Values(CompareOp::kEq, CompareOp::kNe,
                                           CompareOp::kLt, CompareOp::kLe,
                                           CompareOp::kGt, CompareOp::kGe));

TEST(ValueTest, HashEqualValuesAgree) {
  EXPECT_EQ(Value::MakeInt(42).Hash(), Value::MakeInt(42).Hash());
  EXPECT_EQ(Value::MakeString("ab").Hash(), Value::MakeString("ab").Hash());
  // Different kinds holding the "same" bits must not collide by identity.
  EXPECT_NE(Value::MakeInt(1).Hash(), Value::MakeBool(true).Hash());
  EXPECT_NE(Value::MakeInt(0).Hash(), Value::MakeEnum(0).Hash());
}

// ------------------------------------------------------------ hash quality

TEST(ValueHashQualityTest, IntsHashToDistinctValues) {
  std::vector<uint64_t> hashes;
  for (int64_t i = 1; i <= 100000; ++i) {
    hashes.push_back(Value::MakeInt(i).Hash());
  }
  std::sort(hashes.begin(), hashes.end());
  EXPECT_EQ(std::adjacent_find(hashes.begin(), hashes.end()), hashes.end());
}

TEST(ValueHashQualityTest, KindsWithTheSameRawBitsHashApart) {
  for (int32_t raw = 0; raw <= 1000; ++raw) {
    EXPECT_NE(Value::MakeInt(raw).Hash(), Value::MakeEnum(raw).Hash()) << raw;
  }
  for (bool b : {false, true}) {
    const int32_t raw = b ? 1 : 0;
    EXPECT_NE(Value::MakeBool(b).Hash(), Value::MakeInt(raw).Hash()) << b;
    EXPECT_NE(Value::MakeBool(b).Hash(), Value::MakeEnum(raw).Hash()) << b;
  }
}

/// Longest FlatHashTable probe over the <tenr, tcnr, tday> keys of the
/// timetable relation (its Figure 1 key), hashed the way the reference
/// structures and the result dedup fold component hashes.
size_t MaxTimetableKeyProbe(const Database& db) {
  FlatHashTable table;
  std::vector<Tuple> keys;
  db.FindRelation("timetable")->Scan([&](const Ref&, const Tuple& t) {
    Tuple key{t.at(0), t.at(1), t.at(2)};
    const bool inserted =
        table
            .FindOrInsert(key.Hash(),
                          [&](uint32_t pos) { return keys[pos] == key; })
            .second;
    EXPECT_TRUE(inserted) << "duplicate key " << key.ToString();
    keys.push_back(std::move(key));
    return true;
  });
  return table.MaxProbeLength();
}

TEST(ValueHashQualityTest, TimetableKeysProbeShort) {
  Database small;
  ASSERT_TRUE(CreateUniversitySchema(&small).ok());
  ASSERT_TRUE(PopulateSmallExample(&small).ok());
  EXPECT_LE(MaxTimetableKeyProbe(small), 4u);

  // The synthetic generator at n = 10000 (timetable 30000 rows): small
  // dense integer ranges and a five-valued enum in one composite key.
  Database scaled;
  ASSERT_TRUE(CreateUniversitySchema(&scaled).ok());
  UniversityScale scale;
  scale.employees = 10000;
  scale.papers = 0;
  scale.courses = 5000;
  scale.timetable = 30000;
  ASSERT_TRUE(PopulateSynthetic(&scaled, scale).ok());
  ASSERT_EQ(scaled.FindRelation("timetable")->cardinality(), 30000u);
  EXPECT_LE(MaxTimetableKeyProbe(scaled), kMaxProbeBound);

  // Every key of a dense grid: 200 employees x 60 courses x 5 days.
  FlatHashTable grid;
  uint32_t n = 0;
  for (int64_t e = 1; e <= 200; ++e) {
    for (int64_t c = 1; c <= 60; ++c) {
      for (int32_t d = 0; d < 5; ++d) {
        const Tuple key{Value::MakeInt(e), Value::MakeInt(c),
                        Value::MakeEnum(d)};
        // Keys are distinct by construction; only the probe walk matters.
        grid.FindOrInsert(key.Hash(), [](uint32_t) { return false; });
        ++n;
      }
    }
  }
  ASSERT_EQ(grid.size(), n);
  EXPECT_LE(grid.MaxProbeLength(), kMaxProbeBound);
}

TEST(ValueTest, ToStringFormats) {
  EXPECT_EQ(Value::MakeInt(-3).ToString(), "-3");
  EXPECT_EQ(Value::MakeString("hi").ToString(), "'hi'");
  EXPECT_EQ(Value::MakeBool(false).ToString(), "false");
  EXPECT_EQ(Value::MakeEnum(2).ToString(), "#2");
}

TEST(ValueTest, ToStringTypedUsesEnumLabels) {
  auto info = MakeEnum("statustype",
                       {"student", "technician", "assistant", "professor"});
  Type t = Type::Enum(info);
  EXPECT_EQ(Value::MakeEnum(3).ToStringTyped(t), "professor");
  EXPECT_EQ(Value::MakeEnum(0).ToStringTyped(t), "student");
  // Out-of-range ordinals fall back to raw rendering.
  EXPECT_EQ(Value::MakeEnum(9).ToStringTyped(t), "#9");
  // Non-enum values ignore the type hint.
  EXPECT_EQ(Value::MakeInt(5).ToStringTyped(t), "5");
}

TEST(TypeTest, ToStringAndCompatibility) {
  EXPECT_EQ(Type::Int().ToString(), "integer");
  EXPECT_EQ(Type::IntRange(1900, 1999).ToString(), "1900..1999");
  EXPECT_EQ(Type::String(10).ToString(), "string[10]");
  EXPECT_EQ(Type::Bool().ToString(), "boolean");

  auto a = MakeEnum("a", {"x", "y"});
  auto b = MakeEnum("b", {"x", "y"});
  auto c = MakeEnum("c", {"x", "z"});
  EXPECT_TRUE(Type::Enum(a).CompatibleWith(Type::Enum(a)));
  // Structurally identical labels are comparable even across names.
  EXPECT_TRUE(Type::Enum(a).CompatibleWith(Type::Enum(b)));
  EXPECT_FALSE(Type::Enum(a).CompatibleWith(Type::Enum(c)));
  EXPECT_FALSE(Type::Int().CompatibleWith(Type::String()));
  // Subranges of the same kind stay comparable.
  EXPECT_TRUE(Type::IntRange(1, 9).CompatibleWith(Type::Int()));
}

TEST(TypeTest, EnumOrdinalLookup) {
  auto info = MakeEnum("day", {"mon", "tue", "wed"});
  EXPECT_EQ(info->OrdinalOf("mon"), 0);
  EXPECT_EQ(info->OrdinalOf("wed"), 2);
  EXPECT_EQ(info->OrdinalOf("sun"), -1);
}

}  // namespace
}  // namespace pascalr
