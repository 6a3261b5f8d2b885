// Reference-relation algebra micro-benchmarks: the combination-phase
// operators of §3.3 (natural join, product extension, union, projection),
// plus the kernels under them — RefRelation's dedup insert, the join-key
// table's build and probe, index builds over few distinct values, the
// indirect-join equality probe (HashIndex::FindEqual) and the quantifier
// value list's Add (§4.4). A kernel trajectory: wall time is not gated,
// but the FindEqual and ValueList kernels export deterministic
// probes/hits counters that tools/bench_compare.py checks against
// bench/baselines/BENCH_bench_refstruct.json.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"  // shared main(): BENCH_*.json reporter

#include "index/btree_index.h"
#include "base/str_util.h"
#include "index/hash_index.h"
#include "refstruct/ops.h"
#include "refstruct/value_list.h"

namespace pascalr {
namespace {

Ref R(RelationId rel, uint32_t slot) { return Ref{rel, slot, 1}; }

void BM_NaturalJoin(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  RefRelation left({"x", "y"});
  RefRelation right({"y", "z"});
  for (uint32_t i = 0; i < rows; ++i) {
    left.Add({R(1, i % 64), R(2, i)});
    right.Add({R(2, i), R(3, i % 32)});
  }
  for (auto _ : state) {
    ExecStats stats;
    RefRelation joined = NaturalJoin(left, right, &stats);
    benchmark::DoNotOptimize(joined.size());
  }
  state.counters["rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_NaturalJoin)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_CartesianExtension(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  size_t range = static_cast<size_t>(state.range(1));
  RefRelation base({"x"});
  for (uint32_t i = 0; i < rows; ++i) base.Add({R(1, i)});
  std::vector<Ref> refs;
  for (uint32_t i = 0; i < range; ++i) refs.push_back(R(2, i));
  for (auto _ : state) {
    ExecStats stats;
    RefRelation extended = ProductWithRefs(base, "y", refs, &stats);
    benchmark::DoNotOptimize(extended.size());
  }
}
BENCHMARK(BM_CartesianExtension)->Args({100, 100})->Args({100, 1000})->Args({1000, 100});

void BM_UnionRows(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  RefRelation a({"x", "y"});
  RefRelation b({"x", "y"});
  for (uint32_t i = 0; i < rows; ++i) {
    a.Add({R(1, i), R(2, i)});
    b.Add({R(1, i + static_cast<uint32_t>(rows) / 2), R(2, i)});  // 50% overlap
  }
  for (auto _ : state) {
    ExecStats stats;
    auto u = UnionRows(a, b, &stats);
    benchmark::DoNotOptimize(u->size());
  }
}
BENCHMARK(BM_UnionRows)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_Project(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  RefRelation a({"x", "y", "z"});
  for (uint32_t i = 0; i < rows; ++i) {
    a.Add({R(1, i % 64), R(2, i), R(3, i % 16)});
  }
  for (auto _ : state) {
    ExecStats stats;
    auto p = Project(a, {"x", "z"}, &stats);
    benchmark::DoNotOptimize(p->size());
  }
}
BENCHMARK(BM_Project)->Arg(1000)->Arg(10000)->Arg(100000);

/// RefRelation::Add over `rows` two-column rows, every fourth one a
/// repeat of an earlier row (the dedup path the collection phase takes).
void BM_RefRelationAdd(benchmark::State& state) {
  const auto rows = static_cast<uint32_t>(state.range(0));
  std::vector<RefRow> input;
  input.reserve(rows);
  for (uint32_t i = 0; i < rows; ++i) {
    const uint32_t k = i % 4 == 3 ? i / 2 : i;
    input.push_back({R(1, k), R(2, k % 97)});
  }
  for (auto _ : state) {
    RefRelation rel({"x", "y"});
    for (const RefRow& row : input) rel.Add(row);
    benchmark::DoNotOptimize(rel.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * rows);
}
BENCHMARK(BM_RefRelationAdd)->Arg(1000)->Arg(10000)->Arg(100000);

/// Builds the join-key table over `rows` rows with rows/8 distinct keys,
/// then walks the chain of every row's key — ProbeJoinIter's pattern.
void BM_JoinHashTableBuildProbe(benchmark::State& state) {
  const auto rows = static_cast<uint32_t>(state.range(0));
  RefRelation right({"y", "z"});
  for (uint32_t i = 0; i < rows; ++i) {
    right.Add({R(2, i % (rows / 8)), R(3, i)});
  }
  const std::vector<int> key = {0};
  for (auto _ : state) {
    JoinHashTable table = BuildJoinHashTable(right, key);
    size_t matches = 0;
    for (const RefRow& row : right.rows()) {
      matches += table.Find(JoinKeyHash(row, key)).size;
    }
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * rows);
}
BENCHMARK(BM_JoinHashTableBuildProbe)->Arg(1000)->Arg(10000)->Arg(100000);

/// Transient index build over `refs` ascending refs spread across
/// `values` distinct values — a collection pass over a low-cardinality
/// component (e.g. a day-of-week column).
template <typename Index>
void BM_IndexBuild(benchmark::State& state) {
  const auto refs = static_cast<uint32_t>(state.range(0));
  const auto values = static_cast<int64_t>(state.range(1));
  for (auto _ : state) {
    Index index;
    for (uint32_t i = 0; i < refs; ++i) {
      index.Add(Value::MakeInt(i % values), R(1, i));
    }
    benchmark::DoNotOptimize(index.size());
  }
}
BENCHMARK_TEMPLATE(BM_IndexBuild, HashIndex)
    ->Args({30000, 5})
    ->Args({30000, 1000})
    ->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_IndexBuild, BTreeIndex)
    ->Args({30000, 5})
    ->Args({30000, 1000})
    ->Unit(benchmark::kMillisecond);

Value IntKey(int64_t i) { return Value::MakeInt(i); }
Value StringKey(int64_t i) {
  return Value::MakeString(StrFormat("K%lld", static_cast<long long>(i)));
}

/// FindEqual against a HashIndex of `values` distinct keys (4 refs each),
/// probing 2 * `values` keys of which every other one is present — the
/// indirect join's `=` probe (§3.2). hits = probes that found refs.
void BM_HashIndexFindEqual(benchmark::State& state, Value (*key)(int64_t)) {
  const int64_t values = state.range(0);
  HashIndex index;
  for (int64_t i = 0; i < values; ++i) {
    for (uint32_t r = 0; r < 4; ++r) {
      index.Add(key(i), R(1, static_cast<uint32_t>(i) * 4 + r));
    }
  }
  std::vector<Value> probes;
  for (int64_t i = 0; i < 2 * values; ++i) {
    probes.push_back(key(i % 2 == 0 ? i / 2 : values + i));
  }
  size_t hits = 0;
  for (auto _ : state) {
    hits = 0;
    for (const Value& probe : probes) {
      if (index.FindEqual(probe) != nullptr) ++hits;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(probes.size()));
  state.counters["probes"] = static_cast<double>(probes.size());
  state.counters["hits"] = static_cast<double>(hits);
}
BENCHMARK_CAPTURE(BM_HashIndexFindEqual, int, IntKey)->Arg(10000);
BENCHMARK_CAPTURE(BM_HashIndexFindEqual, string, StringKey)->Arg(10000);

/// A pushed-down quantifier's value list (§4.4): `adds` Adds over
/// adds / 4 distinct ints in scrambled order, then 1024 probes of the
/// mode's own question — SOME = for kFull, SOME > for kMinOnly.
/// hits = probes answered true.
void BM_ValueListAdd(benchmark::State& state, ValueList::Mode mode) {
  const auto adds = static_cast<int64_t>(state.range(0));
  const CompareOp op =
      mode == ValueList::Mode::kFull ? CompareOp::kEq : CompareOp::kGt;
  std::vector<Value> input;
  for (int64_t i = 0; i < adds; ++i) {
    input.push_back(Value::MakeInt((i * 7919) % (adds / 4) + 1));
  }
  size_t hits = 0;
  for (auto _ : state) {
    ValueList list(mode);
    for (const Value& v : input) list.Add(v);
    hits = 0;
    for (int64_t x = 0; x < 1024; ++x) {
      Result<bool> some = list.SatisfiesSome(op, Value::MakeInt(x * 37));
      if (some.ok() && *some) ++hits;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * adds);
  state.counters["probes"] = 1024;
  state.counters["hits"] = static_cast<double>(hits);
}
BENCHMARK_CAPTURE(BM_ValueListAdd, full, ValueList::Mode::kFull)
    ->Arg(100000);
BENCHMARK_CAPTURE(BM_ValueListAdd, min, ValueList::Mode::kMinOnly)
    ->Arg(100000);

}  // namespace
}  // namespace pascalr
