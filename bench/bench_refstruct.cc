// Reference-relation algebra micro-benchmarks: the combination-phase
// operators of §3.3 (natural join, product extension, union, projection),
// plus the kernels under them — RefRelation's dedup insert, the join-key
// table's build and probe, and index builds over few distinct values.
// A kernel trajectory, not gated.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"  // shared main(): BENCH_*.json reporter

#include "index/btree_index.h"
#include "index/hash_index.h"
#include "refstruct/ops.h"

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

}  // namespace
}  // namespace pascalr
