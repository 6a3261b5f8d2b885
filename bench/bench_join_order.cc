// Join-order optimizer (src/joinorder/): DP-chosen join trees vs the
// executor's greedy smallest-first heuristic on generated multi-relation
// conjunctive queries, measured by ExecStats::TotalWork().
//
// Expected shape:
//  - `dp_total_work` <= `greedy_total_work` on every query of the batch
//    (the joinorder_test acceptance bar), with the gap widening as the
//    database grows and misordered intermediates get more expensive;
//  - the DP's own planning overhead stays flat in data size (the table is
//    2^inputs, independent of cardinalities);
//  - `trees_attached` records how often the DP actually overrode greedy.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "calculus/printer.h"
#include "joinorder/dp.h"
#include "tests/query_gen.h"

namespace pascalr {
namespace {

using bench_util::ExportStats;
using bench_util::MakeScaledDb;
using bench_util::MustRunOptions;
using testing_util::QueryGenerator;

/// The generated chain-query batch both configurations run.
std::vector<std::string> ChainBatch(size_t count) {
  std::vector<std::string> sources;
  for (uint64_t seed = 1; sources.size() < count; ++seed) {
    QueryGenerator gen(seed);
    SelectionExpr sel =
        gen.RandomChainSelection(/*joins=*/3 + seed % 3, /*filter_prob=*/0.6);
    sources.push_back(FormatSelection(sel));
  }
  return sources;
}

void BM_JoinOrder_ChainBatch(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  bool dp = state.range(1) != 0;
  auto db = MakeScaledDb(n);
  if (!db->AnalyzeAll().ok()) std::abort();
  std::vector<std::string> batch = ChainBatch(16);

  PlannerOptions options;
  options.level = OptLevel::kOneStep;
  options.join_order_dp = dp;

  uint64_t total_work = 0;
  uint64_t trees = 0;
  ExecStats last_stats;
  size_t last_result = 0;
  for (auto _ : state) {
    total_work = 0;
    trees = 0;
    for (const std::string& source : batch) {
      QueryRun run = MustRunOptions(*db, source, options);
      total_work += run.stats.TotalWork();
      for (const JoinTree& tree : run.planned.plan.join_trees) {
        trees += tree.empty() ? 0 : 1;
      }
      last_stats = run.stats;
      last_result = run.tuples.size();
    }
    benchmark::DoNotOptimize(total_work);
  }
  ExportStats(state, last_stats, last_result);
  state.counters[dp ? "dp_total_work" : "greedy_total_work"] =
      static_cast<double>(total_work);
  state.counters["trees_attached"] = static_cast<double>(trees);
}

BENCHMARK(BM_JoinOrder_ChainBatch)
    ->Args({32, 1})
    ->Args({32, 0})
    ->Args({96, 1})
    ->Args({96, 0})
    ->Args({256, 1})
    ->Args({256, 0})
    ->Unit(benchmark::kMillisecond);

// The optimizer's own cost: planning (not executing) a wide conjunction
// with the DP on vs off. Bushy enumeration is the stress case.
void BM_JoinOrder_PlanOnly(benchmark::State& state) {
  bool bushy = state.range(0) != 0;
  auto db = MakeScaledDb(64);
  if (!db->AnalyzeAll().ok()) std::abort();
  QueryGenerator gen(11);
  SelectionExpr sel = gen.RandomChainSelection(/*joins=*/6, 0.5);
  std::string source = FormatSelection(sel);

  Parser parser(source);
  Result<SelectionExpr> parsed = parser.ParseSelectionOnly();
  if (!parsed.ok()) std::abort();
  Binder binder(db.get());
  Result<BoundQuery> bound = binder.Bind(std::move(parsed).value());
  if (!bound.ok()) std::abort();

  PlannerOptions options;
  options.level = OptLevel::kOneStep;
  options.join_dp_bushy = bushy;
  for (auto _ : state) {
    Result<PlannedQuery> planned =
        PlanQuery(*db, CloneBoundQuery(*bound), options);
    if (!planned.ok()) std::abort();
    benchmark::DoNotOptimize(planned->plan.join_trees);
  }
}

BENCHMARK(BM_JoinOrder_PlanOnly)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

// The DP kernel alone (ChooseJoinOrder), left-deep, over n summaries shaped
// like plan structures: each binds one or two variables, chained into a
// path with a few extra edges (stars and cycles). A kernel trajectory, not
// gated: the table is 2^n, so n = 12 is the planner's budget.
void BM_ChooseJoinOrder(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::mt19937_64 rng(n);
  std::vector<EstRel> inputs(n);
  for (size_t i = 0; i < n; ++i) {
    EstRel& in = inputs[i];
    in.rows = static_cast<double>(1 + rng() % 5000);
    const std::string var = "v" + std::to_string(i);
    const std::string partner =
        "v" + std::to_string(i == 0 || rng() % 4 == 0 ? rng() % n : i - 1);
    in.distinct[var] = std::max(1.0, in.rows / (1 + rng() % 8));
    in.distinct[partner] = std::max(1.0, in.rows / (1 + rng() % 8));
  }
  JoinOrderOptions options;
  size_t explored = 0;
  for (auto _ : state) {
    JoinOrderDecision decision = ChooseJoinOrder(inputs, options);
    explored = decision.subsets_explored;
    benchmark::DoNotOptimize(decision.dp_cost);
  }
  state.counters["subsets_explored"] = static_cast<double>(explored);
}

BENCHMARK(BM_ChooseJoinOrder)
    ->Arg(4)
    ->Arg(8)
    ->Arg(12)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace pascalr
