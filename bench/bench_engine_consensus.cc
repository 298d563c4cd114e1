// Copyright 2026 The ConsensusDB Authors
//
// Thread scaling of the engine's newly parallelized consensus paths: the
// MedianTopKSymDiff stratum search, the footrule / intersection Hungarian
// cost-column builds, set consensus with chunked marginal folds, and the
// batched query API. Every path is schedule-deterministic, so these runs
// double as a determinism smoke check: thread count changes wall-clock only
// (on multi-core hosts; a 1-core container shows flat curves).

#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "engine/engine.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

AndXorTree MakeDeepTree(int num_keys) {
  Rng rng(29);
  RandomTreeOptions opts;
  opts.num_keys = num_keys;
  opts.max_depth = 3;
  opts.max_alternatives = 2;
  return *RandomAndXorTree(opts, &rng);
}

Engine MakeEngine(int threads) {
  EngineOptions opts;
  opts.num_threads = threads;
  return Engine(opts);
}

// The stratum-parallel Theorem 4 search (one DP per distinct score).
void BM_EngineMedianSymDiff(benchmark::State& state) {
  AndXorTree tree = MakeDeepTree(static_cast<int>(state.range(0)));
  Engine engine = MakeEngine(static_cast<int>(state.range(1)));
  const int k = 8;
  for (auto _ : state) {
    auto result = engine.ConsensusTopK(tree, k, TopKMetric::kSymDiff,
                                       TopKAnswer::kMedian);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_EngineMedianSymDiff)
    ->Args({40, 1})
    ->Args({40, 2})
    ->Args({40, 4})
    ->Args({40, 8});

// Per-candidate cost columns + Hungarian solve.
void BM_EngineFootrule(benchmark::State& state) {
  AndXorTree tree = MakeDeepTree(static_cast<int>(state.range(0)));
  Engine engine = MakeEngine(static_cast<int>(state.range(1)));
  const int k = 10;
  for (auto _ : state) {
    auto result = engine.ConsensusTopK(tree, k, TopKMetric::kFootrule);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_EngineFootrule)
    ->Args({60, 1})
    ->Args({60, 2})
    ->Args({60, 4})
    ->Args({60, 8});

// Footrule columns + the answer's q columns ((n-1)·k cells) + d_K
// re-score. Args: keys n, k, threads; the two (n, k) shapes show the
// cells growing with n·k rather than n^2.
void BM_EngineKendall(benchmark::State& state) {
  AndXorTree tree = MakeDeepTree(static_cast<int>(state.range(0)));
  const int k = static_cast<int>(state.range(1));
  Engine engine = MakeEngine(static_cast<int>(state.range(2)));
  for (auto _ : state) {
    auto result = engine.ConsensusTopK(tree, k, TopKMetric::kKendall);
    benchmark::DoNotOptimize(result);
  }
  state.counters["q_cells"] = benchmark::Counter(
      static_cast<double>(engine.obs_counters().kendall_q_cells),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_EngineKendall)
    ->ArgsProduct({{20}, {5}, {1, 2, 4, 8}})
    ->ArgsProduct({{100}, {10}, {1, 2, 4, 8}});

// The marginal pass (one FlatTree::Compile) feeding the sequential
// min-cost DP and the expected-distance sum. Not a parallel path: the
// thread-count args show it stays flat.
void BM_EngineSetConsensus(benchmark::State& state) {
  AndXorTree tree = MakeDeepTree(200);
  Engine engine = MakeEngine(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto world = engine.ConsensusWorldWithMarginals(
        tree, engine.LeafMarginals(tree), /*median=*/true);
    benchmark::DoNotOptimize(world);
  }
}
BENCHMARK(BM_EngineSetConsensus)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Whole-query fan-out: all four metrics x several k in one submission.
void BM_EngineConsensusBatch(benchmark::State& state) {
  AndXorTree tree = MakeDeepTree(30);
  Engine engine = MakeEngine(static_cast<int>(state.range(0)));
  std::vector<Engine::ConsensusQuery> queries;
  for (int k : {2, 4, 8}) {
    for (TopKMetric metric :
         {TopKMetric::kSymDiff, TopKMetric::kIntersection,
          TopKMetric::kFootrule, TopKMetric::kKendall}) {
      queries.push_back({&tree, k, metric, TopKAnswer::kMean});
    }
  }
  for (auto _ : state) {
    auto results = engine.EvaluateConsensusBatch(queries);
    benchmark::DoNotOptimize(results);
  }
}
BENCHMARK(BM_EngineConsensusBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace
}  // namespace cpdb

BENCHMARK_MAIN();
