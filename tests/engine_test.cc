// Copyright 2026 The ConsensusDB Authors
//
// Tests for the thread pool and the parallel evaluation engine: full index
// coverage, schedule determinism (bitwise-identical results for any thread
// count) and parity with the sequential core functions.

#include "engine/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/rank_distribution.h"
#include "core/set_consensus.h"
#include "core/topk_footrule.h"
#include "core/topk_intersection.h"
#include "core/topk_kendall.h"
#include "core/topk_symdiff.h"
#include "model/builders.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

AndXorTree RandomDeepTree(uint64_t seed, int num_keys = 8) {
  Rng rng(seed);
  RandomTreeOptions opts;
  opts.num_keys = num_keys;
  opts.max_depth = 3;
  opts.max_alternatives = 2;
  auto tree = RandomAndXorTree(opts, &rng);
  EXPECT_TRUE(tree.ok());
  return *std::move(tree);
}

AndXorTree RandomBidTree(uint64_t seed, int num_keys = 10) {
  Rng rng(seed);
  RandomTreeOptions opts;
  opts.num_keys = num_keys;
  opts.max_alternatives = 3;
  auto tree = RandomBid(opts, &rng);
  EXPECT_TRUE(tree.ok());
  return *std::move(tree);
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexOnce) {
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    const int64_t n = 10000;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    pool.ParallelFor(n, [&](int64_t i) { hits[i].fetch_add(1); });
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ThreadPoolTest, AbsurdThreadCountIsClampedNotFatal) {
  ThreadPool pool(1000000);
  EXPECT_EQ(pool.num_threads(), ThreadPool::kMaxThreads);
  std::atomic<int> count{0};
  pool.ParallelFor(1000, [&](int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, ParallelForHandlesEmptyAndTinyRanges) {
  ThreadPool pool(4);
  pool.ParallelFor(0, [](int64_t) { FAIL() << "body called for n = 0"; });
  std::atomic<int> count{0};
  pool.ParallelFor(1, [&](int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, SubmitRunsEveryTask) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&] { count.fetch_add(1); });
    }
    // Destructor drains the queue before joining.
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.ParallelFor(8, [&](int64_t) {
    pool.ParallelFor(8, [&](int64_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 64);
}

// ---------------------------------------------------------------------------
// Engine — determinism and parity of the exact paths
// ---------------------------------------------------------------------------

// The parallel rank distribution must match the sequential core function
// bitwise, for every thread count (the merge replays the same accumulation
// order).
TEST(EngineTest, RankDistributionBitwiseEqualAcrossThreadCounts) {
  const int k = 5;
  for (uint64_t seed : {1u, 2u, 3u}) {
    AndXorTree tree = RandomDeepTree(seed);
    RankDistribution expected = ComputeRankDistribution(tree, k);
    for (int threads : {1, 2, 4, 8}) {
      EngineOptions opts;
      opts.num_threads = threads;
      Engine engine(opts);
      RankDistribution dist = engine.ComputeRankDistribution(tree, k);
      ASSERT_EQ(dist.keys(), expected.keys());
      for (KeyId key : expected.keys()) {
        for (int i = 1; i <= k; ++i) {
          // Bitwise equality, not EXPECT_NEAR: the parallel path must be
          // indistinguishable from the sequential one.
          ASSERT_EQ(dist.PrRankEq(key, i), expected.PrRankEq(key, i))
              << "seed " << seed << " threads " << threads << " key " << key
              << " rank " << i;
          ASSERT_EQ(dist.PrRankLe(key, i), expected.PrRankLe(key, i));
        }
      }
    }
  }
}

TEST(EngineTest, RankDistributionUsesFastBidPathByDefault) {
  const int k = 4;
  AndXorTree tree = RandomBidTree(7);
  EngineOptions opts;
  opts.num_threads = 4;
  Engine engine(opts);
  RankDistribution dist = engine.ComputeRankDistribution(tree, k);
  // The fast path and the general path agree analytically; check against
  // the sequential general-path computation to a tight tolerance.
  RankDistribution general = ComputeRankDistribution(tree, k);
  for (KeyId key : general.keys()) {
    for (int i = 1; i <= k; ++i) {
      EXPECT_NEAR(dist.PrRankEq(key, i), general.PrRankEq(key, i), 1e-9);
    }
  }
}

TEST(EngineTest, ConsensusTopKMatchesDirectCoreCalls) {
  const int k = 3;
  AndXorTree tree = RandomDeepTree(13);
  RankDistribution dist = ComputeRankDistribution(tree, k);
  EngineOptions opts;
  opts.num_threads = 4;
  Engine engine(opts);

  auto mean_sym = engine.ConsensusTopK(tree, k, TopKMetric::kSymDiff);
  ASSERT_TRUE(mean_sym.ok());
  EXPECT_EQ(mean_sym->keys, MeanTopKSymDiff(dist).keys);

  auto median_sym =
      engine.ConsensusTopK(tree, k, TopKMetric::kSymDiff, TopKAnswer::kMedian);
  ASSERT_TRUE(median_sym.ok());
  auto median_direct = MedianTopKSymDiff(tree, dist);
  ASSERT_TRUE(median_direct.ok());
  EXPECT_EQ(median_sym->keys, median_direct->keys);

  auto mean_foot = engine.ConsensusTopK(tree, k, TopKMetric::kFootrule);
  ASSERT_TRUE(mean_foot.ok());
  auto foot_direct = MeanTopKFootrule(dist);
  ASSERT_TRUE(foot_direct.ok());
  EXPECT_EQ(mean_foot->keys, foot_direct->keys);

  auto approx_int = engine.ConsensusTopK(tree, k, TopKMetric::kIntersection,
                                         TopKAnswer::kMeanApprox);
  ASSERT_TRUE(approx_int.ok());
  EXPECT_EQ(approx_int->keys, MeanTopKIntersectionApprox(dist).keys);
}

// The engine's kendall path takes the footrule answer first, folds only
// the q columns of that answer in parallel and feeds them to
// KendallEvaluator::Create; keys and expected distance must match the
// full-matrix sequential evaluator bitwise, on deep and BID trees, for
// every k from 1 past n (where both reject with the same code) and any
// thread count. The reference rank distribution is the engine's own, so a
// BID tree's fast path feeds both sides alike.
TEST(EngineTest, KendallConsensusMatchesSequentialEvaluator) {
  std::vector<std::unique_ptr<Engine>> engines;
  for (int threads : {1, 2, 4, 8}) {
    EngineOptions opts;
    opts.num_threads = threads;
    engines.push_back(std::make_unique<Engine>(opts));
  }
  for (uint64_t seed : {41u, 42u, 43u}) {
    for (int n : {3, 7, 12, 20}) {
      for (bool bid : {false, true}) {
        AndXorTree tree =
            bid ? RandomBidTree(seed, n) : RandomDeepTree(seed, n);
        const int num_keys = static_cast<int>(tree.Keys().size());
        for (int k : {1, 2, 4, 9, num_keys, num_keys + 1}) {
          RankDistribution dist = engines[0]->ComputeRankDistribution(tree, k);
          KendallEvaluator evaluator(tree, k);
          auto direct = MeanTopKKendallViaFootrule(evaluator, dist);
          for (const auto& engine : engines) {
            auto got = engine->ConsensusTopK(tree, k, TopKMetric::kKendall);
            const std::string where =
                "seed " + std::to_string(seed) + " n " + std::to_string(n) +
                (bid ? " bid" : " deep") + " k " + std::to_string(k) +
                " threads " + std::to_string(engine->num_threads());
            ASSERT_EQ(got.status().code(), direct.status().code()) << where;
            if (!direct.ok()) continue;
            EXPECT_EQ(got->keys, direct->keys) << where;
            EXPECT_EQ(got->expected_distance, direct->expected_distance)
                << where;
          }
        }
      }
    }
  }
}

// The q-cell work counter: one Kendall query over n keys folds exactly the
// (n-1)·k cells of its answer's columns, and a k > n query, which the
// footrule answer rejects, folds none.
TEST(EngineTest, KendallQCellsCountsAnswerColumnsOnly) {
  AndXorTree tree = RandomDeepTree(53, 9);
  const int64_t n = static_cast<int64_t>(tree.Keys().size());
  for (int threads : {1, 3}) {
    EngineOptions opts;
    opts.num_threads = threads;
    Engine engine(opts);
    EXPECT_EQ(engine.obs_counters().kendall_q_cells, 0);
    ASSERT_TRUE(engine.ConsensusTopK(tree, 4, TopKMetric::kKendall).ok());
    EXPECT_EQ(engine.obs_counters().kendall_q_cells, (n - 1) * 4);
    EXPECT_EQ(engine
                  .ConsensusTopK(tree, static_cast<int>(n) + 1,
                                 TopKMetric::kKendall)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(engine.obs_counters().kendall_q_cells, (n - 1) * 4);
    // Other metrics fold no q cell.
    ASSERT_TRUE(engine.ConsensusTopK(tree, 4, TopKMetric::kFootrule).ok());
    EXPECT_EQ(engine.obs_counters().kendall_q_cells, (n - 1) * 4);
  }
}

// The parallel Theorem 4 stratum search must reproduce the sequential
// MedianTopKSymDiff bitwise — same answer keys and same expected distance —
// for every thread count.
TEST(EngineTest, MedianSymDiffBitwiseAcrossThreadCounts) {
  const int k = 3;
  for (uint64_t seed : {3u, 43u, 47u}) {
    AndXorTree tree = RandomDeepTree(seed);
    RankDistribution dist = ComputeRankDistribution(tree, k);
    auto direct = MedianTopKSymDiff(tree, dist);
    ASSERT_TRUE(direct.ok());
    for (int threads : {1, 2, 4, 8}) {
      EngineOptions opts;
      opts.num_threads = threads;
      Engine engine(opts);
      auto got = engine.ConsensusTopK(tree, k, TopKMetric::kSymDiff,
                                      TopKAnswer::kMedian);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(got->keys, direct->keys)
          << "seed " << seed << " threads " << threads;
      ASSERT_EQ(got->expected_distance, direct->expected_distance);
    }
  }
}

// Footrule and intersection-exact fan per-candidate Hungarian cost/profit
// columns across the pool; both must match the sequential core bitwise for
// every thread count.
TEST(EngineTest, AssignmentMetricsBitwiseAcrossThreadCounts) {
  const int k = 3;
  for (uint64_t seed : {5u, 53u}) {
    AndXorTree tree = RandomDeepTree(seed);
    RankDistribution dist = ComputeRankDistribution(tree, k);
    auto foot_direct = MeanTopKFootrule(dist);
    auto int_direct = MeanTopKIntersectionExact(dist);
    ASSERT_TRUE(foot_direct.ok());
    ASSERT_TRUE(int_direct.ok());
    for (int threads : {1, 2, 4, 8}) {
      EngineOptions opts;
      opts.num_threads = threads;
      Engine engine(opts);
      auto foot = engine.ConsensusTopK(tree, k, TopKMetric::kFootrule);
      ASSERT_TRUE(foot.ok());
      ASSERT_EQ(foot->keys, foot_direct->keys)
          << "seed " << seed << " threads " << threads;
      ASSERT_EQ(foot->expected_distance, foot_direct->expected_distance);
      auto inter = engine.ConsensusTopK(tree, k, TopKMetric::kIntersection);
      ASSERT_TRUE(inter.ok());
      ASSERT_EQ(inter->keys, int_direct->keys)
          << "seed " << seed << " threads " << threads;
      ASSERT_EQ(inter->expected_distance, int_direct->expected_distance);
    }
  }
}

// The engine's set-consensus answers (marginals off the compiled leaf
// table, then the O(N) filter / DP) must match the sequential core bitwise
// for any thread count.
TEST(EngineTest, SetConsensusBitwiseAcrossThreadCounts) {
  for (uint64_t seed : {7u, 59u, 61u}) {
    AndXorTree tree = RandomDeepTree(seed);
    std::vector<NodeId> mean = MeanWorldSymDiff(tree);
    std::vector<NodeId> median = MedianWorldSymDiff(tree);
    double mean_expected = ExpectedSymDiffDistance(tree, mean);
    double median_expected = ExpectedSymDiffDistance(tree, median);
    for (int threads : {1, 2, 4, 8}) {
      EngineOptions opts;
      opts.num_threads = threads;
      Engine engine(opts);
      const std::vector<double> marginals = engine.LeafMarginals(tree);
      ASSERT_EQ(marginals, tree.LeafMarginals());
      auto mean_world =
          engine.ConsensusWorldWithMarginals(tree, marginals, false);
      ASSERT_TRUE(mean_world.ok());
      ASSERT_EQ(mean_world->leaf_ids, mean)
          << "seed " << seed << " threads " << threads;
      ASSERT_EQ(mean_world->expected_distance, mean_expected);
      auto median_world =
          engine.ConsensusWorldWithMarginals(tree, marginals, true);
      ASSERT_TRUE(median_world.ok());
      ASSERT_EQ(median_world->leaf_ids, median);
      ASSERT_EQ(median_world->expected_distance, median_expected);
    }
  }
}

// ---------------------------------------------------------------------------
// Engine — cache-aware entry point
// ---------------------------------------------------------------------------

// The cache-aware entry point: supplying the precomputed rank distribution
// must change nothing about the answer — bitwise — for every metric. This
// is the engine-level half of the serving layer's cache-parity guarantee.
TEST(EngineTest, ConsensusTopKWithDistMatchesFreshComputation) {
  const int k = 3;
  AndXorTree tree = RandomDeepTree(83);
  EngineOptions opts;
  opts.num_threads = 4;
  Engine engine(opts);
  RankDistribution dist = engine.ComputeRankDistribution(tree, k);
  for (TopKMetric metric :
       {TopKMetric::kSymDiff, TopKMetric::kIntersection, TopKMetric::kFootrule,
        TopKMetric::kKendall}) {
    auto fresh = engine.ConsensusTopK(tree, k, metric);
    auto cached = engine.ConsensusTopKWithDist(tree, dist, metric);
    ASSERT_TRUE(fresh.ok());
    ASSERT_TRUE(cached.ok());
    EXPECT_EQ(cached->keys, fresh->keys);
    EXPECT_EQ(cached->expected_distance, fresh->expected_distance);
  }
}

// A distribution computed for one tree must never be silently applied to
// another: the key sets differ, and the call fails instead of optimizing
// over the wrong statistics.
TEST(EngineTest, ConsensusTopKWithDistRejectsForeignDistribution) {
  AndXorTree tree = RandomDeepTree(91, 8);
  AndXorTree other = RandomDeepTree(93, 5);  // different key count
  EngineOptions opts;
  Engine engine(opts);
  RankDistribution foreign = engine.ComputeRankDistribution(other, 3);
  auto result =
      engine.ConsensusTopKWithDist(tree, foreign, TopKMetric::kSymDiff);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("different tree"),
            std::string::npos);
}

TEST(EngineTest, ConsensusTopKRejectsBadArguments) {
  AndXorTree tree = RandomDeepTree(17);
  Engine engine;
  EXPECT_FALSE(engine.ConsensusTopK(tree, 0, TopKMetric::kSymDiff).ok());
  EXPECT_FALSE(engine
                   .ConsensusTopK(tree, 3, TopKMetric::kFootrule,
                                  TopKAnswer::kMedian)
                   .ok());
  EXPECT_FALSE(engine
                   .ConsensusTopK(tree, 3, TopKMetric::kSymDiff,
                                  TopKAnswer::kMeanApprox)
                   .ok());
}

TEST(EngineTest, SetConsensusDelegatesToCore) {
  AndXorTree tree = RandomDeepTree(19);
  Engine engine;
  const std::vector<double> marginals = engine.LeafMarginals(tree);
  EXPECT_EQ(engine.ConsensusWorldWithMarginals(tree, marginals, false)
                ->leaf_ids,
            MeanWorldSymDiff(tree));
  EXPECT_EQ(engine.ConsensusWorldWithMarginals(tree, marginals, true)
                ->leaf_ids,
            MedianWorldSymDiff(tree));
}

}  // namespace
}  // namespace cpdb
