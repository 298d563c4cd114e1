// Copyright 2026 The ConsensusDB Authors
//
// Section 5.2: mean Top-k (Theorem 3) and median Top-k (Theorem 4) under the
// normalized symmetric difference metric.

#include "core/topk_symdiff.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <set>

#include "common/rng.h"
#include "core/evaluation.h"
#include "engine/engine.h"
#include "model/possible_worlds.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

constexpr int kK = 3;

class TopKSymDiffProperty : public ::testing::TestWithParam<int> {};

TEST_P(TopKSymDiffProperty, EvaluatorMatchesEnumeration) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 37 + 5);
  RandomTreeOptions opts;
  opts.num_keys = 6;
  opts.max_depth = 3;
  opts.max_alternatives = 2;
  auto tree = RandomAndXorTree(opts, &rng);
  ASSERT_TRUE(tree.ok());
  RankDistribution dist = ComputeRankDistribution(*tree, kK);

  // Random candidate answers of size k (and one smaller).
  std::vector<KeyId> keys = tree->Keys();
  for (int trial = 0; trial < 5; ++trial) {
    rng.Shuffle(&keys);
    size_t size = trial == 0 ? std::min<size_t>(keys.size(), 2)
                             : std::min<size_t>(keys.size(), kK);
    std::vector<KeyId> answer(keys.begin(), keys.begin() + size);
    auto expected =
        EnumExpectedTopKDistance(*tree, answer, kK, TopKMetric::kSymDiff);
    ASSERT_TRUE(expected.ok());
    EXPECT_NEAR(ExpectedTopKSymDiff(dist, answer), *expected, 1e-9);
  }
}

TEST_P(TopKSymDiffProperty, MeanBeatsAllSizeKSubsets) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 61 + 3);
  RandomTreeOptions opts;
  opts.num_keys = 6;
  opts.max_depth = 2;
  auto tree = RandomAndXorTree(opts, &rng);
  ASSERT_TRUE(tree.ok());
  RankDistribution dist = ComputeRankDistribution(*tree, kK);
  TopKResult mean = MeanTopKSymDiff(dist);

  // Brute force over all k-subsets of keys.
  std::vector<KeyId> keys = tree->Keys();
  int n = static_cast<int>(keys.size());
  if (n < kK) GTEST_SKIP();
  double best = std::numeric_limits<double>::infinity();
  std::vector<int> idx(static_cast<size_t>(kK));
  std::function<void(int, int)> choose = [&](int start, int depth) {
    if (depth == kK) {
      std::vector<KeyId> answer;
      for (int i : idx) answer.push_back(keys[static_cast<size_t>(i)]);
      best = std::min(best, ExpectedTopKSymDiff(dist, answer));
      return;
    }
    for (int i = start; i < n; ++i) {
      idx[static_cast<size_t>(depth)] = i;
      choose(i + 1, depth + 1);
    }
  };
  choose(0, 0);
  EXPECT_NEAR(mean.expected_distance, best, 1e-9);
}

TEST_P(TopKSymDiffProperty, MedianMatchesWorldArgmin) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 83 + 19);
  RandomTreeOptions opts;
  opts.num_keys = 6;
  opts.max_depth = 3;
  opts.max_alternatives = 2;
  auto tree = RandomAndXorTree(opts, &rng);
  ASSERT_TRUE(tree.ok());
  RankDistribution dist = ComputeRankDistribution(*tree, kK);

  auto median = MedianTopKSymDiff(*tree, dist);
  ASSERT_TRUE(median.ok()) << median.status().ToString();

  // Ground truth: the best Top-k answer over all possible worlds.
  auto worlds = EnumerateWorlds(*tree);
  ASSERT_TRUE(worlds.ok());
  double best = std::numeric_limits<double>::infinity();
  std::set<std::vector<KeyId>> world_answers;
  for (const World& w : *worlds) {
    std::vector<KeyId> answer = TopKOfWorld(*tree, w.leaf_ids, kK);
    world_answers.insert(answer);
    best = std::min(best, ExpectedTopKSymDiff(dist, answer));
  }
  EXPECT_NEAR(median->expected_distance, best, 1e-9)
      << "median DP missed the optimal world answer";

  // The median must be the Top-k answer of some positive-probability world
  // (as a set; the DP orders by score like TopKOfWorld does).
  EXPECT_TRUE(world_answers.count(median->keys) > 0)
      << "median answer is not realizable";
}

TEST_P(TopKSymDiffProperty, UnrestrictedMeanBeatsAllSubsetsOfAnySize) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 449 + 27);
  RandomTreeOptions opts;
  opts.num_keys = 6;
  opts.max_depth = 2;
  auto tree = RandomAndXorTree(opts, &rng);
  ASSERT_TRUE(tree.ok());
  RankDistribution dist = ComputeRankDistribution(*tree, kK);
  TopKResult unrestricted = MeanTopKSymDiffUnrestricted(dist);

  std::vector<KeyId> keys = tree->Keys();
  int n = static_cast<int>(keys.size());
  if (n > 14) GTEST_SKIP();
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    std::vector<KeyId> answer;
    for (int b = 0; b < n; ++b) {
      if (mask & (1u << b)) answer.push_back(keys[static_cast<size_t>(b)]);
    }
    EXPECT_GE(ExpectedTopKSymDiff(dist, answer),
              unrestricted.expected_distance - 1e-9);
  }
  // The size-k mean can never beat the unrestricted optimum; the median,
  // being realizable, can never beat it either.
  EXPECT_GE(MeanTopKSymDiff(dist).expected_distance,
            unrestricted.expected_distance - 1e-9);
  auto median = MedianTopKSymDiff(*tree, dist);
  ASSERT_TRUE(median.ok());
  EXPECT_GE(median->expected_distance, unrestricted.expected_distance - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopKSymDiffProperty, ::testing::Range(0, 20));

TEST(TopKSymDiffTest, MeanIsOrderedByTopKProbability) {
  Rng rng(123);
  RandomTreeOptions opts;
  opts.num_keys = 10;
  auto tree = RandomBid(opts, &rng);
  ASSERT_TRUE(tree.ok());
  RankDistribution dist = ComputeRankDistribution(*tree, 4);
  TopKResult mean = MeanTopKSymDiff(dist);
  ASSERT_EQ(mean.keys.size(), 4u);
  for (size_t i = 1; i < mean.keys.size(); ++i) {
    EXPECT_GE(dist.PrTopK(mean.keys[i - 1]), dist.PrTopK(mean.keys[i]) - 1e-12);
  }
  // Every excluded key has no larger probability than the included minimum.
  double min_included = dist.PrTopK(mean.keys.back());
  for (KeyId key : dist.keys()) {
    if (std::find(mean.keys.begin(), mean.keys.end(), key) == mean.keys.end()) {
      EXPECT_LE(dist.PrTopK(key), min_included + 1e-12);
    }
  }
}

TEST(TopKSymDiffTest, CertainDatabaseMedianEqualsTrueTopK) {
  // Deterministic database: median = mean = the true Top-k.
  std::vector<IndependentTuple> tuples;
  for (int i = 0; i < 6; ++i) {
    IndependentTuple t;
    t.alt.key = i;
    t.alt.score = 10.0 * (6 - i);
    t.prob = 1.0;
    tuples.push_back(t);
  }
  auto tree = MakeTupleIndependent(tuples);
  ASSERT_TRUE(tree.ok());
  RankDistribution dist = ComputeRankDistribution(*tree, 3);
  TopKResult mean = MeanTopKSymDiff(dist);
  auto median = MedianTopKSymDiff(*tree, dist);
  ASSERT_TRUE(median.ok());
  std::vector<KeyId> truth = {0, 1, 2};
  EXPECT_EQ(mean.keys, truth);
  EXPECT_EQ(median->keys, truth);
  EXPECT_NEAR(mean.expected_distance, 0.0, 1e-12);
}

TEST(TopKSymDiffTest, SmallWorldsAreConsidered) {
  // A database that usually has fewer than k tuples: the median answer must
  // be a small world, not a padded size-k set.
  std::vector<IndependentTuple> tuples;
  for (int i = 0; i < 2; ++i) {
    IndependentTuple t;
    t.alt.key = i;
    t.alt.score = i + 1.0;
    t.prob = 0.9;
    tuples.push_back(t);
  }
  auto tree = MakeTupleIndependent(tuples);
  ASSERT_TRUE(tree.ok());
  const int k = 3;
  RankDistribution dist = ComputeRankDistribution(*tree, k);
  auto median = MedianTopKSymDiff(*tree, dist);
  ASSERT_TRUE(median.ok());
  EXPECT_EQ(median->keys.size(), 2u);  // both tuples, never three
}

// At k >= n (n keys) every stratum's DP is sized at most n: no world holds
// more than n tuples. The answers below were produced by the uncapped DPs
// (every row sized at k, or k - 1 for the small-world stratum); the capped
// ones must reproduce them bit for bit, through the core scan and the
// engine's parallel strata alike.
TEST(TopKSymDiffTest, MedianAtKBeyondNMatchesUncappedDpBitwise) {
  struct Pin {
    uint64_t seed;
    int k;
    std::vector<KeyId> keys;
    double expected;
  };
  // Seeds 3, 9 and 13 draw deep and/xor trees, 4 a BID table; n = 10 each,
  // k in {n, n + 1, 2n, 1000}.
  const std::vector<Pin> pins = {
      {3, 10, {3, 9, 8, 4, 5, 7, 6}, 0x1.c22b5dae5cf86p-3},
      {3, 11, {3, 9, 8, 4, 5, 7, 6}, 0x1.993eb2416bca9p-3},
      {3, 20, {3, 9, 8, 4, 5, 7, 6}, 0x1.c22b5dae5cf86p-4},
      {3, 1000, {3, 9, 8, 4, 5, 7, 6}, 0x1.201bc1136eb37p-9},
      {9, 10, {7, 9, 5, 0, 8}, 0x1.66af1213acfd6p-3},
      {9, 11, {7, 9, 5, 0, 8}, 0x1.461384cc11a09p-3},
      {9, 20, {7, 9, 5, 0, 8}, 0x1.66af1213acfd6p-4},
      {9, 1000, {7, 9, 5, 0, 8}, 0x1.cb1d87c743d3bp-10},
      {13, 10, {8, 9}, 0x1.8468d45de4f1dp-3},
      {13, 11, {8, 9}, 0x1.61197b3e15f31p-3},
      {13, 20, {8, 9}, 0x1.8468d45de4f1dp-4},
      {13, 1000, {8, 9}, 0x1.f12a0596e79bep-10},
      {4, 10, {1, 4, 6, 7, 8, 5, 0, 9, 3, 2}, 0x1.038f6f8fad6c3p-3},
      {4, 11, {1, 4, 6, 7, 8, 5, 0, 9, 3, 2}, 0x1.d7ed85053b506p-4},
      {4, 20, {1, 4, 6, 7, 8, 5, 0, 9, 3, 2}, 0x1.038f6f8fad6c3p-4},
      {4, 1000, {1, 4, 6, 7, 8, 5, 0, 9, 3, 2}, 0x1.4c3cb7c225a93p-10},
  };
  EngineOptions options;
  options.num_threads = 4;
  Engine engine(options);
  for (const Pin& pin : pins) {
    SCOPED_TRACE("seed " + std::to_string(pin.seed) + " k " +
                 std::to_string(pin.k));
    Rng rng(pin.seed);
    RandomTreeOptions opts;
    opts.num_keys = 10;
    opts.max_depth = 3;
    const bool bid = pin.seed % 4 == 0;
    auto tree = bid ? RandomBid(opts, &rng) : RandomAndXorTree(opts, &rng);
    ASSERT_TRUE(tree.ok());
    ASSERT_EQ(tree->Keys().size(), 10u);
    const RankDistribution dist = ComputeRankDistribution(*tree, pin.k);
    auto median = MedianTopKSymDiff(*tree, dist);
    ASSERT_TRUE(median.ok());
    EXPECT_EQ(median->keys, pin.keys);
    EXPECT_EQ(median->expected_distance, pin.expected);

    // Past n no threshold stratum has a size-k world, and the small-world
    // stratum offers at most one candidate per size 0..n.
    const MedianSymDiffContext context = BuildMedianSymDiffContext(*tree, dist);
    const int num_strata = NumMedianSymDiffStrata(context);
    for (int s = 0; s + 1 < num_strata && pin.k > 10; ++s) {
      EXPECT_TRUE(EvalMedianSymDiffStratum(*tree, context, s).empty());
    }
    EXPECT_LE(EvalMedianSymDiffStratum(*tree, context, num_strata - 1).size(),
              11u);

    // The engine's BID fast path folds a numerically different (equally
    // correct) distribution, so only the general path pins its bits.
    if (bid) continue;
    auto engine_median = engine.ConsensusTopK(
        *tree, pin.k, TopKMetric::kSymDiff, TopKAnswer::kMedian);
    ASSERT_TRUE(engine_median.ok());
    EXPECT_EQ(engine_median->keys, pin.keys);
    EXPECT_EQ(engine_median->expected_distance, pin.expected);
  }
}

}  // namespace
}  // namespace cpdb
