// Copyright 2026 The ConsensusDB Authors
//
// Cross-validates the generating-function rank distributions (Example 3 /
// Section 5) against exhaustive possible-world enumeration.

#include "core/rank_distribution.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.h"
#include "core/jaccard.h"  // IsBlockIndependent
#include "engine/engine.h"
#include "model/builders.h"
#include "model/possible_worlds.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

// Rank distribution by brute force: Pr(r(key) = i) over enumerated worlds.
std::map<KeyId, std::vector<double>> EnumRankDist(const AndXorTree& tree,
                                                  int k) {
  auto worlds = EnumerateWorlds(tree);
  EXPECT_TRUE(worlds.ok());
  std::map<KeyId, std::vector<double>> dist;
  for (KeyId key : tree.Keys()) {
    dist[key].assign(static_cast<size_t>(k) + 1, 0.0);
  }
  for (const World& w : *worlds) {
    std::vector<TupleAlternative> tuples = WorldTuples(tree, w.leaf_ids);
    for (size_t pos = 0; pos < tuples.size() && pos < static_cast<size_t>(k);
         ++pos) {
      dist[tuples[pos].key][pos + 1] += w.prob;
    }
  }
  return dist;
}

class RankDistProperty : public ::testing::TestWithParam<int> {};

TEST_P(RankDistProperty, MatchesEnumerationOnRandomBid) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 131 + 7);
  RandomTreeOptions opts;
  opts.num_keys = 6;
  opts.max_alternatives = 3;
  auto tree = RandomBid(opts, &rng);
  ASSERT_TRUE(tree.ok());
  const int k = 4;
  RankDistribution dist = ComputeRankDistribution(*tree, k);
  auto expected = EnumRankDist(*tree, k);
  for (KeyId key : tree->Keys()) {
    for (int i = 1; i <= k; ++i) {
      EXPECT_NEAR(dist.PrRankEq(key, i), expected[key][static_cast<size_t>(i)],
                  1e-9)
          << "key " << key << " rank " << i;
    }
  }
}

TEST_P(RankDistProperty, MatchesEnumerationOnRandomAndXor) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 733 + 11);
  RandomTreeOptions opts;
  opts.num_keys = 5;
  opts.max_depth = 3;
  opts.max_alternatives = 2;
  auto tree = RandomAndXorTree(opts, &rng);
  ASSERT_TRUE(tree.ok());
  const int k = 3;
  RankDistribution dist = ComputeRankDistribution(*tree, k);
  auto expected = EnumRankDist(*tree, k);
  for (KeyId key : tree->Keys()) {
    for (int i = 1; i <= k; ++i) {
      EXPECT_NEAR(dist.PrRankEq(key, i), expected[key][static_cast<size_t>(i)],
                  1e-9);
    }
  }
}

TEST_P(RankDistProperty, PairwiseOrderMatchesEnumeration) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 389 + 23);
  RandomTreeOptions opts;
  opts.num_keys = 4;
  opts.max_depth = 3;
  opts.max_alternatives = 2;
  auto tree = RandomAndXorTree(opts, &rng);
  ASSERT_TRUE(tree.ok());
  auto worlds = EnumerateWorlds(*tree);
  ASSERT_TRUE(worlds.ok());

  std::vector<KeyId> keys = tree->Keys();
  for (KeyId u : keys) {
    for (KeyId v : keys) {
      if (u == v) continue;
      double expected = 0.0;
      for (const World& w : *worlds) {
        // r(u) < r(v): u present and (v absent or v's score lower).
        double su = -1.0, sv = -1.0;
        for (NodeId l : w.leaf_ids) {
          const TupleAlternative& alt = tree->node(l).leaf;
          if (alt.key == u) su = alt.score;
          if (alt.key == v) sv = alt.score;
        }
        if (su >= 0.0 && (sv < 0.0 || su > sv)) expected += w.prob;
      }
      EXPECT_NEAR(PrRanksBefore(*tree, u, v), expected, 1e-9)
          << "u=" << u << " v=" << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RankDistProperty, ::testing::Range(0, 12));

TEST(RankDistributionTest, RowMassAccounting) {
  // Pr(r(t) <= k) + Pr(r(t) > k) = 1 by construction of the accessors.
  Rng rng(3);
  RandomTreeOptions opts;
  opts.num_keys = 10;
  auto tree = RandomBid(opts, &rng);
  ASSERT_TRUE(tree.ok());
  RankDistribution dist = ComputeRankDistribution(*tree, 5);
  for (KeyId key : dist.keys()) {
    double mass = dist.PrTopK(key) + dist.PrBeyondK(key);
    EXPECT_NEAR(mass, 1.0, 1e-12);
    EXPECT_GE(dist.PrTopK(key), -1e-12);
    EXPECT_LE(dist.PrTopK(key), 1.0 + 1e-12);
    // Monotone CDF.
    for (int i = 2; i <= 5; ++i) {
      EXPECT_GE(dist.PrRankLe(key, i), dist.PrRankLe(key, i - 1) - 1e-12);
    }
  }
}

TEST(RankDistributionTest, CertainDatabaseHasDeterministicRanks) {
  // All tuples present with probability 1: rank = position by score.
  std::vector<IndependentTuple> tuples;
  for (int i = 0; i < 5; ++i) {
    IndependentTuple t;
    t.alt.key = i;
    t.alt.score = 100.0 - i;  // key 0 is the highest scorer
    t.prob = 1.0;
    tuples.push_back(t);
  }
  auto tree = MakeTupleIndependent(tuples);
  ASSERT_TRUE(tree.ok());
  RankDistribution dist = ComputeRankDistribution(*tree, 5);
  for (int i = 0; i < 5; ++i) {
    for (int r = 1; r <= 5; ++r) {
      EXPECT_NEAR(dist.PrRankEq(i, r), r == i + 1 ? 1.0 : 0.0, 1e-12);
    }
  }
}

TEST(RankDistributionTest, ApproxBytesCoversHandComputedLowerBound) {
  // Regression test for the --cache-budget undercharge: ApproxBytes must
  // cover, for n keys at truncation k, at least
  //   * the 2 n (k+1) doubles of payload (pr_eq_ + pr_le_ inner elements),
  //   * the n KeyIds of the keys_ element array,
  //   * the 2 n inner vector headers the pr_eq_/pr_le_ outer arrays hold,
  //   * and the top-level object itself (which embeds the keys_/pr_eq_/
  //     pr_le_ headers).
  // The historical formula omitted the outer-array headers and the keys_
  // element storage, undercharging every cached entry. The per-key charge
  // is exact (no estimated map node: rows are addressed by index).
  const int k = 5;
  const int n = 10;
  Rng rng(3);
  RandomTreeOptions opts;
  opts.num_keys = n;
  auto tree = RandomBid(opts, &rng);
  ASSERT_TRUE(tree.ok());
  RankDistribution dist = ComputeRankDistribution(*tree, k);
  ASSERT_EQ(static_cast<int>(dist.keys().size()), n);

  const int64_t payload =
      2 * static_cast<int64_t>(n) * (k + 1) * sizeof(double);
  const int64_t key_array = static_cast<int64_t>(n) * sizeof(KeyId);
  const int64_t inner_headers =
      2 * static_cast<int64_t>(n) * sizeof(std::vector<double>);
  const int64_t lower_bound = payload + key_array + inner_headers +
                              static_cast<int64_t>(sizeof(RankDistribution));
  EXPECT_GE(dist.ApproxBytes(), lower_bound);

  // Per key, exactly the KeyId, its two inner vector headers in the outer
  // arrays, and its two rows (header plus k+1 doubles each): rows are
  // addressed by index, so no key-index map node is charged.
  RandomTreeOptions wider = opts;
  wider.num_keys = n + 1;
  Rng rng_wider(3);
  auto tree_wider = RandomBid(wider, &rng_wider);
  ASSERT_TRUE(tree_wider.ok());
  const RankDistribution dist_wider = ComputeRankDistribution(*tree_wider, k);
  ASSERT_EQ(static_cast<int>(dist_wider.keys().size()), n + 1);
  const int64_t per_key =
      static_cast<int64_t>(sizeof(KeyId)) +
      2 * static_cast<int64_t>(sizeof(std::vector<double>)) +
      2 * (static_cast<int64_t>(sizeof(std::vector<double>)) +
           (k + 1) * static_cast<int64_t>(sizeof(double)));
  EXPECT_EQ(dist_wider.ApproxBytes() - dist.ApproxBytes(), per_key);

  // Deterministic function of (n, k): a same-shaped distribution from a
  // different tree costs the same — budget eviction replays identically.
  Rng rng2(4);
  auto tree2 = RandomBid(opts, &rng2);
  ASSERT_TRUE(tree2.ok());
  RankDistribution dist2 = ComputeRankDistribution(*tree2, k);
  ASSERT_EQ(dist2.keys().size(), dist.keys().size());
  EXPECT_EQ(dist2.ApproxBytes(), dist.ApproxBytes());
}

// The property the serving cache's per-shape entries rest on: every fold
// sums each Pr(r = i) in the same order whatever k it is truncated at, so
// the k-view of a fold at 16 is bitwise the engine's own fold at k — on
// the general path (deep and/xor trees) and on the BID fast path alike.
TEST(RankDistributionTest, PrefixViewIsBitwiseTheNarrowerFold) {
  constexpr int kWide = 16;
  Engine engine;
  std::vector<AndXorTree> trees;
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(9100 + seed);
    RandomTreeOptions opts;
    opts.num_keys = 10 + static_cast<int>(seed) * 6;  // 10..40 keys
    opts.max_depth = 5;
    auto deep = RandomAndXorTree(opts, &rng);
    ASSERT_TRUE(deep.ok());
    ASSERT_FALSE(IsBlockIndependent(*deep));  // exercises the general fold
    trees.push_back(*std::move(deep));
    auto bid = RandomBid(opts, &rng);
    ASSERT_TRUE(bid.ok());
    trees.push_back(*std::move(bid));
    auto independent = RandomTupleIndependent(opts.num_keys - 1, &rng);
    ASSERT_TRUE(independent.ok());
    trees.push_back(*std::move(independent));
  }
  for (size_t t = 0; t < trees.size(); ++t) {
    SCOPED_TRACE("tree " + std::to_string(t));
    const RankDistribution wide =
        engine.ComputeRankDistribution(trees[t], kWide);
    ASSERT_EQ(wide.k(), kWide);
    for (int k = 1; k < kWide; ++k) {
      const RankDistribution fold = engine.ComputeRankDistribution(trees[t], k);
      const RankDistribution view = wide.At(k);
      ASSERT_EQ(view.k(), k);
      ASSERT_EQ(&view.keys(), &wide.keys());  // shared, not copied
      ASSERT_EQ(view.keys(), fold.keys());
      for (KeyId key : fold.keys()) {
        for (int i = 0; i <= kWide + 1; ++i) {
          // Beyond k the view reads like the fold at k: PrRankEq is 0 and
          // PrRankLe clamps at k.
          EXPECT_EQ(view.PrRankEq(key, i), fold.PrRankEq(key, i))
              << "k " << k << " key " << key << " rank " << i;
          EXPECT_EQ(view.PrRankLe(key, i), fold.PrRankLe(key, i))
              << "k " << k << " key " << key << " rank " << i;
        }
        EXPECT_EQ(view.PrRankEq(key, k + 1), 0.0);
        EXPECT_EQ(view.PrRankLe(key, k + 1), view.PrRankLe(key, k));
        EXPECT_EQ(view.PrTopK(key), fold.PrTopK(key));
      }
    }
    // A view widens only when complete (its table holds every rank of its
    // n <= kWide keys), and charges its table's full width.
    const bool complete = wide.keys().size() <= static_cast<size_t>(kWide);
    EXPECT_EQ(wide.At(kWide + 5).k(), complete ? kWide + 5 : kWide);
    EXPECT_EQ(wide.At(3).ApproxBytes(), wide.ApproxBytes());
  }
}

TEST(RankDistributionTest, UnknownKeyYieldsZero) {
  Rng rng(5);
  auto tree = RandomTupleIndependent(3, &rng);
  ASSERT_TRUE(tree.ok());
  RankDistribution dist = ComputeRankDistribution(*tree, 2);
  EXPECT_EQ(dist.PrRankEq(999, 1), 0.0);
  EXPECT_EQ(dist.PrRankLe(999, 2), 0.0);
  EXPECT_EQ(dist.PrRankEq(0, 0), 0.0);
  EXPECT_EQ(dist.PrRankEq(0, 3), 0.0);  // beyond k
}

}  // namespace
}  // namespace cpdb
