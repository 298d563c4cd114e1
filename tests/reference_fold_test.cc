// Copyright 2026 The ConsensusDB Authors
//
// Bitwise pins for two FlatTree folds against their pointer-tree
// references in tests/support: the co-clustering weights of
// ClusteringProblem::FromTree's general (non-BID) branch and Lemma 1's
// ExpectedJaccardDistance. The compared folds combine identical leaf
// polynomials in the identical order, so the checks are ASSERT_EQ on
// doubles: not a single bit may move.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "core/clustering.h"
#include "core/jaccard.h"
#include "support/reference_folds.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

// A correlated and/xor tree with a label in [0, 7] on every leaf. Few keys
// over many alternatives make shared labels — the [x^2] terms — common.
AndXorTree RandomCorrelatedTree(uint64_t seed, int num_keys, int max_depth) {
  Rng rng(seed);
  RandomTreeOptions opts;
  opts.num_keys = num_keys;
  opts.max_depth = max_depth;
  opts.max_alternatives = 3;
  opts.xor_prob = 0.6;
  auto tree = RandomAndXorTree(opts, &rng);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  return *std::move(tree);
}

class ReferenceFoldPins : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReferenceFoldPins, CoClusterWeightsBitwiseEqualPointerFold) {
  AndXorTree tree = RandomCorrelatedTree(GetParam(), 6, 4);
  // BID trees take the closed form and never reach the flat fold.
  ASSERT_FALSE(IsBlockIndependent(tree));
  auto problem = ClusteringProblem::FromTree(tree);
  ASSERT_TRUE(problem.ok()) << problem.status().ToString();
  const std::vector<KeyId>& keys = problem->keys();
  for (int i = 0; i < problem->num_keys(); ++i) {
    for (int j = i + 1; j < problem->num_keys(); ++j) {
      const double reference = PairCoClusterPointer(
          tree, keys[static_cast<size_t>(i)], keys[static_cast<size_t>(j)]);
      ASSERT_EQ(problem->W(i, j), reference) << "pair " << i << "," << j;
      ASSERT_EQ(problem->W(j, i), reference);
    }
  }
}

TEST_P(ReferenceFoldPins, ExpectedJaccardBitwiseEqualsPointerFold) {
  AndXorTree tree = RandomCorrelatedTree(GetParam(), 6, 3);
  const std::vector<NodeId>& leaves = tree.LeafIds();
  // The empty world (|W| = 0: x is the zero polynomial) and the full leaf
  // set (L - |W| = 0: y is) are the truncation edges; random subsets cover
  // the interior.
  std::vector<std::vector<NodeId>> worlds = {{}, leaves};
  Rng rng(GetParam() * 7919 + 1);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<NodeId> world;
    for (NodeId l : leaves) {
      if (rng.Bernoulli(0.5)) world.push_back(l);
    }
    worlds.push_back(world);
  }
  for (std::vector<NodeId>& world : worlds) {
    std::sort(world.begin(), world.end());
    ASSERT_EQ(ExpectedJaccardDistance(tree, world),
              ExpectedJaccardDistancePointer(tree, world))
        << "|W| = " << world.size() << " of " << leaves.size();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReferenceFoldPins,
                         ::testing::Range<uint64_t>(1, 25));

}  // namespace
}  // namespace cpdb
