// Copyright 2026 The ConsensusDB Authors
//
// The row-addressed metric heads against the by-key reference
// (tests/support/reference_heads.h): every head reads each key's row once,
// in the reference's summation order, so answers and expected distances
// must agree bit for bit — on fresh folds and on At views of a wide
// table, over canonical, permuted and block-independent trees, and through
// the engine at one and four threads.
// Then the engine's fold at min(k, n): a view wider than its table reads
// exactly like the full-width fold, so every head answers as before.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/jaccard.h"  // IsBlockIndependent
#include "core/rank_distribution.h"
#include "core/rank_distribution_fast.h"
#include "core/ranking_baselines.h"
#include "core/topk_footrule.h"
#include "core/topk_intersection.h"
#include "core/topk_symdiff.h"
#include "engine/engine.h"
#include "model/canonical.h"
#include "support/reference_heads.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void ExpectSameBits(const std::vector<double>& got,
                    const std::vector<double>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(Bits(got[i]), Bits(want[i])) << what << " entry " << i;
  }
}

void ExpectSameResult(const TopKResult& got, const TopKResult& want,
                      const std::string& what) {
  EXPECT_EQ(got.keys, want.keys) << what;
  EXPECT_EQ(Bits(got.expected_distance), Bits(want.expected_distance))
      << what << ": " << got.expected_distance << " vs "
      << want.expected_distance;
}

void ExpectSameResult(const Result<TopKResult>& got,
                      const Result<TopKResult>& want,
                      const std::string& what) {
  ASSERT_EQ(got.ok(), want.ok()) << what;
  if (!got.ok()) {
    EXPECT_EQ(got.status().message(), want.status().message()) << what;
    return;
  }
  ExpectSameResult(*got, *want, what);
}

// Every row-addressed head on `dist` against its by-key reference.
void ExpectHeadsMatchReference(const RankDistribution& dist) {
  const std::vector<KeyId>& keys = dist.keys();
  for (size_t t = 0; t < keys.size(); ++t) {
    const int row = static_cast<int>(t);
    ExpectSameBits(FootruleCostColumn(dist, row),
                   by_key::FootruleCostColumn(dist, keys[t]),
                   "footrule column " + std::to_string(keys[t]));
    ExpectSameBits(IntersectionProfitColumn(dist, row),
                   by_key::IntersectionProfitColumn(dist, keys[t]),
                   "intersection column " + std::to_string(keys[t]));
  }
  ExpectSameResult(MeanTopKFootrule(dist), by_key::MeanTopKFootrule(dist),
                   "footrule mean");
  ExpectSameResult(MeanTopKIntersectionExact(dist),
                   by_key::MeanTopKIntersectionExact(dist),
                   "intersection mean");
  ExpectSameResult(MeanTopKIntersectionApprox(dist),
                   by_key::MeanTopKIntersectionApprox(dist),
                   "intersection approx");
  ExpectSameResult(MeanTopKSymDiff(dist), by_key::MeanTopKSymDiff(dist),
                   "symdiff mean");
  ExpectSameResult(MeanTopKSymDiffUnrestricted(dist),
                   by_key::MeanTopKSymDiffUnrestricted(dist),
                   "symdiff any-size");
  EXPECT_EQ(GlobalTopK(dist), by_key::GlobalTopK(dist));
  const std::vector<double> weights = PrfUpsilonHWeights(dist.k());
  EXPECT_EQ(TopKByPRF(dist, weights), by_key::TopKByPRF(dist, weights));
  EXPECT_EQ(ProbabilisticThresholdTopK(dist, 0.5),
            by_key::ProbabilisticThresholdTopK(dist, 0.5));

  // The expected distances of an arbitrary answer: the keys reversed and
  // truncated at k, plus one key the distribution does not cover (it reads
  // an all-zero row, as the by-key accessors do).
  std::vector<KeyId> answer(keys.rbegin(), keys.rend());
  answer.resize(std::min<size_t>(answer.size(),
                                 static_cast<size_t>(dist.k())));
  if (!keys.empty()) answer.back() = keys.back() + 1;
  EXPECT_EQ(Bits(ExpectedTopKFootrule(dist, answer)),
            Bits(by_key::ExpectedTopKFootrule(dist, answer)));
  EXPECT_EQ(Bits(ExpectedTopKIntersection(dist, answer)),
            Bits(by_key::ExpectedTopKIntersection(dist, answer)));
  EXPECT_EQ(Bits(ExpectedTopKSymDiff(dist, answer)),
            Bits(by_key::ExpectedTopKSymDiff(dist, answer)));
}

// `id`'s subtree with every inner node's children (and XOR edge
// probabilities) in a random order.
NodeId RebuildShuffled(const AndXorTree& in, NodeId id, Rng* rng,
                       AndXorTree* out) {
  const TreeNode& n = in.node(id);
  if (n.kind == NodeKind::kLeaf) return out->AddLeaf(n.leaf);
  std::vector<size_t> order(n.children.size());
  std::iota(order.begin(), order.end(), 0u);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng->Next() % i]);
  }
  std::vector<NodeId> children;
  std::vector<double> probs;
  for (size_t idx : order) {
    children.push_back(RebuildShuffled(in, n.children[idx], rng, out));
    if (n.kind == NodeKind::kXor) probs.push_back(n.edge_probs[idx]);
  }
  return n.kind == NodeKind::kAnd
             ? out->AddAnd(std::move(children))
             : out->AddXor(std::move(children), std::move(probs));
}

// Canonical, permuted and block-independent trees of 6..14 keys.
std::vector<std::pair<std::string, AndXorTree>> Trees() {
  std::vector<std::pair<std::string, AndXorTree>> trees;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    Rng rng(4200 + seed);
    RandomTreeOptions opts;
    opts.num_keys = 6 + static_cast<int>(seed) * 4;
    opts.max_depth = 4;
    auto deep = RandomAndXorTree(opts, &rng);
    EXPECT_TRUE(deep.ok());
    auto canonical = CanonicalizeTree(*deep);
    EXPECT_TRUE(canonical.ok());
    AndXorTree permuted;
    permuted.SetRoot(
        RebuildShuffled(*canonical, canonical->root(), &rng, &permuted));
    EXPECT_TRUE(permuted.Validate().ok());
    const std::string tag = std::to_string(seed);
    trees.emplace_back("canonical " + tag, *std::move(canonical));
    trees.emplace_back("permuted " + tag, std::move(permuted));
    auto bid = RandomBid(opts, &rng);
    EXPECT_TRUE(bid.ok());
    trees.emplace_back("bid " + tag, *std::move(bid));
  }
  return trees;
}

TEST(RowHeadsTest, MatchByKeyReferenceOnFoldsAndPrefixViews) {
  constexpr int kWide = 16;
  for (const auto& [name, tree] : Trees()) {
    SCOPED_TRACE(name);
    const RankDistribution wide = ComputeRankDistribution(tree, kWide);
    for (int k = 1; k <= kWide; ++k) {
      SCOPED_TRACE("k " + std::to_string(k));
      {
        SCOPED_TRACE("fresh fold");
        ExpectHeadsMatchReference(ComputeRankDistribution(tree, k));
      }
      {
        SCOPED_TRACE("prefix view");
        ExpectHeadsMatchReference(wide.At(k));
      }
    }
  }
}

TEST(RowHeadsTest, MedianContextReadsEachLeafsTopKProbability) {
  for (const auto& [name, tree] : Trees()) {
    SCOPED_TRACE(name);
    const RankDistribution dist = ComputeRankDistribution(tree, 5);
    const MedianSymDiffContext context = BuildMedianSymDiffContext(tree, dist);
    for (NodeId l : tree.LeafIds()) {
      EXPECT_EQ(Bits(context.value_p[static_cast<size_t>(l)]),
                Bits(dist.PrTopK(tree.node(l).leaf.key)));
    }
  }
}

// Footrule and intersection mean and kendall through the engine, on a small
// and a large distribution: the same bits as the reference at any thread
// count.
TEST(RowHeadsTest, EngineColumnsMatchReferenceAtAnyThreadCount) {
  constexpr int kK = 16;
  for (const int num_keys : {20, 160}) {
    SCOPED_TRACE("keys " + std::to_string(num_keys));
    Rng rng(77 + static_cast<uint64_t>(num_keys));
    RandomTreeOptions opts;
    opts.num_keys = num_keys;
    auto tree = RandomBid(opts, &rng);
    ASSERT_TRUE(tree.ok());
    std::vector<Result<TopKResult>> kendall_by_threads;
    for (int threads : {1, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      EngineOptions options;
      options.num_threads = threads;
      Engine engine(options);
      const RankDistribution dist = engine.ComputeRankDistribution(*tree, kK);
      ExpectSameResult(
          engine.ConsensusTopKWithDist(*tree, dist, TopKMetric::kFootrule),
          by_key::MeanTopKFootrule(dist), "footrule mean");
      ExpectSameResult(
          engine.ConsensusTopKWithDist(*tree, dist, TopKMetric::kIntersection),
          by_key::MeanTopKIntersectionExact(dist), "intersection mean");
      const RankDistribution view = dist.At(4);
      ExpectSameResult(
          engine.ConsensusTopKWithDist(*tree, view, TopKMetric::kFootrule),
          by_key::MeanTopKFootrule(view), "footrule mean, k 4 view");
      Result<TopKResult> kendall =
          engine.ConsensusTopKWithDist(*tree, dist, TopKMetric::kKendall);
      ASSERT_TRUE(kendall.ok());
      EXPECT_EQ(kendall->keys, by_key::MeanTopKFootrule(dist)->keys);
      kendall_by_threads.push_back(std::move(kendall));
    }
    ExpectSameResult(kendall_by_threads[1], kendall_by_threads[0],
                     "kendall, 4 threads vs 1");
  }
}

// The engine folds at min(k, n). Past the key count the view reads exactly
// like the full-width core fold (zeros beyond n, Pr(r <= i) flat), and
// every head that accepts k > n answers with the same bits; the heads that
// need k tuples refuse before building a column.
TEST(RowHeadsTest, FoldAtKeyCountReadsLikeTheFullWidthFold) {
  Rng rng(515);
  RandomTreeOptions opts;
  opts.num_keys = 9;
  opts.max_depth = 2;  // 53 leaves: a full-width fold at k = 20000 is cheap
  std::vector<std::pair<std::string, AndXorTree>> trees;
  auto deep = RandomAndXorTree(opts, &rng);
  ASSERT_TRUE(deep.ok());
  ASSERT_FALSE(IsBlockIndependent(*deep));
  trees.emplace_back("general", *std::move(deep));
  auto bid = RandomBid(opts, &rng);
  ASSERT_TRUE(bid.ok());
  trees.emplace_back("bid", *std::move(bid));

  for (const auto& [name, tree] : trees) {
    const int n = static_cast<int>(tree.Keys().size());
    for (int k : {n, n + 1, 2 * n, 20000}) {
      // The reference: the same algorithm folded at full width k.
      const RankDistribution full =
          IsBlockIndependent(tree) ? *ComputeRankDistributionFast(tree, k)
                                   : ComputeRankDistribution(tree, k);
      ASSERT_EQ(full.width(), k);
      for (int threads : {1, 4}) {
        SCOPED_TRACE(name + " k " + std::to_string(k) + " threads " +
                     std::to_string(threads));
        EngineOptions options;
        options.num_threads = threads;
        Engine engine(options);
        const RankDistribution dist = engine.ComputeRankDistribution(tree, k);
        ASSERT_EQ(dist.k(), k);
        EXPECT_EQ(dist.width(), std::min(k, n));
        EXPECT_LE(dist.ApproxBytes(), full.ApproxBytes());
        for (KeyId key : dist.keys()) {
          for (int i = 0; i <= k + 1; ++i) {
            ASSERT_EQ(Bits(dist.PrRankEq(key, i)), Bits(full.PrRankEq(key, i)))
                << "key " << key << " rank " << i;
            ASSERT_EQ(Bits(dist.PrRankLe(key, i)), Bits(full.PrRankLe(key, i)))
                << "key " << key << " rank " << i;
          }
        }
        ExpectSameResult(MeanTopKSymDiff(dist), by_key::MeanTopKSymDiff(full),
                         "symdiff mean");
        ExpectSameResult(MeanTopKSymDiffUnrestricted(dist),
                         by_key::MeanTopKSymDiffUnrestricted(full),
                         "symdiff any-size");
        ExpectSameResult(
            engine.ConsensusTopKWithDist(tree, dist, TopKMetric::kSymDiff,
                                         TopKAnswer::kMedian),
            MedianTopKSymDiff(tree, full), "symdiff median");
        ExpectSameResult(MeanTopKIntersectionApprox(dist),
                         by_key::MeanTopKIntersectionApprox(full),
                         "intersection approx");
        EXPECT_EQ(GlobalTopK(dist), by_key::GlobalTopK(full));
        const std::vector<double> weights = PrfUpsilonHWeights(k);
        EXPECT_EQ(TopKByPRF(dist, weights), by_key::TopKByPRF(full, weights));
        if (k == n) continue;
        for (TopKMetric metric : {TopKMetric::kFootrule, TopKMetric::kKendall,
                                  TopKMetric::kIntersection}) {
          Result<TopKResult> refused =
              engine.ConsensusTopKWithDist(tree, dist, metric);
          ASSERT_FALSE(refused.ok());
          EXPECT_EQ(refused.status().message(),
                    metric == TopKMetric::kIntersection
                        ? "intersection-metric mean answer needs at least k "
                          "tuples"
                        : "footrule mean answer needs at least k tuples");
        }
      }
    }
  }
}

}  // namespace
}  // namespace cpdb
