// Copyright 2026 The ConsensusDB Authors

#include "core/ranking_baselines.h"

#include <algorithm>
#include <map>

#include "model/possible_worlds.h"

namespace cpdb {

namespace {

// Sorts keys by their value (value[i] belongs to keys[i]; descending if
// `descending`, ties in key order) and returns the first k.
std::vector<KeyId> TopKeysByValue(const std::vector<KeyId>& keys,
                                  const std::vector<double>& value, int k,
                                  bool descending) {
  std::vector<size_t> order(keys.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return descending ? value[a] > value[b] : value[a] < value[b];
  });
  if (static_cast<int>(order.size()) > k) order.resize(static_cast<size_t>(k));
  std::vector<KeyId> sorted;
  sorted.reserve(order.size());
  for (size_t i : order) sorted.push_back(keys[i]);
  return sorted;
}

}  // namespace

std::vector<KeyId> TopKByExpectedScore(const AndXorTree& tree, int k) {
  std::vector<double> marginal = tree.LeafMarginals();
  std::map<KeyId, double> by_key;
  for (KeyId key : tree.Keys()) by_key[key] = 0.0;
  for (NodeId l : tree.LeafIds()) {
    const TupleAlternative& alt = tree.node(l).leaf;
    by_key[alt.key] += marginal[static_cast<size_t>(l)] * alt.score;
  }
  std::vector<KeyId> keys;
  std::vector<double> value;
  for (const auto& [key, v] : by_key) {  // ascending, like tree.Keys()
    keys.push_back(key);
    value.push_back(v);
  }
  return TopKeysByValue(keys, value, k, /*descending=*/true);
}

double ExpectedRankOfKey(const AndXorTree& tree,
                         const std::vector<double>& leaf_marginals,
                         KeyId key) {
  const std::vector<NodeId>& leaves = tree.LeafIds();
  double e = 0.0;
  double p_present = 0.0;
  // Present case: rank = 1 + #(higher-scoring other-key leaves present).
  for (NodeId a : leaves) {
    const TupleAlternative& alt = tree.node(a).leaf;
    if (alt.key != key) continue;
    double pa = leaf_marginals[static_cast<size_t>(a)];
    p_present += pa;
    e += pa;  // the "1 +" part
    for (NodeId l : leaves) {
      const TupleAlternative& other = tree.node(l).leaf;
      if (other.key == key || other.score <= alt.score) continue;
      e += tree.PairPresenceProbability(a, l);
    }
  }
  // Absent case: rank = |pw| + 1.
  // E[(|pw| + 1) * 1(key absent)] = Pr(absent) + sum_l Pr(l present and
  // key absent), and Pr(l and key absent) = Pr(l) - sum_a Pr(l and a).
  e += 1.0 - p_present;
  for (NodeId l : leaves) {
    const TupleAlternative& other = tree.node(l).leaf;
    if (other.key == key) continue;  // l present with key absent impossible
    double p_l_and_key = 0.0;
    for (NodeId a : leaves) {
      if (tree.node(a).leaf.key != key) continue;
      p_l_and_key += tree.PairPresenceProbability(l, a);
    }
    e += leaf_marginals[static_cast<size_t>(l)] - p_l_and_key;
  }
  return e;
}

std::vector<double> ExpectedRanks(const AndXorTree& tree) {
  const std::vector<double> marginal = tree.LeafMarginals();
  const std::vector<KeyId> keys = tree.Keys();
  std::vector<double> expected(keys.size(), 0.0);
  for (size_t t = 0; t < keys.size(); ++t) {
    expected[t] = ExpectedRankOfKey(tree, marginal, keys[t]);
  }
  return expected;
}

std::vector<KeyId> TopKByExpectedRankFromRanks(const std::vector<KeyId>& keys,
                                               const std::vector<double>& ranks,
                                               int k) {
  return TopKeysByValue(keys, ranks, k, /*descending=*/false);
}

std::vector<KeyId> TopKByExpectedRank(const AndXorTree& tree, int k) {
  return TopKByExpectedRankFromRanks(tree.Keys(), ExpectedRanks(tree), k);
}

std::vector<KeyId> ProbabilisticThresholdTopK(const RankDistribution& dist,
                                              double threshold) {
  std::vector<KeyId> selected;
  std::vector<double> value;
  for (size_t t = 0; t < dist.keys().size(); ++t) {
    const double p = dist.row(static_cast<int>(t)).TopK();
    if (p >= threshold) {
      selected.push_back(dist.keys()[t]);
      value.push_back(p);
    }
  }
  return TopKeysByValue(selected, value, static_cast<int>(selected.size()),
                        /*descending=*/true);
}

std::vector<KeyId> GlobalTopK(const RankDistribution& dist) {
  std::vector<double> value(dist.keys().size());
  for (size_t t = 0; t < value.size(); ++t) {
    value[t] = dist.row(static_cast<int>(t)).TopK();
  }
  return TopKeysByValue(dist.keys(), value, dist.k(), /*descending=*/true);
}

Result<std::vector<KeyId>> UTopKExact(const AndXorTree& tree, int k,
                                      size_t max_worlds) {
  CPDB_ASSIGN_OR_RETURN(std::vector<World> worlds,
                        EnumerateWorlds(tree, max_worlds));
  std::map<std::vector<KeyId>, double> list_prob;
  for (const World& w : worlds) {
    list_prob[TopKOfWorld(tree, w.leaf_ids, k)] += w.prob;
  }
  const std::vector<KeyId>* best = nullptr;
  double best_prob = -1.0;
  for (const auto& [list, prob] : list_prob) {
    if (prob > best_prob) {
      best_prob = prob;
      best = &list;
    }
  }
  if (best == nullptr) return Status::Infeasible("no worlds");
  return *best;
}

std::vector<KeyId> UTopKSampled(const AndXorTree& tree, int k, int num_samples,
                                Rng* rng) {
  std::map<std::vector<KeyId>, int> counts;
  for (int s = 0; s < num_samples; ++s) {
    ++counts[TopKOfWorld(tree, SampleWorld(tree, rng), k)];
  }
  const std::vector<KeyId>* best = nullptr;
  int best_count = -1;
  for (const auto& [list, count] : counts) {
    if (count > best_count) {
      best_count = count;
      best = &list;
    }
  }
  return best == nullptr ? std::vector<KeyId>{} : *best;
}

std::vector<KeyId> TopKByPRF(const RankDistribution& dist,
                             const std::vector<double>& weights) {
  std::vector<double> value(dist.keys().size());
  for (size_t t = 0; t < value.size(); ++t) {
    const RankDistribution::Row row = dist.row(static_cast<int>(t));
    double v = 0.0;
    for (int i = 1; i <= dist.k() && i <= static_cast<int>(weights.size());
         ++i) {
      v += weights[static_cast<size_t>(i - 1)] * row.Eq(i);
    }
    value[t] = v;
  }
  return TopKeysByValue(dist.keys(), value, dist.k(), /*descending=*/true);
}

std::vector<double> PrfUpsilonHWeights(int k) {
  std::vector<double> weights(static_cast<size_t>(std::max(k, 0)));
  double h_k = 0.0;
  for (int m = 1; m <= k; ++m) h_k += 1.0 / static_cast<double>(m);
  double h_prev = 0.0;  // H_{i-1}, starting from H_0 = 0
  for (int i = 1; i <= k; ++i) {
    weights[static_cast<size_t>(i - 1)] = h_k - h_prev;
    h_prev += 1.0 / static_cast<double>(i);
  }
  return weights;
}

}  // namespace cpdb
