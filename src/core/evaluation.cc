// Copyright 2026 The ConsensusDB Authors

#include "core/evaluation.h"

#include "core/jaccard.h"
#include "core/topk_metrics.h"

namespace cpdb {

Result<double> EnumExpectedTopKDistance(const AndXorTree& tree,
                                        const std::vector<KeyId>& answer,
                                        int k, TopKMetric metric,
                                        size_t max_worlds) {
  CPDB_ASSIGN_OR_RETURN(std::vector<World> worlds,
                        EnumerateWorlds(tree, max_worlds));
  double expected = 0.0;
  for (const World& w : worlds) {
    expected += w.prob * TopKListDistance(
                             answer, TopKOfWorld(tree, w.leaf_ids, k), k,
                             metric);
  }
  return expected;
}

double SetDistance(const std::vector<NodeId>& a, const std::vector<NodeId>& b,
                   SetMetric metric) {
  switch (metric) {
    case SetMetric::kSymDiff: {
      // |A Δ B| over sorted id vectors.
      size_t i = 0, j = 0, inter = 0;
      while (i < a.size() && j < b.size()) {
        if (a[i] == b[j]) {
          ++inter;
          ++i;
          ++j;
        } else if (a[i] < b[j]) {
          ++i;
        } else {
          ++j;
        }
      }
      return static_cast<double>(a.size() + b.size() - 2 * inter);
    }
    case SetMetric::kJaccard:
      return JaccardDistance(a, b);
  }
  return 0.0;
}

Result<double> EnumExpectedSetDistance(const AndXorTree& tree,
                                       const std::vector<NodeId>& world,
                                       SetMetric metric, size_t max_worlds) {
  CPDB_ASSIGN_OR_RETURN(std::vector<World> worlds,
                        EnumerateWorlds(tree, max_worlds));
  double expected = 0.0;
  for (const World& w : worlds) {
    expected += w.prob * SetDistance(world, w.leaf_ids, metric);
  }
  return expected;
}

double ClusteringDistance(const ClusteringAnswer& a,
                          const ClusteringAnswer& b) {
  double d = 0.0;
  for (size_t i = 0; i < a.cluster_of.size(); ++i) {
    for (size_t j = i + 1; j < a.cluster_of.size(); ++j) {
      bool ta = a.cluster_of[i] == a.cluster_of[j];
      bool tb = b.cluster_of[i] == b.cluster_of[j];
      if (ta != tb) d += 1.0;
    }
  }
  return d;
}

Result<double> EnumExpectedClusteringDistance(const AndXorTree& tree,
                                              const ClusteringAnswer& answer,
                                              size_t max_worlds) {
  CPDB_ASSIGN_OR_RETURN(std::vector<World> worlds,
                        EnumerateWorlds(tree, max_worlds));
  std::vector<KeyId> keys = tree.Keys();
  double expected = 0.0;
  for (const World& w : worlds) {
    ClusteringAnswer induced = ClusteringOfWorld(tree, keys, w.leaf_ids);
    expected += w.prob * ClusteringDistance(answer, induced);
  }
  return expected;
}

}  // namespace cpdb
