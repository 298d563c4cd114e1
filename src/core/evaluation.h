// Copyright 2026 The ConsensusDB Authors
//
// Ground-truth evaluation of expected distances by exhaustive possible-world
// enumeration (exact on small instances; core/monte_carlo.h samples the
// same objectives on any instance). Every closed-form expectation in the
// library is cross-validated against these in the test suite, and the
// benchmark harness uses them to measure approximation ratios.

#ifndef CPDB_CORE_EVALUATION_H_
#define CPDB_CORE_EVALUATION_H_

#include <vector>

#include "common/result.h"
#include "core/clustering.h"
#include "core/topk_metrics.h"  // TopKMetric and the distance dispatch
#include "model/and_xor_tree.h"
#include "model/possible_worlds.h"

namespace cpdb {

/// \brief E[d(answer, topk(pw))] by exhaustive enumeration.
Result<double> EnumExpectedTopKDistance(const AndXorTree& tree,
                                        const std::vector<KeyId>& answer,
                                        int k, TopKMetric metric,
                                        size_t max_worlds = 1 << 20);

/// \brief Set-level metrics over leaf-id sets.
enum class SetMetric { kSymDiff, kJaccard };

/// \brief d(a, b) under `metric` for two sorted leaf-id sets — the
/// per-world set distance both the enumerator and the sampler average
/// (the set-level companion of TopKListDistance).
double SetDistance(const std::vector<NodeId>& a, const std::vector<NodeId>& b,
                   SetMetric metric);

/// \brief E[d(world, pw)] by exhaustive enumeration; `world` holds sorted
/// leaf NodeIds.
Result<double> EnumExpectedSetDistance(const AndXorTree& tree,
                                       const std::vector<NodeId>& world,
                                       SetMetric metric,
                                       size_t max_worlds = 1 << 20);

/// \brief E[d(answer, clustering(pw))] by exhaustive enumeration, with the
/// paper's absent-keys-share-a-cluster convention.
Result<double> EnumExpectedClusteringDistance(const AndXorTree& tree,
                                              const ClusteringAnswer& answer,
                                              size_t max_worlds = 1 << 20);

/// \brief Pairwise-disagreement distance between two clusterings over the
/// same key universe.
double ClusteringDistance(const ClusteringAnswer& a, const ClusteringAnswer& b);

}  // namespace cpdb

#endif  // CPDB_CORE_EVALUATION_H_
