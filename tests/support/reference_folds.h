// Copyright 2026 The ConsensusDB Authors
//
// Pointer-tree reference folds: each function below evaluates one of the
// library's generating functions with the EvalGeneratingFunction template
// (generating_function.h) over Poly1/Poly2 values, walking the AndXorTree's
// parent/child pointers. The library computes every one of them over a
// compiled FlatTree instead; these forms exist only so the differential
// tests can assert the flat results bit for bit (same leaf polynomials,
// same combination order) and the benches can measure the gap.

#ifndef CPDB_TESTS_SUPPORT_REFERENCE_FOLDS_H_
#define CPDB_TESTS_SUPPORT_REFERENCE_FOLDS_H_

#include <vector>

#include "core/rank_distribution.h"
#include "model/and_xor_tree.h"

namespace cpdb {

/// \brief Pointer-tree LeafRankContribution: entry i (size k + 1, entry 0
/// unused) is Pr(`target` is present and ranked i-th). `target` is a
/// NodeId, not a leaf-table index.
std::vector<double> LeafRankContribution(const AndXorTree& tree, NodeId target,
                                         int k);

/// \brief Pointer-tree ComputeRankDistribution: one LeafRankContribution per
/// leaf in LeafIds() order, merged through RankDistributionBuilder.
RankDistribution ComputeRankDistributionPointer(const AndXorTree& tree, int k);

/// \brief Pointer-tree PrRanksBefore: Pr(r(u) < r(v)).
double PrRanksBeforePointer(const AndXorTree& tree, KeyId u, KeyId v);

/// \brief Pointer-tree q(u, t) = Pr(r(u) <= k and r(u) < r(t)).
double PrInTopKAndBefore(const AndXorTree& tree, KeyId u, KeyId t, int k);

/// \brief Pointer-tree co-clustering weight w_ij of the general (non-BID)
/// ClusteringProblem::FromTree branch: sum over shared labels a of
/// Pr(i.A = a and j.A = a), plus Pr(i and j both absent).
double PairCoClusterPointer(const AndXorTree& tree, KeyId ki, KeyId kj);

/// \brief Pointer-tree ExpectedJaccardDistance (Lemma 1). `world` must be
/// sorted.
double ExpectedJaccardDistancePointer(const AndXorTree& tree,
                                      const std::vector<NodeId>& world);

}  // namespace cpdb

#endif  // CPDB_TESTS_SUPPORT_REFERENCE_FOLDS_H_
