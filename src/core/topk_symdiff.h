// Copyright 2026 The ConsensusDB Authors
//
// Consensus Top-k answers under the (normalized) symmetric difference metric
// d_Delta (Section 5.2 of the paper).
//
// Mean answer (Theorem 3): the k tuples with the largest Pr(r(t) <= k) —
// this is exactly a probabilistic-threshold (PT-k) query with the threshold
// calibrated to return k tuples, and coincides with Global Top-k semantics.
//
// Median answer (Theorem 4): the Top-k answer of some positive-probability
// world maximizing sum_{t in answer} Pr(r(t) <= k), found by a per-score-
// threshold dynamic program over the and/xor tree. We extend the paper's
// algorithm to also consider worlds with fewer than k tuples (the paper
// implicitly assumes |pw| >= k): over variable-size candidates the uniform
// objective is maximizing sum_{t} (Pr(r(t) <= k) - 1/2).

#ifndef CPDB_CORE_TOPK_SYMDIFF_H_
#define CPDB_CORE_TOPK_SYMDIFF_H_

#include <vector>

#include "common/result.h"
#include "core/rank_distribution.h"
#include "model/and_xor_tree.h"

namespace cpdb {

/// \brief A consensus Top-k answer plus its expected distance.
struct TopKResult {
  /// Answer keys in rank order.
  std::vector<KeyId> keys;
  /// E[d(answer, topk(pw))] under the metric of the producing algorithm.
  double expected_distance = 0.0;
};

/// \brief E[d_Delta(answer, topk(pw))] =
/// (|answer| + sum_t Pr(r(t)<=k) - 2 sum_{t in answer} Pr(r(t)<=k)) / (2k).
double ExpectedTopKSymDiff(const RankDistribution& dist,
                           const std::vector<KeyId>& answer);

/// \brief Theorem 3: the mean Top-k answer under d_Delta, ordered by
/// Pr(r(t) <= k) descending. Following the paper, the answer has size
/// exactly k (Omega = sorted lists of size k).
TopKResult MeanTopKSymDiff(const RankDistribution& dist);

/// \brief The size-unrestricted mean answer under d_Delta: all tuples with
/// Pr(r(t) <= k) > 1/2 (the Theorem 2 form applied to Top-k membership).
/// When worlds smaller than k have positive probability this can strictly
/// beat the size-k mean — see DESIGN.md section 4b and experiment E5/E6.
TopKResult MeanTopKSymDiffUnrestricted(const RankDistribution& dist);

/// \brief Theorem 4: a median Top-k answer under d_Delta for an and/xor
/// tree; `dist` must come from ComputeRankDistribution(tree, k).
/// The answer is ordered by tuple score descending (its rank order in the
/// witnessing world).
Result<TopKResult> MedianTopKSymDiff(const AndXorTree& tree,
                                     const RankDistribution& dist);

// -- Stratum decomposition of MedianTopKSymDiff ----------------------------
//
// The Theorem 4 search runs one size-capped max-value DP per distinct leaf
// score (candidates of size exactly k, Top-k answers of realizable worlds)
// plus one DP over the unpruned tree (whole worlds smaller than k). The
// strata are mutually independent, which makes them the unit of work
// Engine::ConsensusTopK fans across its thread pool; MedianTopKSymDiff
// itself evaluates them sequentially and merges with the identical code, so
// the two paths are bitwise-interchangeable.

/// \brief One candidate answer produced by a stratum: the uniform objective
/// sum_{t in tau} (Pr(r(t) <= k) - 1/2) and the witnessing leaves (sorted
/// NodeIds).
struct SymDiffMedianCandidate {
  double centered_value = 0.0;
  std::vector<NodeId> leaves;
};

/// \brief Shared inputs of every stratum, computed once per query (one
/// distinct-score scan and one Pr(r <= k) sweep instead of one per stratum):
/// the Theorem 4 thresholds ascending, the per-node DP values
/// Pr(r(t) <= k), and their centered form Pr(r(t) <= k) - 1/2 (leaves
/// only; other nodes 0). Build with BuildMedianSymDiffContext.
struct MedianSymDiffContext {
  int k = 0;
  /// n, the distribution's key count: no world holds more tuples, so it
  /// caps every stratum's DP size.
  int num_keys = 0;
  std::vector<double> thresholds;
  std::vector<double> value_p;
  std::vector<double> value_centered;
};

/// \brief Precomputes the stratum inputs for MedianTopKSymDiff over `tree`;
/// `dist` must come from ComputeRankDistribution(tree, k).
MedianSymDiffContext BuildMedianSymDiffContext(const AndXorTree& tree,
                                               const RankDistribution& dist);

/// \brief Number of independent search strata: one per distinct leaf score,
/// plus the smaller-than-k stratum. Valid stratum indices are
/// [0, NumMedianSymDiffStrata(context)).
int NumMedianSymDiffStrata(const MedianSymDiffContext& context);

/// \brief Evaluates stratum `stratum`: indices below the distinct-score
/// count run that score-threshold DP (at most one candidate); the final
/// index runs the small-world DP (up to min(k, n + 1) candidates, sizes
/// ascending). Every DP is sized at most n: at k > n the threshold strata
/// return nothing without running one.
/// Candidates are returned in the exact order the sequential scan considers
/// them; infeasible strata return an empty vector. Strata are independent
/// and `context` is only read, so calls may run concurrently.
std::vector<SymDiffMedianCandidate> EvalMedianSymDiffStratum(
    const AndXorTree& tree, const MedianSymDiffContext& context, int stratum);

/// \brief Merges per-stratum candidate lists (indexed by stratum) into the
/// final median answer, replaying the sequential scan's first-improvement
/// order, and finalizes (rank order by score, expected distance). Shared by
/// MedianTopKSymDiff and the engine's parallel path.
Result<TopKResult> PickMedianSymDiffCandidate(
    const AndXorTree& tree, const RankDistribution& dist,
    const std::vector<std::vector<SymDiffMedianCandidate>>& per_stratum);

}  // namespace cpdb

#endif  // CPDB_CORE_TOPK_SYMDIFF_H_
