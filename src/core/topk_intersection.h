// Copyright 2026 The ConsensusDB Authors
//
// Mean Top-k answers under the intersection metric d_I (Section 5.3 of the
// paper): exact optimization via an assignment problem between Top-k
// positions and tuples, and the H_k-approximation obtained by ranking tuples
// by the Upsilon_H parameterized ranking function
//   Upsilon_H(t) = sum_{i=1..k} Pr(r(t) <= i) / i.

#ifndef CPDB_CORE_TOPK_INTERSECTION_H_
#define CPDB_CORE_TOPK_INTERSECTION_H_

#include <vector>

#include "common/result.h"
#include "core/rank_distribution.h"
#include "core/topk_symdiff.h"

namespace cpdb {

/// \brief E[d_I(answer, topk(pw))] =
/// (1/k) sum_{i=1..k} (1/2i)(|answer^i| + sum_t Pr(r(t)<=i)
///                           - 2 sum_{t in answer^i} Pr(r(t)<=i)).
/// Reads rows; each answer key is looked up once.
double ExpectedTopKIntersection(const RankDistribution& dist,
                                const std::vector<KeyId>& answer);

/// \brief Exact mean Top-k answer under d_I via the Hungarian algorithm
/// (O(n k^2) with potentials). Requires at least k keys.
Result<TopKResult> MeanTopKIntersectionExact(const RankDistribution& dist);

/// \brief The assignment profits of the candidate in row `row` of `dist`:
/// entry j - 1 is the profit of placing it at position j,
/// sum_{i=j..k} Pr(r(t) <= i) / i, for positions j = 1..k — the exact mean
/// answer maximizes the total profit of a position->tuple assignment.
std::vector<double> IntersectionProfitColumn(const RankDistribution& dist,
                                             int row);

/// \brief MeanTopKIntersectionExact from externally computed candidate
/// columns (columns[t] = IntersectionProfitColumn(dist, t)), for callers
/// that build the columns themselves. Fails on fewer than k keys (the check
/// MeanTopKIntersectionExact runs before any column) and on a column count
/// or length mismatch.
Result<TopKResult> MeanTopKIntersectionExactFromColumns(
    const RankDistribution& dist,
    const std::vector<std::vector<double>>& columns);

/// \brief H_k-approximate mean answer: the k tuples with the largest
/// Upsilon_H(t) = sum_{i=1..k} Pr(r(t) <= i)/i values (a special case of
/// the parameterized ranking functions of Li-Saha-Deshpande), in that
/// order. Upsilon_H is computed once per key. The paper proves
/// A(approx) >= A(optimal) / H_k for the profit objective A.
TopKResult MeanTopKIntersectionApprox(const RankDistribution& dist);

}  // namespace cpdb

#endif  // CPDB_CORE_TOPK_INTERSECTION_H_
