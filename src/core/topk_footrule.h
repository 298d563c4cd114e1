// Copyright 2026 The ConsensusDB Authors
//
// Mean Top-k answer under the Spearman footrule metric with location
// parameter k+1 (Section 5.4 of the paper). The expected distance decomposes
// into a constant plus a per-(tuple, position) cost, so the optimum is an
// assignment problem. The per-position statistics are
//   Upsilon1(t)    = Pr(r(t) <= k)
//   Upsilon2(t)    = sum_{i<=k} i * Pr(r(t) = i)
//   Upsilon3(t, i) = sum_{j<=k} |i - j| Pr(r(t) = j) + i * Pr(r(t) > k).
//
// NOTE (reproduction finding, see EXPERIMENTS.md): the final combined
// expression in the paper's Figure 2 drops a (k+1-2i)*Pr(r(t)>k) term while
// folding the derivation into Upsilon3. Re-deriving from the F^(k+1)
// definition (and verifying against exhaustive enumeration in
// tests/topk_footrule_test.cc) gives the assignment cost implemented here:
//   f(t, i) = sum_{j<=k} |i-j| Pr(r(t)=j) + (k+1-i) Pr(r(t)>k)
//             - (k+1) Upsilon1(t) + Upsilon2(t),
// with constant C = k(k+1)*0 + sum_t [(k+1) Upsilon1(t) - Upsilon2(t)].
// The paper's structural claim (polynomial-time mean answer via assignment)
// is unaffected.

#ifndef CPDB_CORE_TOPK_FOOTRULE_H_
#define CPDB_CORE_TOPK_FOOTRULE_H_

#include <vector>

#include "common/result.h"
#include "core/rank_distribution.h"
#include "core/topk_symdiff.h"

namespace cpdb {

/// \brief E[F^(k+1)(answer, topk(pw))], exactly, from the rank distribution.
/// Valid for answers of size exactly k. Reads each key's row once (one
/// binary search per answer key).
double ExpectedTopKFootrule(const RankDistribution& dist,
                            const std::vector<KeyId>& answer);

/// \brief Exact mean Top-k answer under the footrule metric via the
/// Hungarian algorithm. Requires at least k keys.
Result<TopKResult> MeanTopKFootrule(const RankDistribution& dist);

/// \brief The assignment costs of the candidate in row `row` of `dist`
/// (the key dist.keys()[row]): entry i - 1 is f(t, i) for positions
/// i = 1..k. Upsilon2, the Top-k and the beyond-k probabilities are read
/// once per column, the k position costs off the row. Building the k x n
/// cost matrix is the dominant O(n k^2) part of MeanTopKFootrule.
std::vector<double> FootruleCostColumn(const RankDistribution& dist, int row);

/// \brief MeanTopKFootrule from externally computed candidate columns
/// (columns[t] = FootruleCostColumn(dist, t)), for callers that build the
/// columns themselves. Fails on fewer than k keys (the check MeanTopKFootrule
/// runs before any column) and on a column count or length mismatch.
Result<TopKResult> MeanTopKFootruleFromColumns(
    const RankDistribution& dist,
    const std::vector<std::vector<double>>& columns);

}  // namespace cpdb

#endif  // CPDB_CORE_TOPK_FOOTRULE_H_
