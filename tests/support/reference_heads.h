// Copyright 2026 The ConsensusDB Authors
//
// By-key reference heads: the consensus Top-k objectives of Section 5 and
// the baselines that read a RankDistribution, written against its by-key
// accessors (PrRankEq, PrRankLe, PrTopK, PrBeyondK — one binary search per
// read). The library's heads read each key's row once instead; these forms
// keep the original per-rank lookups and summation order so the tests can
// pin the row-addressed heads to them bit for bit.

#ifndef CPDB_TESTS_SUPPORT_REFERENCE_HEADS_H_
#define CPDB_TESTS_SUPPORT_REFERENCE_HEADS_H_

#include <vector>

#include "common/result.h"
#include "core/rank_distribution.h"
#include "core/topk_symdiff.h"

namespace cpdb {
namespace by_key {

// -- Footrule (Section 5.4) -------------------------------------------------

/// \brief Upsilon2(t) = sum_{i<=k} i * Pr(r(t) = i).
double Upsilon2(const RankDistribution& dist, KeyId key);

/// \brief Upsilon3(t, i) = sum_{j<=k} |i-j| Pr(r(t)=j) + i Pr(r(t)>k).
double Upsilon3(const RankDistribution& dist, KeyId key, int i);

/// \brief The assignment cost f(t, i) of placing tuple t at position i.
double FootrulePositionCost(const RankDistribution& dist, KeyId key,
                            int position);

/// \brief E[F^(k+1)(answer, topk(pw))].
double ExpectedTopKFootrule(const RankDistribution& dist,
                            const std::vector<KeyId>& answer);

/// \brief Entry i - 1 is FootrulePositionCost(dist, key, i), i = 1..k.
std::vector<double> FootruleCostColumn(const RankDistribution& dist,
                                       KeyId key);

/// \brief The mean footrule answer: by-key columns, the library's Hungarian
/// solve, and the by-key expected distance.
Result<TopKResult> MeanTopKFootrule(const RankDistribution& dist);

// -- Intersection (Section 5.3) ---------------------------------------------

/// \brief E[d_I(answer, topk(pw))].
double ExpectedTopKIntersection(const RankDistribution& dist,
                                const std::vector<KeyId>& answer);

/// \brief sum_{i=position..k} Pr(r(key) <= i) / i.
double IntersectionPositionProfit(const RankDistribution& dist, KeyId key,
                                  int position);

/// \brief Entry j - 1 is IntersectionPositionProfit(dist, key, j).
std::vector<double> IntersectionProfitColumn(const RankDistribution& dist,
                                             KeyId key);

/// \brief The exact mean intersection answer over by-key columns.
Result<TopKResult> MeanTopKIntersectionExact(const RankDistribution& dist);

/// \brief Upsilon_H(t) = sum_{i=1..k} Pr(r(t) <= i) / i.
double UpsilonH(const RankDistribution& dist, KeyId key);

/// \brief The H_k-approximate answer, stable-sorting keys with a comparator
/// that sums Upsilon_H twice per comparison.
TopKResult MeanTopKIntersectionApprox(const RankDistribution& dist);

// -- Symmetric difference (Section 5.2) -------------------------------------

double ExpectedTopKSymDiff(const RankDistribution& dist,
                           const std::vector<KeyId>& answer);
TopKResult MeanTopKSymDiff(const RankDistribution& dist);
TopKResult MeanTopKSymDiffUnrestricted(const RankDistribution& dist);

// -- Baselines ---------------------------------------------------------------

std::vector<KeyId> ProbabilisticThresholdTopK(const RankDistribution& dist,
                                              double threshold);
std::vector<KeyId> GlobalTopK(const RankDistribution& dist);
std::vector<KeyId> TopKByPRF(const RankDistribution& dist,
                             const std::vector<double>& weights);

}  // namespace by_key
}  // namespace cpdb

#endif  // CPDB_TESTS_SUPPORT_REFERENCE_HEADS_H_
