// Copyright 2026 The ConsensusDB Authors

#include "core/topk_footrule.h"

#include <cmath>

#include "matching/hungarian.h"

namespace cpdb {

namespace {

// Upsilon2(t) = sum_{i<=k} i * Pr(r(t) = i), off t's row.
double Upsilon2(const RankDistribution::Row& row, int k) {
  double v = 0.0;
  for (int i = 1; i <= k; ++i) v += i * row.Eq(i);
  return v;
}

// The assignment cost f(t, position) of placing t at `position`, off t's
// row with its Upsilon2 already summed.
double PositionCost(const RankDistribution::Row& row, int k, int position,
                    double upsilon2) {
  double upsilon3_prime = 0.0;  // sum_j |i-j| Pr(r=j), without the absence part
  for (int j = 1; j <= k; ++j) {
    upsilon3_prime += std::abs(position - j) * row.Eq(j);
  }
  return upsilon3_prime + (k + 1 - position) * row.BeyondK() -
         (k + 1) * row.TopK() + upsilon2;
}

// The answer-independent part of E[F^(k+1)]: every tuple that lands in the
// world's Top-k contributes (k+1) - (its rank) when it is not matched by the
// answer; the matched corrections live in PositionCost.
double FootruleConstant(const RankDistribution& dist) {
  const int k = dist.k();
  double c = 0.0;
  for (size_t t = 0; t < dist.keys().size(); ++t) {
    const RankDistribution::Row row = dist.row(static_cast<int>(t));
    c += (k + 1) * row.TopK() - Upsilon2(row, k);
  }
  return c;
}

Status CheckFootruleMeanSize(const RankDistribution& dist) {
  if (static_cast<int>(dist.keys().size()) < dist.k()) {
    return Status::InvalidArgument(
        "footrule mean answer needs at least k tuples");
  }
  return Status::OK();
}

}  // namespace

double ExpectedTopKFootrule(const RankDistribution& dist,
                            const std::vector<KeyId>& answer) {
  const int k = dist.k();
  double total = FootruleConstant(dist);
  for (size_t i = 0; i < answer.size(); ++i) {
    const RankDistribution::Row row = dist.RowOf(answer[i]);
    total += PositionCost(row, k, static_cast<int>(i) + 1, Upsilon2(row, k));
  }
  return total;
}

std::vector<double> FootruleCostColumn(const RankDistribution& dist,
                                       int row) {
  const int k = dist.k();
  const RankDistribution::Row r = dist.row(row);
  const double upsilon2 = Upsilon2(r, k);
  std::vector<double> column(static_cast<size_t>(k), 0.0);
  for (int i = 1; i <= k; ++i) {
    column[static_cast<size_t>(i - 1)] = PositionCost(r, k, i, upsilon2);
  }
  return column;
}

Result<TopKResult> MeanTopKFootruleFromColumns(
    const RankDistribution& dist,
    const std::vector<std::vector<double>>& columns) {
  CPDB_RETURN_NOT_OK(CheckFootruleMeanSize(dist));
  const int k = dist.k();
  const std::vector<KeyId>& keys = dist.keys();
  if (columns.size() != keys.size()) {
    return Status::InvalidArgument("one cost column per key required");
  }
  // Transpose into the row-major (positions x tuples) matrix the Hungarian
  // solver consumes.
  std::vector<std::vector<double>> cost(
      static_cast<size_t>(k), std::vector<double>(keys.size(), 0.0));
  for (size_t t = 0; t < keys.size(); ++t) {
    if (static_cast<int>(columns[t].size()) != k) {
      return Status::InvalidArgument("cost column has wrong length");
    }
    for (int i = 0; i < k; ++i) {
      cost[static_cast<size_t>(i)][t] = columns[t][static_cast<size_t>(i)];
    }
  }
  CPDB_ASSIGN_OR_RETURN(Assignment assignment, SolveAssignmentMin(cost));
  TopKResult result;
  result.keys.reserve(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) {
    result.keys.push_back(
        keys[static_cast<size_t>(assignment.row_to_col[static_cast<size_t>(i)])]);
  }
  result.expected_distance = ExpectedTopKFootrule(dist, result.keys);
  return result;
}

Result<TopKResult> MeanTopKFootrule(const RankDistribution& dist) {
  CPDB_RETURN_NOT_OK(CheckFootruleMeanSize(dist));
  std::vector<std::vector<double>> columns;
  columns.reserve(dist.keys().size());
  for (size_t t = 0; t < dist.keys().size(); ++t) {
    columns.push_back(FootruleCostColumn(dist, static_cast<int>(t)));
  }
  return MeanTopKFootruleFromColumns(dist, columns);
}

}  // namespace cpdb
