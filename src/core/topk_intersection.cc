// Copyright 2026 The ConsensusDB Authors

#include "core/topk_intersection.h"

#include <algorithm>
#include <utility>

#include "matching/hungarian.h"

namespace cpdb {

namespace {

// The profit of placing the row's tuple at `position` (1-based):
// sum_{i=position..k} Pr(r(t) <= i) / i.
double PositionProfit(const RankDistribution::Row& row, int k, int position) {
  double profit = 0.0;
  for (int i = position; i <= k; ++i) profit += row.Le(i) / i;
  return profit;
}

Status CheckIntersectionMeanSize(const RankDistribution& dist) {
  if (static_cast<int>(dist.keys().size()) < dist.k()) {
    return Status::InvalidArgument(
        "intersection-metric mean answer needs at least k tuples");
  }
  return Status::OK();
}

}  // namespace

double ExpectedTopKIntersection(const RankDistribution& dist,
                                const std::vector<KeyId>& answer) {
  const int k = dist.k();
  const size_t n = dist.keys().size();
  std::vector<RankDistribution::Row> answer_rows;
  answer_rows.reserve(answer.size());
  for (KeyId key : answer) answer_rows.push_back(dist.RowOf(key));
  double total = 0.0;
  for (int i = 1; i <= k; ++i) {
    double sum_all = 0.0;
    for (size_t t = 0; t < n; ++t) {
      sum_all += dist.row(static_cast<int>(t)).Le(i);
    }
    double prefix_size =
        static_cast<double>(std::min<size_t>(answer.size(), static_cast<size_t>(i)));
    double sum_prefix = 0.0;
    for (size_t j = 0; j < answer.size() && j < static_cast<size_t>(i); ++j) {
      sum_prefix += answer_rows[j].Le(i);
    }
    total += (prefix_size + sum_all - 2.0 * sum_prefix) / (2.0 * i);
  }
  return total / k;
}

std::vector<double> IntersectionProfitColumn(const RankDistribution& dist,
                                             int row) {
  const int k = dist.k();
  const RankDistribution::Row r = dist.row(row);
  std::vector<double> column(static_cast<size_t>(k), 0.0);
  for (int j = 1; j <= k; ++j) {
    column[static_cast<size_t>(j - 1)] = PositionProfit(r, k, j);
  }
  return column;
}

Result<TopKResult> MeanTopKIntersectionExactFromColumns(
    const RankDistribution& dist,
    const std::vector<std::vector<double>>& columns) {
  CPDB_RETURN_NOT_OK(CheckIntersectionMeanSize(dist));
  const int k = dist.k();
  const std::vector<KeyId>& keys = dist.keys();
  if (columns.size() != keys.size()) {
    return Status::InvalidArgument("one profit column per key required");
  }
  // Transpose into the row-major (positions x tuples) matrix the Hungarian
  // solver consumes.
  std::vector<std::vector<double>> profit(
      static_cast<size_t>(k), std::vector<double>(keys.size(), 0.0));
  for (size_t t = 0; t < keys.size(); ++t) {
    if (static_cast<int>(columns[t].size()) != k) {
      return Status::InvalidArgument("profit column has wrong length");
    }
    for (int j = 0; j < k; ++j) {
      profit[static_cast<size_t>(j)][t] = columns[t][static_cast<size_t>(j)];
    }
  }
  CPDB_ASSIGN_OR_RETURN(Assignment assignment, SolveAssignmentMax(profit));
  TopKResult result;
  result.keys.reserve(static_cast<size_t>(k));
  for (int j = 0; j < k; ++j) {
    result.keys.push_back(
        keys[static_cast<size_t>(assignment.row_to_col[static_cast<size_t>(j)])]);
  }
  result.expected_distance = ExpectedTopKIntersection(dist, result.keys);
  return result;
}

Result<TopKResult> MeanTopKIntersectionExact(const RankDistribution& dist) {
  CPDB_RETURN_NOT_OK(CheckIntersectionMeanSize(dist));
  std::vector<std::vector<double>> columns;
  columns.reserve(dist.keys().size());
  for (size_t t = 0; t < dist.keys().size(); ++t) {
    columns.push_back(IntersectionProfitColumn(dist, static_cast<int>(t)));
  }
  return MeanTopKIntersectionExactFromColumns(dist, columns);
}

TopKResult MeanTopKIntersectionApprox(const RankDistribution& dist) {
  // (Upsilon_H, key) in key order, stable-sorted by value: the order a
  // stable sort of the keys by Upsilon_H gives, with one sum per key.
  const int k = dist.k();
  std::vector<std::pair<double, KeyId>> ranked;
  ranked.reserve(dist.keys().size());
  for (size_t t = 0; t < dist.keys().size(); ++t) {
    ranked.emplace_back(PositionProfit(dist.row(static_cast<int>(t)), k, 1),
                        dist.keys()[t]);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const std::pair<double, KeyId>& a,
                      const std::pair<double, KeyId>& b) {
                     return a.first > b.first;
                   });
  TopKResult result;
  size_t take = std::min<size_t>(ranked.size(), static_cast<size_t>(k));
  for (size_t i = 0; i < take; ++i) result.keys.push_back(ranked[i].second);
  result.expected_distance = ExpectedTopKIntersection(dist, result.keys);
  return result;
}

}  // namespace cpdb
