// Copyright 2026 The ConsensusDB Authors

#include "support/reference_heads.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "core/topk_footrule.h"
#include "core/topk_intersection.h"

namespace cpdb {
namespace by_key {

namespace {

// Stable-sorts keys by a per-key value (descending) and returns the first k.
std::vector<KeyId> TopKeysByValue(const std::vector<KeyId>& keys,
                                  const std::map<KeyId, double>& value,
                                  int k) {
  std::vector<KeyId> sorted = keys;
  std::stable_sort(sorted.begin(), sorted.end(), [&](KeyId a, KeyId b) {
    return value.at(a) > value.at(b);
  });
  if (static_cast<int>(sorted.size()) > k) {
    sorted.resize(static_cast<size_t>(k));
  }
  return sorted;
}

double FootruleConstant(const RankDistribution& dist) {
  double c = 0.0;
  for (KeyId key : dist.keys()) {
    c += (dist.k() + 1) * dist.PrTopK(key) - by_key::Upsilon2(dist, key);
  }
  return c;
}

}  // namespace

double Upsilon2(const RankDistribution& dist, KeyId key) {
  double v = 0.0;
  for (int i = 1; i <= dist.k(); ++i) v += i * dist.PrRankEq(key, i);
  return v;
}

double Upsilon3(const RankDistribution& dist, KeyId key, int i) {
  double v = 0.0;
  for (int j = 1; j <= dist.k(); ++j) {
    v += std::abs(i - j) * dist.PrRankEq(key, j);
  }
  v += i * dist.PrBeyondK(key);
  return v;
}

double FootrulePositionCost(const RankDistribution& dist, KeyId key,
                            int position) {
  const int k = dist.k();
  double upsilon3_prime = 0.0;
  for (int j = 1; j <= k; ++j) {
    upsilon3_prime += std::abs(position - j) * dist.PrRankEq(key, j);
  }
  return upsilon3_prime + (k + 1 - position) * dist.PrBeyondK(key) -
         (k + 1) * dist.PrTopK(key) + by_key::Upsilon2(dist, key);
}

double ExpectedTopKFootrule(const RankDistribution& dist,
                            const std::vector<KeyId>& answer) {
  double total = FootruleConstant(dist);
  for (size_t i = 0; i < answer.size(); ++i) {
    total += by_key::FootrulePositionCost(dist, answer[i],
                                          static_cast<int>(i) + 1);
  }
  return total;
}

std::vector<double> FootruleCostColumn(const RankDistribution& dist,
                                       KeyId key) {
  std::vector<double> column(static_cast<size_t>(dist.k()), 0.0);
  for (int i = 1; i <= dist.k(); ++i) {
    column[static_cast<size_t>(i - 1)] =
        by_key::FootrulePositionCost(dist, key, i);
  }
  return column;
}

Result<TopKResult> MeanTopKFootrule(const RankDistribution& dist) {
  std::vector<std::vector<double>> columns;
  for (KeyId key : dist.keys()) {
    columns.push_back(by_key::FootruleCostColumn(dist, key));
  }
  CPDB_ASSIGN_OR_RETURN(TopKResult result,
                        MeanTopKFootruleFromColumns(dist, columns));
  result.expected_distance = by_key::ExpectedTopKFootrule(dist, result.keys);
  return result;
}

double ExpectedTopKIntersection(const RankDistribution& dist,
                                const std::vector<KeyId>& answer) {
  const int k = dist.k();
  double total = 0.0;
  for (int i = 1; i <= k; ++i) {
    double sum_all = 0.0;
    for (KeyId key : dist.keys()) sum_all += dist.PrRankLe(key, i);
    double prefix_size = static_cast<double>(
        std::min<size_t>(answer.size(), static_cast<size_t>(i)));
    double sum_prefix = 0.0;
    for (size_t j = 0; j < answer.size() && j < static_cast<size_t>(i); ++j) {
      sum_prefix += dist.PrRankLe(answer[j], i);
    }
    total += (prefix_size + sum_all - 2.0 * sum_prefix) / (2.0 * i);
  }
  return total / k;
}

double IntersectionPositionProfit(const RankDistribution& dist, KeyId key,
                                  int position) {
  double profit = 0.0;
  for (int i = position; i <= dist.k(); ++i) {
    profit += dist.PrRankLe(key, i) / i;
  }
  return profit;
}

std::vector<double> IntersectionProfitColumn(const RankDistribution& dist,
                                             KeyId key) {
  std::vector<double> column(static_cast<size_t>(dist.k()), 0.0);
  for (int j = 1; j <= dist.k(); ++j) {
    column[static_cast<size_t>(j - 1)] =
        by_key::IntersectionPositionProfit(dist, key, j);
  }
  return column;
}

Result<TopKResult> MeanTopKIntersectionExact(const RankDistribution& dist) {
  std::vector<std::vector<double>> columns;
  for (KeyId key : dist.keys()) {
    columns.push_back(by_key::IntersectionProfitColumn(dist, key));
  }
  CPDB_ASSIGN_OR_RETURN(TopKResult result,
                        MeanTopKIntersectionExactFromColumns(dist, columns));
  result.expected_distance =
      by_key::ExpectedTopKIntersection(dist, result.keys);
  return result;
}

double UpsilonH(const RankDistribution& dist, KeyId key) {
  return by_key::IntersectionPositionProfit(dist, key, 1);
}

TopKResult MeanTopKIntersectionApprox(const RankDistribution& dist) {
  std::vector<KeyId> keys = dist.keys();
  std::stable_sort(keys.begin(), keys.end(), [&](KeyId a, KeyId b) {
    return by_key::UpsilonH(dist, a) > by_key::UpsilonH(dist, b);
  });
  TopKResult result;
  size_t take = std::min<size_t>(keys.size(), static_cast<size_t>(dist.k()));
  result.keys.assign(keys.begin(), keys.begin() + take);
  result.expected_distance =
      by_key::ExpectedTopKIntersection(dist, result.keys);
  return result;
}

double ExpectedTopKSymDiff(const RankDistribution& dist,
                           const std::vector<KeyId>& answer) {
  double sum_all = 0.0;
  for (KeyId key : dist.keys()) sum_all += dist.PrTopK(key);
  double sum_answer = 0.0;
  for (KeyId key : answer) sum_answer += dist.PrTopK(key);
  return (static_cast<double>(answer.size()) + sum_all - 2.0 * sum_answer) /
         (2.0 * dist.k());
}

TopKResult MeanTopKSymDiff(const RankDistribution& dist) {
  std::vector<KeyId> keys = dist.keys();
  std::stable_sort(keys.begin(), keys.end(), [&](KeyId a, KeyId b) {
    return dist.PrTopK(a) > dist.PrTopK(b);
  });
  TopKResult result;
  size_t take = std::min<size_t>(keys.size(), static_cast<size_t>(dist.k()));
  result.keys.assign(keys.begin(), keys.begin() + take);
  result.expected_distance = by_key::ExpectedTopKSymDiff(dist, result.keys);
  return result;
}

TopKResult MeanTopKSymDiffUnrestricted(const RankDistribution& dist) {
  std::vector<KeyId> keys;
  for (KeyId key : dist.keys()) {
    if (dist.PrTopK(key) > 0.5) keys.push_back(key);
  }
  std::stable_sort(keys.begin(), keys.end(), [&](KeyId a, KeyId b) {
    return dist.PrTopK(a) > dist.PrTopK(b);
  });
  TopKResult result;
  result.keys = std::move(keys);
  result.expected_distance = by_key::ExpectedTopKSymDiff(dist, result.keys);
  return result;
}

std::vector<KeyId> ProbabilisticThresholdTopK(const RankDistribution& dist,
                                              double threshold) {
  std::vector<KeyId> selected;
  for (KeyId key : dist.keys()) {
    if (dist.PrTopK(key) >= threshold) selected.push_back(key);
  }
  std::stable_sort(selected.begin(), selected.end(), [&](KeyId a, KeyId b) {
    return dist.PrTopK(a) > dist.PrTopK(b);
  });
  return selected;
}

std::vector<KeyId> GlobalTopK(const RankDistribution& dist) {
  std::map<KeyId, double> value;
  for (KeyId key : dist.keys()) value[key] = dist.PrTopK(key);
  return TopKeysByValue(dist.keys(), value, dist.k());
}

std::vector<KeyId> TopKByPRF(const RankDistribution& dist,
                             const std::vector<double>& weights) {
  std::map<KeyId, double> value;
  for (KeyId key : dist.keys()) {
    double v = 0.0;
    for (int i = 1; i <= dist.k() && i <= static_cast<int>(weights.size());
         ++i) {
      v += weights[static_cast<size_t>(i - 1)] * dist.PrRankEq(key, i);
    }
    value[key] = v;
  }
  return TopKeysByValue(dist.keys(), value, dist.k());
}

}  // namespace by_key
}  // namespace cpdb
