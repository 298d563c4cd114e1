// Copyright 2026 The ConsensusDB Authors

#include "core/monte_carlo.h"

#include <cmath>
#include <cstdint>

#include "core/topk_metrics.h"
#include "model/possible_worlds.h"

namespace cpdb {

namespace {

// Welford's numerically stable running mean and sum of squared deviations.
struct Welford {
  int64_t n = 0;
  double mean = 0.0;
  double m2 = 0.0;

  void Add(double x) {
    ++n;
    double delta = x - mean;
    mean += delta / static_cast<double>(n);
    m2 += delta * (x - mean);
  }
};

McEstimate FinishEstimate(const Welford& acc) {
  McEstimate e;
  e.mean = acc.mean;
  e.samples = static_cast<int>(acc.n);
  if (acc.n > 1) {
    double variance = acc.m2 / static_cast<double>(acc.n - 1);
    e.std_error = std::sqrt(variance / static_cast<double>(acc.n));
  }
  return e;
}

}  // namespace

McEstimate EstimateOverWorlds(
    const AndXorTree& tree, int num_samples, Rng* rng,
    const std::function<double(const std::vector<NodeId>&)>& f) {
  Welford acc;
  for (int s = 0; s < num_samples; ++s) {
    acc.Add(f(SampleWorld(tree, rng)));
  }
  return FinishEstimate(acc);
}

McEstimate McExpectedTopKDistance(const AndXorTree& tree,
                                  const std::vector<KeyId>& answer, int k,
                                  TopKMetric metric, int num_samples,
                                  Rng* rng) {
  return EstimateOverWorlds(
      tree, num_samples, rng, [&](const std::vector<NodeId>& world) {
        return TopKListDistance(answer, TopKOfWorld(tree, world, k), k,
                                metric);
      });
}

McEstimate McExpectedSetDistance(const AndXorTree& tree,
                                 const std::vector<NodeId>& world,
                                 SetMetric metric, int num_samples, Rng* rng) {
  return EstimateOverWorlds(
      tree, num_samples, rng, [&](const std::vector<NodeId>& sampled) {
        return SetDistance(world, sampled, metric);
      });
}

}  // namespace cpdb
