// Copyright 2026 The ConsensusDB Authors
//
// Monte-Carlo estimation of the expected-distance objectives, with standard
// errors and normal-approximation confidence intervals. Enumeration
// (core/evaluation.h) is exact but exponential; the estimators here scale to
// arbitrary instances and are used by tests as an independent ground truth
// and by users when a quick unbiased estimate suffices. Each estimator
// threads one Rng through all of its samples, so a run is reproducible from
// the Rng's seed alone.

#ifndef CPDB_CORE_MONTE_CARLO_H_
#define CPDB_CORE_MONTE_CARLO_H_

#include <functional>
#include <vector>

#include "common/rng.h"
#include "core/evaluation.h"
#include "model/and_xor_tree.h"

namespace cpdb {

/// \brief A Monte-Carlo estimate with uncertainty.
struct McEstimate {
  double mean = 0.0;
  double std_error = 0.0;
  int samples = 0;

  double ci95_low() const { return mean - 1.96 * std_error; }
  double ci95_high() const { return mean + 1.96 * std_error; }

  /// \brief True iff `value` lies inside the central interval of
  /// `z` standard errors.
  bool Covers(double value, double z = 3.0) const {
    return value >= mean - z * std_error && value <= mean + z * std_error;
  }
};

/// \brief Estimates E[f(pw)] by sampling worlds; `f` maps a sampled world's
/// sorted leaf ids to a real value. Uses Welford's online variance;
/// std_error is 0 for fewer than two samples.
McEstimate EstimateOverWorlds(
    const AndXorTree& tree, int num_samples, Rng* rng,
    const std::function<double(const std::vector<NodeId>&)>& f);

/// \brief E[d(answer, topk(pw))] with uncertainty.
McEstimate McExpectedTopKDistance(const AndXorTree& tree,
                                  const std::vector<KeyId>& answer, int k,
                                  TopKMetric metric, int num_samples,
                                  Rng* rng);

/// \brief E[d(world, pw)] with uncertainty, over leaf-id sets.
McEstimate McExpectedSetDistance(const AndXorTree& tree,
                                 const std::vector<NodeId>& world,
                                 SetMetric metric, int num_samples, Rng* rng);

}  // namespace cpdb

#endif  // CPDB_CORE_MONTE_CARLO_H_
