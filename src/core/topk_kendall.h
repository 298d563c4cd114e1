// Copyright 2026 The ConsensusDB Authors
//
// Consensus Top-k answers under the Kendall tau distance K^(0) (Section 5.5
// of the paper). Exact optimization is NP-hard already for aggregating four
// rankings (Dwork et al.), hence the paper settles for constant-factor
// approximations driven by the pairwise order probabilities
// Pr(r(t_i) < r(t_j)), which are poly-time computable on and/xor trees.
//
// The expected distance itself decomposes over key pairs:
//   E[d_K(tau, topk(pw))] = sum_{tau ranks t before u} q(u, t)
//                         + sum_{t in tau, u notin tau} q(u, t)
// with q(u, t) = Pr(r(u) <= k and r(u) < r(t)), so we can evaluate any
// candidate answer exactly — this powers both the approximation-ratio
// experiments and the small-instance exact baseline.
//
// Substitution note (DESIGN.md): Ailon's 3/2-approximation rounds an LP; we
// implement the LP-free alternatives the paper itself references — the
// footrule-optimal answer (2-approximation via the metric equivalence class)
// and KwikSort-style pivoting on the pairwise majority tournament.

#ifndef CPDB_CORE_TOPK_KENDALL_H_
#define CPDB_CORE_TOPK_KENDALL_H_

#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "core/rank_distribution.h"
#include "core/topk_symdiff.h"
#include "model/and_xor_tree.h"

namespace cpdb {

/// \brief q(u, t) = Pr(r(u) <= k and r(u) < r(t)): u makes the Top-k and
/// ranks ahead of t (t absent or ranked below both count), over an already
/// compiled tree — callers folding many cells pay the compile once per tree.
double PrInTopKAndBefore(const FlatTree& flat, KeyId u, KeyId t, int k);

/// \brief Holds pairwise q statistics as columns — column t stores q(u, t)
/// for every key u of the tree — and evaluates E[d_K(answer, topk(pw))] for
/// candidate answers. The expectation reads only the columns of the
/// answer's own keys, so an evaluator holds either every column (the
/// constructor) or exactly one answer's (Create).
class KendallEvaluator {
 public:
  /// All |keys| columns: O(|keys|^2) cells, each one flat fold per
  /// alternative of u. What the exact and pivot searches need, since they
  /// score many answers.
  KendallEvaluator(const AndXorTree& tree, int k);

  /// \brief Adopts the q columns of one answer:
  /// columns[p][i] = q(keys[i], answer[p]) over keys = tree.Keys() (the
  /// cell with keys[i] == answer[p] is ignored). That is the (n-1)·|answer|
  /// cells Expected(answer) reads, out of n(n-1); callers fold them in
  /// parallel — the engine fans one PrInTopKAndBefore per cell across its
  /// pool — while this class stays thread-free. Q(u, t) for a key t of
  /// the tree outside `answer` is NaN, so an expectation that would read a
  /// missing column comes out NaN rather than silently wrong. Mis-shaped
  /// input (not one column per answer key, a column not of length |keys|,
  /// an answer key that is repeated or not a key of the tree) is
  /// InvalidArgument.
  static Result<KendallEvaluator> Create(
      const AndXorTree& tree, int k, const std::vector<KeyId>& answer,
      std::vector<std::vector<double>> columns);

  int k() const { return k_; }
  const std::vector<KeyId>& keys() const { return keys_; }

  /// \brief q(u, t) for keys of the tree; 0 when u or t is not a key, NaN
  /// when this evaluator holds no column for t.
  double Q(KeyId u, KeyId t) const;

  /// \brief E[d_K(answer, topk(pw))] for an ordered candidate answer of
  /// distinct keys.
  double Expected(const std::vector<KeyId>& answer) const;

 private:
  // The key index with no column held; both public forms start here.
  KendallEvaluator(int k, std::vector<KeyId> keys);

  int k_;
  std::vector<KeyId> keys_;
  std::vector<std::vector<double>> columns_;  // columns_[c][u_idx]
  std::vector<int> column_of_;    // by key index; -1 = no column held
  std::vector<int> index_of_key_;  // dense map; keys are validated ids
  void BuildKeyIndex();
  int IndexOf(KeyId key) const;
};

/// \brief KwikSort-style aggregation: ranks all keys by randomized pivoting
/// on the majority tournament Pr(r(i) < r(j)) >= 1/2 and returns the first k.
Result<TopKResult> MeanTopKKendallPivot(const KendallEvaluator& evaluator,
                                        const std::vector<std::vector<double>>& order_probs,
                                        Rng* rng);

/// \brief The footrule-optimal answer re-scored under d_K (a
/// 2-approximation by the Fagin et al. equivalence class).
Result<TopKResult> MeanTopKKendallViaFootrule(const KendallEvaluator& evaluator,
                                              const RankDistribution& dist);

/// \brief Re-scores an already computed answer under d_K — the tail of
/// MeanTopKKendallViaFootrule, split out so the engine can re-score with an
/// evaluator over the q columns it folded across its thread pool.
TopKResult RescoreUnderKendall(const KendallEvaluator& evaluator,
                               TopKResult answer);

/// \brief Exact mean answer by exhaustive search over ordered k-subsets of
/// the candidate keys (those with Pr(r(t) <= k) > 0). Exponential; fails
/// unless the candidate count is at most `max_candidates`.
Result<TopKResult> MeanTopKKendallExact(const KendallEvaluator& evaluator,
                                        const RankDistribution& dist,
                                        int max_candidates = 10);

/// \brief Exact mean answer by a Held-Karp style subset DP: the objective
/// E[d_K] decomposes as sum over ordered answer pairs of q(later, earlier)
/// plus a boundary term per chosen set, so
///   f(S) = min_{t in S} f(S \ {t}) + sum_{p in S \ {t}} q(t, p)
/// gives the best internal ordering of each subset, and the optimum is
/// min_{|S| = k} f(S) + boundary(S). O(2^c c^2) for c candidates — exact up
/// to `max_candidates` around 20 instead of the factorial brute force's ~10.
Result<TopKResult> MeanTopKKendallExactDp(const KendallEvaluator& evaluator,
                                          const RankDistribution& dist,
                                          int max_candidates = 20);

}  // namespace cpdb

#endif  // CPDB_CORE_TOPK_KENDALL_H_
