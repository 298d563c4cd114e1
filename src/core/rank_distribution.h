// Copyright 2026 The ConsensusDB Authors
//
// Rank distributions over and/xor trees (Example 3 / Section 5 of the
// paper). For each probabilistic tuple t, Pr(r(t) = i) is the probability
// that t appears in a random possible world ranked i-th by score; absent
// tuples have rank infinity, so Pr(r(t) > k) includes absence. These
// distributions are the sufficient statistics for every consensus Top-k
// computation in Section 5.

#ifndef CPDB_CORE_RANK_DISTRIBUTION_H_
#define CPDB_CORE_RANK_DISTRIBUTION_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "model/and_xor_tree.h"
#include "model/flat_tree.h"

namespace cpdb {

/// \brief Pr(r(t) = i) and Pr(r(t) <= i) for every key and every i in 1..k.
///
/// Paper semantics: these positional probabilities are the sufficient
/// statistics of Section 5 — every consensus Top-k objective (mean answers
/// under d_Delta, d_I, F^(k+1)) is a linear functional of them, which is
/// why "compute the rank distribution once, then optimize" is the uniform
/// algorithmic pattern.
///
/// Rows are addressed by index into keys(): row(t) is O(1), and the metric
/// heads read each key's row once instead of looking keys up per rank. The
/// by-key accessors (PrRankEq and friends) find the row by binary search
/// over the sorted keys, O(log n) per call; there is no key index map.
///
/// A distribution is an immutable view of a shared table: copies and At()
/// views share the rows instead of copying them. Every fold of
/// this library sums each Pr(r = i) in the same order whatever k it is
/// truncated at, so the k-prefix of a fold at a wider K is bitwise the fold
/// at k — which is what lets one wide fold answer every narrower k.
///
/// A view may claim a k above its table's width: a world ranks at most n
/// tuples (same-key alternatives are exclusive), so a fold at any k >= n
/// stores zeros beyond rank n, and a table folded at n reads exactly like
/// it — Pr(r = i) is 0 and Pr(r <= i) is Pr(r <= n) for i beyond the width.
class RankDistribution {
 public:
  int k() const { return k_; }

  /// \brief The ranks this view stores, min(k(), table width); every rank
  /// beyond it reads Pr(r = i) = 0 and Pr(r <= i) = Pr(r <= width()).
  int width() const { return std::min(k_, table_->width); }

  /// \brief Keys covered, ascending (all keys of the generating tree).
  /// Views of one table return the same vector.
  const std::vector<KeyId>& keys() const { return table_->keys; }

  /// \brief One key's distribution as this view reads it: `eq[i]` is
  /// Pr(r = i) and `le[i]` is Pr(r <= i) for i in [0, width] (index 0 holds
  /// 0). Eq/Le extend that to every rank the view claims.
  struct Row {
    const double* eq;
    const double* le;
    int width;
    double Eq(int i) const { return i >= 1 && i <= width ? eq[i] : 0.0; }
    double Le(int i) const { return i < 1 ? 0.0 : le[std::min(i, width)]; }
    /// Pr(r <= k) for the view's k: the Top-k membership probability.
    double TopK() const { return le[width]; }
    /// Pr(r > k), including absence.
    double BeyondK() const { return 1.0 - TopK(); }
  };

  /// \brief The row of keys()[index]. O(1).
  Row row(int index) const {
    const size_t t = static_cast<size_t>(index);
    return Row{table_->pr_eq[t].data(), table_->pr_le[t].data(), width()};
  }

  /// \brief The index of `key` in keys(), or -1 when it is not covered.
  /// O(log n) binary search.
  int FindRow(KeyId key) const;

  /// \brief The row of `key`, or an all-zero row (Pr(r = i) = 0 at every
  /// rank) when the key is not covered: what the by-key accessors read.
  /// One binary search.
  Row RowOf(KeyId key) const;

  /// \brief Pr(r(key) = i): the probability some alternative of `key` is
  /// present and ranked exactly i-th by score. 0 for i outside [1, k] or
  /// unknown keys. O(log n) per call.
  double PrRankEq(KeyId key, int i) const;

  /// \brief Pr(r(key) <= i) for i in [1, k]; 0 for i < 1; PrTopK for i > k.
  /// Precomputed prefix sums, so O(log n) per call.
  double PrRankLe(KeyId key, int i) const;

  /// \brief Pr(r(key) <= k): the probability the tuple makes the Top-k —
  /// the Global-Top-k / PT-k statistic of Theorem 3. O(log n) per call.
  double PrTopK(KeyId key) const { return PrRankLe(key, k_); }

  /// \brief Pr(r(key) > k), including the probability the tuple is absent
  /// (absent tuples have rank infinity). O(log n) per call.
  double PrBeyondK(KeyId key) const { return 1.0 - PrTopK(key); }

  /// \brief Whether At(k) reads exactly like a fold at `k`: k <= this->k(),
  /// or this view is complete (k() >= keys().size(), so it holds every rank
  /// a tuple can take).
  bool Covers(int k) const;

  /// \brief The view at cutoff `k`. It shares this distribution's table —
  /// no row is copied — and when Covers(k) it reads exactly like a fold at
  /// `k`: PrRankEq is 0 beyond `k` and PrRankLe clamps at it. A k this view
  /// does not cover clamps to k() (a view widens only when complete);
  /// negative k clamps to 0. O(1).
  RankDistribution At(int k) const;

  /// \brief Approximate heap footprint in bytes of the shared table — the
  /// eviction cost the serving layer's byte-budgeted caches charge for
  /// retaining this distribution (an At() view reports its table's
  /// full-width charge, since holding it keeps that table alive).
  /// Computed from element *counts* (sizes, not allocator capacities), so
  /// the figure is a deterministic function of (keys, table width):
  /// budget-driven eviction decisions replay identically across runs and
  /// platforms. O(1).
  int64_t ApproxBytes() const;

 private:
  friend class RankDistributionBuilder;
  // The rows every view of one fold shares; `width` is the k they were
  // folded at. Row t belongs to keys[t], and keys ascend.
  struct Table {
    int width = 0;
    std::vector<KeyId> keys;
    // pr_eq[t][i] = Pr(r(keys[t]) = i); index 0 unused (0).
    std::vector<std::vector<double>> pr_eq;
    std::vector<std::vector<double>> pr_le;
  };
  RankDistribution(int k, std::shared_ptr<const Table> table)
      : k_(k), table_(std::move(table)) {}

  int k_ = 0;
  std::shared_ptr<const Table> table_;
};

/// \brief Assembles a RankDistribution from externally computed
/// Pr(r(key) = i) values (used by the fast block-independent algorithm in
/// rank_distribution_fast.h and by MergeLeafRankContributions).
/// Build() sorts keys and finalizes prefix sums in O(n (log n + k)).
class RankDistributionBuilder {
 public:
  explicit RankDistributionBuilder(int k);

  /// \brief Registers `key` with an all-zero distribution if absent (keys
  /// that never reach the Top-k must still appear in keys()).
  void EnsureKey(KeyId key);

  /// \brief Adds `prob` to Pr(r(key) = i); creates the key on first use.
  void Add(KeyId key, int i, double prob);

  /// \brief Finalizes prefix sums and returns the distribution. The key
  /// index used while building is dropped: the result addresses rows by
  /// their position in the sorted keys.
  RankDistribution Build() &&;

 private:
  // The row slot of `key` (rows in registration order), registering an
  // all-zero row on first use.
  int Slot(KeyId key);

  std::shared_ptr<RankDistribution::Table> table_;
  std::map<KeyId, int> index_;
};

/// \brief The contribution of one leaf to its key's rank distribution:
/// entry i of the returned vector (size k + 1, entry 0 unused) is
/// Pr(`target` is present and ranked i-th), i.e. the coefficient of
/// x^{i-1} y^1 of the leaf's bivariate generating function. Summing over a
/// key's alternatives yields Pr(r(key) = i). One evaluation costs O(L k)
/// for L leaves; this is the unit of work the parallel engine distributes.
///
/// `target` indexes flat.leaves() (left-to-right DFS order ==
/// AndXorTree::LeafIds() order). Per-target leaf classification is a linear
/// scan over the packed leaf table and all polynomial scratch lives in this
/// thread's reusable arena, so repeated calls over one compiled tree
/// allocate only the returned vector.
std::vector<double> LeafRankContribution(const FlatTree& flat, int target,
                                         int k);

/// \brief Sums per-leaf LeafRankContribution vectors (`contributions[l]`
/// for flat leaf l) into every key's rank distribution, in leaf-table
/// order — the one accumulation order behind both ComputeRankDistribution
/// and Engine::ComputeRankDistribution's parallel form, so the two agree
/// bit for bit.
RankDistribution MergeLeafRankContributions(
    const FlatTree& flat, int k,
    const std::vector<std::vector<double>>& contributions);

/// \brief Computes the rank distribution of every key, truncated at rank k.
///
/// Implementation (Example 3): for each tuple alternative a with score s,
/// the bivariate generating function with variable x on higher-scoring
/// leaves of other keys and y on a has Pr(rank via a = i) as the coefficient
/// of x^{i-1} y; summing over a's alternatives gives the key's distribution.
/// Cost O(L^2 k) for L leaves (L independent O(L k) leaf evaluations; see
/// LeafRankContribution, the unit the parallel engine distributes).
///
/// Runs the flat fold: the tree is compiled once (FlatTree::Compile) and
/// each leaf evaluation is a linear pass over the instruction stream with
/// arena scratch.
RankDistribution ComputeRankDistribution(const AndXorTree& tree, int k);

/// \brief Pr(r(t_u) < r(t_v)): the probability that key u ranks strictly
/// ahead of key v (v absent counts as rank infinity, so u present with v
/// absent qualifies). Used by Kendall-tau aggregation (Section 5.5).
/// O(A_u L) for A_u alternatives of u over L leaves. Compiles the tree
/// once and runs the flat fold per alternative.
double PrRanksBefore(const AndXorTree& tree, KeyId u, KeyId v);

/// \brief Flat-path PrRanksBefore over an already compiled tree — the form
/// the O(n^2) pairwise loops use so the compile cost is paid once per tree,
/// not once per (u, v) cell.
double PrRanksBefore(const FlatTree& flat, KeyId u, KeyId v);

/// \brief All pairwise order probabilities among `keys`;
/// result[i][j] = Pr(r(keys[i]) < r(keys[j])). Diagonal is 0. The tree is
/// compiled to a FlatTree once and reused across all n^2 cells.
std::vector<std::vector<double>> PairwiseOrderProbabilities(
    const AndXorTree& tree, const std::vector<KeyId>& keys);

}  // namespace cpdb

#endif  // CPDB_CORE_RANK_DISTRIBUTION_H_
