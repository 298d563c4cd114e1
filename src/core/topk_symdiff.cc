// Copyright 2026 The ConsensusDB Authors

#include "core/topk_symdiff.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>

#include "common/math_utils.h"

namespace cpdb {

double ExpectedTopKSymDiff(const RankDistribution& dist,
                           const std::vector<KeyId>& answer) {
  double sum_all = 0.0;
  for (size_t t = 0; t < dist.keys().size(); ++t) {
    sum_all += dist.row(static_cast<int>(t)).TopK();
  }
  double sum_answer = 0.0;
  for (KeyId key : answer) sum_answer += dist.RowOf(key).TopK();
  return (static_cast<double>(answer.size()) + sum_all - 2.0 * sum_answer) /
         (2.0 * dist.k());
}

namespace {

// The keys whose Pr(r(t) <= k) passes `keep`, stable-sorted by that
// probability descending (ties keep key order). One row read per key.
template <typename Keep>
std::vector<KeyId> KeysByTopKDescending(const RankDistribution& dist,
                                        Keep keep) {
  std::vector<std::pair<double, KeyId>> ranked;
  for (size_t t = 0; t < dist.keys().size(); ++t) {
    const double p = dist.row(static_cast<int>(t)).TopK();
    if (keep(p)) ranked.emplace_back(p, dist.keys()[t]);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const std::pair<double, KeyId>& a,
                      const std::pair<double, KeyId>& b) {
                     return a.first > b.first;
                   });
  std::vector<KeyId> keys;
  keys.reserve(ranked.size());
  for (const auto& [p, key] : ranked) keys.push_back(key);
  return keys;
}

}  // namespace

TopKResult MeanTopKSymDiff(const RankDistribution& dist) {
  std::vector<KeyId> keys =
      KeysByTopKDescending(dist, [](double) { return true; });
  TopKResult result;
  size_t take = std::min<size_t>(keys.size(), static_cast<size_t>(dist.k()));
  result.keys.assign(keys.begin(), keys.begin() + take);
  result.expected_distance = ExpectedTopKSymDiff(dist, result.keys);
  return result;
}

TopKResult MeanTopKSymDiffUnrestricted(const RankDistribution& dist) {
  // E[d_Delta] = (|tau| + sum_t P(t) - 2 sum_{t in tau} P(t)) / 2k, so a
  // tuple helps exactly when P(t) > 1/2; no size constraint applies.
  TopKResult result;
  result.keys = KeysByTopKDescending(dist, [](double p) { return p > 0.5; });
  result.expected_distance = ExpectedTopKSymDiff(dist, result.keys);
  return result;
}

namespace {

constexpr double kValueEps = 1e-9;

// Size-indexed max-value DP over a (possibly score-pruned) and/xor tree.
// val[s] is the maximum sum of per-leaf values over the positive-probability
// worlds of the subtree with exactly s surviving leaves; kNegInf marks
// infeasible sizes.
struct NodeDp {
  std::vector<double> val;
  // XOR: per size, the chosen child index (-1 = the empty outcome).
  std::vector<int> xor_choice;
  // AND: prefix[i] is the max-plus convolution of children[0..i]'s vals,
  // kept for split reconstruction.
  std::vector<std::vector<double>> and_prefix;
};

class SizeValueDp {
 public:
  // leaf_value[leaf_id] is the DP value of an active leaf; inactive leaves
  // (score below the threshold) are treated as absent from the pruned tree.
  SizeValueDp(const AndXorTree& tree, const std::vector<double>& leaf_value,
              const std::vector<bool>& leaf_active, int max_size)
      : tree_(tree),
        leaf_value_(leaf_value),
        leaf_active_(leaf_active),
        cap_(max_size) {
    Run();
  }

  // Max value over worlds with exactly `size` active leaves (kNegInf if no
  // such world exists).
  double ValueAt(int size) const {
    return dp_[static_cast<size_t>(tree_.root())].val[static_cast<size_t>(size)];
  }

  // The active leaves of one world achieving ValueAt(size).
  std::vector<NodeId> Reconstruct(int size) const {
    std::vector<NodeId> leaves;
    Collect(tree_.root(), size, &leaves);
    std::sort(leaves.begin(), leaves.end());
    return leaves;
  }

 private:
  void Run() {
    dp_.assign(static_cast<size_t>(tree_.NumNodes()), NodeDp{});
    std::vector<std::pair<NodeId, bool>> stack = {{tree_.root(), false}};
    while (!stack.empty()) {
      auto [id, expanded] = stack.back();
      stack.pop_back();
      const TreeNode& n = tree_.node(id);
      if (!expanded) {
        stack.push_back({id, true});
        for (NodeId c : n.children) stack.push_back({c, false});
        continue;
      }
      NodeDp& e = dp_[static_cast<size_t>(id)];
      switch (n.kind) {
        case NodeKind::kLeaf: {
          e.val.assign(static_cast<size_t>(cap_) + 1, kNegInf);
          if (leaf_active_[static_cast<size_t>(id)]) {
            if (cap_ >= 1) e.val[1] = leaf_value_[static_cast<size_t>(id)];
          } else {
            e.val[0] = 0.0;  // pruned leaf: contributes nothing
          }
          break;
        }
        case NodeKind::kAnd: {
          e.and_prefix.reserve(n.children.size());
          std::vector<double> acc =
              dp_[static_cast<size_t>(n.children[0])].val;
          e.and_prefix.push_back(acc);
          for (size_t i = 1; i < n.children.size(); ++i) {
            acc = MaxPlusConvolve(
                acc, dp_[static_cast<size_t>(n.children[i])].val,
                static_cast<size_t>(cap_));
            acc.resize(static_cast<size_t>(cap_) + 1, kNegInf);
            e.and_prefix.push_back(acc);
          }
          e.val = acc;
          break;
        }
        case NodeKind::kXor: {
          e.val.assign(static_cast<size_t>(cap_) + 1, kNegInf);
          e.xor_choice.assign(static_cast<size_t>(cap_) + 1, -2);
          double leftover = 1.0;
          for (double p : n.edge_probs) leftover -= p;
          if (leftover > 0.0) {
            e.val[0] = 0.0;
            e.xor_choice[0] = -1;
          }
          for (size_t i = 0; i < n.children.size(); ++i) {
            if (n.edge_probs[i] <= 0.0) continue;
            const NodeDp& child = dp_[static_cast<size_t>(n.children[i])];
            for (int s = 0; s <= cap_; ++s) {
              double v = child.val[static_cast<size_t>(s)];
              if (v > e.val[static_cast<size_t>(s)]) {
                e.val[static_cast<size_t>(s)] = v;
                e.xor_choice[static_cast<size_t>(s)] = static_cast<int>(i);
              }
            }
          }
          break;
        }
      }
    }
  }

  void Collect(NodeId id, int size, std::vector<NodeId>* leaves) const {
    const TreeNode& n = tree_.node(id);
    const NodeDp& e = dp_[static_cast<size_t>(id)];
    switch (n.kind) {
      case NodeKind::kLeaf:
        if (size == 1) leaves->push_back(id);
        return;
      case NodeKind::kXor: {
        int choice = e.xor_choice[static_cast<size_t>(size)];
        if (choice >= 0) {
          Collect(n.children[static_cast<size_t>(choice)], size, leaves);
        }
        return;
      }
      case NodeKind::kAnd: {
        int remaining = size;
        for (size_t i = n.children.size(); i-- > 1;) {
          const std::vector<double>& child_val =
              dp_[static_cast<size_t>(n.children[i])].val;
          const std::vector<double>& prev = e.and_prefix[i - 1];
          double target = e.and_prefix[i][static_cast<size_t>(remaining)];
          // Find the split (remaining - q from the prefix, q from child i).
          for (int q = 0; q <= remaining; ++q) {
            double a = prev[static_cast<size_t>(remaining - q)];
            double b = child_val[static_cast<size_t>(q)];
            if (a == kNegInf || b == kNegInf) continue;
            if (std::fabs(a + b - target) <= kValueEps) {
              Collect(n.children[i], q, leaves);
              remaining -= q;
              break;
            }
          }
        }
        Collect(n.children[0], remaining, leaves);
        return;
      }
    }
  }

  const AndXorTree& tree_;
  const std::vector<double>& leaf_value_;
  const std::vector<bool>& leaf_active_;
  int cap_;
  std::vector<NodeDp> dp_;
};

}  // namespace

MedianSymDiffContext BuildMedianSymDiffContext(const AndXorTree& tree,
                                               const RankDistribution& dist) {
  MedianSymDiffContext context;
  context.k = dist.k();
  context.num_keys = static_cast<int>(dist.keys().size());
  // Distinct leaf scores ascending: the Theorem 4 thresholds, in the order
  // the sequential scan (a std::set walk) considered them historically.
  std::set<double> scores;
  for (NodeId l : tree.LeafIds()) scores.insert(tree.node(l).leaf.score);
  context.thresholds.assign(scores.begin(), scores.end());
  context.value_p.assign(static_cast<size_t>(tree.NumNodes()), 0.0);
  context.value_centered.assign(static_cast<size_t>(tree.NumNodes()), 0.0);
  for (NodeId l : tree.LeafIds()) {
    double p = dist.RowOf(tree.node(l).leaf.key).TopK();
    context.value_p[static_cast<size_t>(l)] = p;
    context.value_centered[static_cast<size_t>(l)] = p - 0.5;
  }
  return context;
}

int NumMedianSymDiffStrata(const MedianSymDiffContext& context) {
  return static_cast<int>(context.thresholds.size()) + 1;
}

std::vector<SymDiffMedianCandidate> EvalMedianSymDiffStratum(
    const AndXorTree& tree, const MedianSymDiffContext& context, int stratum) {
  const int k = context.k;
  std::vector<SymDiffMedianCandidate> candidates;
  if (tree.NumLeaves() == 0 || k < 1) return candidates;
  if (stratum < 0 || stratum > static_cast<int>(context.thresholds.size())) {
    return candidates;
  }

  if (stratum < static_cast<int>(context.thresholds.size())) {
    // Candidates of size exactly k above this score threshold (Theorem 4):
    // a size-k world of the pruned tree is exactly the Top-k of a
    // realizable full world. DP values are P(t) = Pr(r(t) <= k). No world
    // holds more than n tuples (the key constraint), so at k > n no size-k
    // world exists and the DP is skipped outright.
    if (k > context.num_keys) return candidates;
    const double threshold = context.thresholds[static_cast<size_t>(stratum)];
    std::vector<bool> active(static_cast<size_t>(tree.NumNodes()), false);
    int num_active = 0;
    for (NodeId l : tree.LeafIds()) {
      if (tree.node(l).leaf.score >= threshold) {
        active[static_cast<size_t>(l)] = true;
        ++num_active;
      }
    }
    if (num_active < k) return candidates;
    SizeValueDp dp(tree, context.value_p, active, k);
    double v = dp.ValueAt(k);
    if (v == kNegInf) return candidates;
    candidates.push_back({v - 0.5 * k, dp.Reconstruct(k)});
    return candidates;
  }

  // Final stratum: whole worlds with fewer than k tuples (their Top-k answer
  // is the world itself), over the unpruned tree with centered values
  // P(t) - 1/2 so sizes compare on the uniform objective. Sizes above n are
  // infeasible, so the DP rows stop at min(k - 1, n): every entry up to the
  // cap is filled from the same (i, j) pairs in the same order whatever the
  // cap, so the candidates are bitwise those of a DP sized at k - 1.
  std::vector<bool> all_active(static_cast<size_t>(tree.NumNodes()), false);
  for (NodeId l : tree.LeafIds()) {
    all_active[static_cast<size_t>(l)] = true;
  }
  const int max_size = std::min(k - 1, context.num_keys);
  SizeValueDp dp(tree, context.value_centered, all_active, max_size);
  for (int size = 0; size <= max_size; ++size) {
    double v = dp.ValueAt(size);
    if (v == kNegInf) continue;
    candidates.push_back({v, dp.Reconstruct(size)});
  }
  return candidates;
}

Result<TopKResult> PickMedianSymDiffCandidate(
    const AndXorTree& tree, const RankDistribution& dist,
    const std::vector<std::vector<SymDiffMedianCandidate>>& per_stratum) {
  // First-improvement merge in stratum order — the exact comparison sequence
  // of the historical sequential scan, so parallel stratum evaluation cannot
  // change which candidate wins.
  double best_v = kNegInf;
  const std::vector<NodeId>* best = nullptr;
  for (const std::vector<SymDiffMedianCandidate>& stratum : per_stratum) {
    for (const SymDiffMedianCandidate& c : stratum) {
      if (c.centered_value > best_v + kValueEps) {
        best_v = c.centered_value;
        best = &c.leaves;
      }
    }
  }
  if (best == nullptr) {
    return Status::Infeasible("no candidate Top-k answer found");
  }

  // Order the answer by score descending (its rank order in the witnessing
  // world) and convert leaves to keys.
  std::vector<NodeId> best_leaves = *best;
  std::sort(best_leaves.begin(), best_leaves.end(), [&](NodeId a, NodeId b) {
    return tree.node(a).leaf.score > tree.node(b).leaf.score;
  });
  TopKResult result;
  for (NodeId l : best_leaves) result.keys.push_back(tree.node(l).leaf.key);
  result.expected_distance = ExpectedTopKSymDiff(dist, result.keys);
  return result;
}

Result<TopKResult> MedianTopKSymDiff(const AndXorTree& tree,
                                     const RankDistribution& dist) {
  if (tree.NumLeaves() == 0) return Status::InvalidArgument("empty tree");
  const MedianSymDiffContext context = BuildMedianSymDiffContext(tree, dist);
  const int num_strata = NumMedianSymDiffStrata(context);
  std::vector<std::vector<SymDiffMedianCandidate>> per_stratum(
      static_cast<size_t>(num_strata));
  for (int s = 0; s < num_strata; ++s) {
    per_stratum[static_cast<size_t>(s)] =
        EvalMedianSymDiffStratum(tree, context, s);
  }
  return PickMedianSymDiffCandidate(tree, dist, per_stratum);
}

}  // namespace cpdb
