// Copyright 2026 The ConsensusDB Authors

#include "core/topk_kendall.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <utility>

#include "core/topk_footrule.h"
#include "model/flat_tree.h"

namespace cpdb {

double PrInTopKAndBefore(const FlatTree& flat, KeyId u, KeyId t, int k) {
  // Sum over alternatives b of u of
  //   Pr(b present, no higher-scoring alternative of t present, and at most
  //      k-1 higher-scoring tuples of other keys present).
  // b itself is tagged y, higher-scoring leaves of other keys count toward
  // the rank via x, and higher-scoring alternatives of t are excluded by
  // the zero polynomial (their worlds contribute no mass). Rows have shape
  // (k+1) × 2, row-major, so y = x^0 y^1 sits at index 1, x = x^1 y^0 at
  // index 2 (guarded like a truncated monomial), and the forbidden leaves
  // keep their zeroed row.
  double total = 0.0;
  const std::vector<FlatLeaf>& leaves = flat.leaves();
  std::vector<double> f(static_cast<size_t>(k + 1) * 2);
  for (int target = 0; target < flat.num_leaves(); ++target) {
    const FlatLeaf& alt = leaves[static_cast<size_t>(target)];
    if (alt.key != u) continue;
    const auto leaf_init = [&](int i, double* row) {
      if (i == target) {
        row[1] = 1.0;  // y
        return;
      }
      const FlatLeaf& other = leaves[static_cast<size_t>(i)];
      if (other.score > alt.score) {
        if (other.key == t) return;  // forbidden: the zero polynomial
        if (other.key != u) {
          if (k >= 1) row[2] = 1.0;  // x, counts toward the rank
          return;
        }
      }
      row[0] = 1.0;
    };
    flat.EvalGeneratingFunction(k, 1, leaf_init, f.data(), &FlatFoldScratch());
    for (int i = 0; i <= k - 1; ++i) {
      total += f[static_cast<size_t>(i) * 2 + 1];  // Coeff(i, 1)
    }
  }
  return total;
}

KendallEvaluator::KendallEvaluator(int k, std::vector<KeyId> keys)
    : k_(k), keys_(std::move(keys)) {
  BuildKeyIndex();
  column_of_.assign(keys_.size(), -1);
}

KendallEvaluator::KendallEvaluator(const AndXorTree& tree, int k)
    : KendallEvaluator(k, tree.Keys()) {
  const size_t n = keys_.size();
  columns_.assign(n, std::vector<double>(n, 0.0));
  // One compile shared by all n^2 cells.
  const FlatTree flat = FlatTree::Compile(tree);
  for (size_t it = 0; it < n; ++it) {
    column_of_[it] = static_cast<int>(it);
    for (size_t iu = 0; iu < n; ++iu) {
      if (iu == it) continue;
      columns_[it][iu] = PrInTopKAndBefore(flat, keys_[iu], keys_[it], k_);
    }
  }
}

Result<KendallEvaluator> KendallEvaluator::Create(
    const AndXorTree& tree, int k, const std::vector<KeyId>& answer,
    std::vector<std::vector<double>> columns) {
  KendallEvaluator evaluator(k, tree.Keys());
  const size_t n = evaluator.keys_.size();
  // Mis-shaped columns (built over a different key list or answer) must be
  // rejected: padding them out would silently produce wrong expectations.
  bool shape_ok = columns.size() == answer.size();
  for (const auto& column : columns) shape_ok = shape_ok && column.size() == n;
  if (!shape_ok) {
    return Status::InvalidArgument(
        "KendallEvaluator: q columns do not match " +
        std::to_string(answer.size()) + " answer keys over " +
        std::to_string(n) + " keys");
  }
  for (size_t p = 0; p < answer.size(); ++p) {
    const int it = evaluator.IndexOf(answer[p]);
    if (it < 0 || evaluator.column_of_[static_cast<size_t>(it)] >= 0) {
      return Status::InvalidArgument(
          "KendallEvaluator: answer key " + std::to_string(answer[p]) +
          " is repeated or not a key of the tree");
    }
    evaluator.column_of_[static_cast<size_t>(it)] = static_cast<int>(p);
    columns[p][static_cast<size_t>(it)] = 0.0;
  }
  evaluator.columns_ = std::move(columns);
  return evaluator;
}

void KendallEvaluator::BuildKeyIndex() {
  KeyId max_key = 0;
  for (KeyId key : keys_) max_key = std::max(max_key, key);
  index_of_key_.assign(static_cast<size_t>(max_key) + 1, -1);
  for (size_t i = 0; i < keys_.size(); ++i) {
    index_of_key_[static_cast<size_t>(keys_[i])] = static_cast<int>(i);
  }
}

int KendallEvaluator::IndexOf(KeyId key) const {
  if (key < 0 || static_cast<size_t>(key) >= index_of_key_.size()) return -1;
  return index_of_key_[static_cast<size_t>(key)];
}

double KendallEvaluator::Q(KeyId u, KeyId t) const {
  int iu = IndexOf(u);
  int it = IndexOf(t);
  if (iu < 0 || it < 0) return 0.0;
  const int column = column_of_[static_cast<size_t>(it)];
  if (column < 0) return std::numeric_limits<double>::quiet_NaN();
  return columns_[static_cast<size_t>(column)][static_cast<size_t>(iu)];
}

double KendallEvaluator::Expected(const std::vector<KeyId>& answer) const {
  std::vector<bool> in_answer(keys_.size(), false);
  for (KeyId t : answer) {
    int idx = IndexOf(t);
    if (idx >= 0) in_answer[static_cast<size_t>(idx)] = true;
  }
  double expected = 0.0;
  // Pairs ranked by the answer: t before u contributes q(u, t).
  for (size_t a = 0; a < answer.size(); ++a) {
    for (size_t b = a + 1; b < answer.size(); ++b) {
      expected += Q(answer[b], answer[a]);
    }
  }
  // Pairs with t in the answer, u outside it: the answer's extensions place
  // t first, so disagreement happens when u enters the Top-k ahead of t.
  for (KeyId t : answer) {
    for (size_t iu = 0; iu < keys_.size(); ++iu) {
      if (in_answer[iu]) continue;
      expected += Q(keys_[iu], t);
    }
  }
  return expected;
}

Result<TopKResult> MeanTopKKendallPivot(
    const KendallEvaluator& evaluator,
    const std::vector<std::vector<double>>& order_probs, Rng* rng) {
  const std::vector<KeyId>& keys = evaluator.keys();
  if (order_probs.size() != keys.size()) {
    return Status::InvalidArgument(
        "order_probs must be indexed like evaluator.keys()");
  }
  // KwikSort: randomized pivot partitioning on the majority tournament.
  std::vector<int> order(keys.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::function<void(std::vector<int>&)> sort_rec = [&](std::vector<int>& ids) {
    if (ids.size() <= 1) return;
    size_t pivot_pos =
        static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(ids.size()) - 1));
    int pivot = ids[pivot_pos];
    std::vector<int> left, right;
    for (int id : ids) {
      if (id == pivot) continue;
      // "id beats pivot" when it ranks before the pivot with majority
      // probability.
      if (order_probs[static_cast<size_t>(id)][static_cast<size_t>(pivot)] >=
          order_probs[static_cast<size_t>(pivot)][static_cast<size_t>(id)]) {
        left.push_back(id);
      } else {
        right.push_back(id);
      }
    }
    sort_rec(left);
    sort_rec(right);
    ids.clear();
    ids.insert(ids.end(), left.begin(), left.end());
    ids.push_back(pivot);
    ids.insert(ids.end(), right.begin(), right.end());
  };
  sort_rec(order);

  TopKResult result;
  size_t take = std::min<size_t>(order.size(), static_cast<size_t>(evaluator.k()));
  for (size_t i = 0; i < take; ++i) {
    result.keys.push_back(keys[static_cast<size_t>(order[i])]);
  }
  result.expected_distance = evaluator.Expected(result.keys);
  return result;
}

TopKResult RescoreUnderKendall(const KendallEvaluator& evaluator,
                               TopKResult answer) {
  answer.expected_distance = evaluator.Expected(answer.keys);
  return answer;
}

Result<TopKResult> MeanTopKKendallViaFootrule(const KendallEvaluator& evaluator,
                                              const RankDistribution& dist) {
  CPDB_ASSIGN_OR_RETURN(TopKResult footrule, MeanTopKFootrule(dist));
  return RescoreUnderKendall(evaluator, std::move(footrule));
}

Result<TopKResult> MeanTopKKendallExactDp(const KendallEvaluator& evaluator,
                                          const RankDistribution& dist,
                                          int max_candidates) {
  std::vector<KeyId> candidates;
  for (KeyId key : evaluator.keys()) {
    if (dist.RowOf(key).TopK() > 0.0) candidates.push_back(key);
  }
  const int c = static_cast<int>(candidates.size());
  if (c > max_candidates || c > 24) {
    return Status::ResourceExhausted(
        "too many candidates for the Kendall subset DP");
  }
  const int k = std::min<int>(evaluator.k(), c);
  const uint32_t full = 1u << c;

  // q_[i][j] between candidate indices.
  std::vector<std::vector<double>> q(static_cast<size_t>(c),
                                     std::vector<double>(static_cast<size_t>(c), 0.0));
  for (int i = 0; i < c; ++i) {
    for (int j = 0; j < c; ++j) {
      if (i != j) {
        q[static_cast<size_t>(i)][static_cast<size_t>(j)] =
            evaluator.Q(candidates[static_cast<size_t>(i)],
                        candidates[static_cast<size_t>(j)]);
      }
    }
  }
  // Keys outside the candidate set have Pr(r <= k) = 0, so q(u, t) = 0 for
  // them and the boundary term only ranges over candidates.

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> f(full, kInf);
  std::vector<int8_t> last(full, -1);
  f[0] = 0.0;
  for (uint32_t mask = 1; mask < full; ++mask) {
    if (static_cast<int>(__builtin_popcount(mask)) > k) continue;
    for (int t = 0; t < c; ++t) {
      if (!(mask & (1u << t))) continue;
      uint32_t prev = mask ^ (1u << t);
      if (f[prev] == kInf) continue;
      // t is placed last among `mask`: every p in prev precedes it.
      double cost = f[prev];
      for (int p = 0; p < c; ++p) {
        if (prev & (1u << p)) {
          cost += q[static_cast<size_t>(t)][static_cast<size_t>(p)];
        }
      }
      if (cost < f[mask]) {
        f[mask] = cost;
        last[mask] = static_cast<int8_t>(t);
      }
    }
  }

  double best = kInf;
  uint32_t best_mask = 0;
  for (uint32_t mask = 0; mask < full; ++mask) {
    if (static_cast<int>(__builtin_popcount(mask)) != k || f[mask] == kInf) {
      continue;
    }
    // Boundary: candidates outside the answer entering the Top-k ahead of
    // answer members.
    double boundary = 0.0;
    for (int t = 0; t < c; ++t) {
      if (!(mask & (1u << t))) continue;
      for (int u = 0; u < c; ++u) {
        if (u != t && !(mask & (1u << u))) {
          boundary += q[static_cast<size_t>(u)][static_cast<size_t>(t)];
        }
      }
    }
    if (f[mask] + boundary < best) {
      best = f[mask] + boundary;
      best_mask = mask;
    }
  }
  if (best == kInf) return Status::Infeasible("no feasible answer");

  TopKResult result;
  result.keys.resize(static_cast<size_t>(k));
  uint32_t mask = best_mask;
  for (int pos = k - 1; pos >= 0; --pos) {
    int t = last[mask];
    result.keys[static_cast<size_t>(pos)] = candidates[static_cast<size_t>(t)];
    mask ^= 1u << t;
  }
  result.expected_distance = evaluator.Expected(result.keys);
  return result;
}

Result<TopKResult> MeanTopKKendallExact(const KendallEvaluator& evaluator,
                                        const RankDistribution& dist,
                                        int max_candidates) {
  std::vector<KeyId> candidates;
  for (KeyId key : evaluator.keys()) {
    if (dist.RowOf(key).TopK() > 0.0) candidates.push_back(key);
  }
  if (static_cast<int>(candidates.size()) > max_candidates) {
    return Status::ResourceExhausted(
        "too many candidates for exhaustive Kendall search");
  }
  const int k = std::min<int>(evaluator.k(), static_cast<int>(candidates.size()));

  TopKResult best;
  best.expected_distance = std::numeric_limits<double>::infinity();
  std::vector<KeyId> current;
  std::vector<bool> used(candidates.size(), false);
  std::function<void()> recurse = [&]() {
    if (static_cast<int>(current.size()) == k) {
      double e = evaluator.Expected(current);
      if (e < best.expected_distance) {
        best.expected_distance = e;
        best.keys = current;
      }
      return;
    }
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (used[i]) continue;
      used[i] = true;
      current.push_back(candidates[i]);
      recurse();
      current.pop_back();
      used[i] = false;
    }
  };
  recurse();
  return best;
}

}  // namespace cpdb
