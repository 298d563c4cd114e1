// Copyright 2026 The ConsensusDB Authors

#include "core/rank_distribution.h"

#include <algorithm>

namespace cpdb {

int RankDistribution::FindRow(KeyId key) const {
  const std::vector<KeyId>& keys = table_->keys;
  auto it = std::lower_bound(keys.begin(), keys.end(), key);
  if (it == keys.end() || *it != key) return -1;
  return static_cast<int>(it - keys.begin());
}

RankDistribution::Row RankDistribution::RowOf(KeyId key) const {
  static constexpr double kZeroRow[1] = {0.0};
  const int t = FindRow(key);
  return t < 0 ? Row{kZeroRow, kZeroRow, 0} : row(t);
}

double RankDistribution::PrRankEq(KeyId key, int i) const {
  return RowOf(key).Eq(i);
}

double RankDistribution::PrRankLe(KeyId key, int i) const {
  return RowOf(key).Le(i);
}

bool RankDistribution::Covers(int k) const {
  return k <= k_ || static_cast<size_t>(k_) >= table_->keys.size();
}

RankDistribution RankDistribution::At(int k) const {
  return RankDistribution(Covers(k) ? std::max(k, 0) : k_, table_);
}

int64_t RankDistribution::ApproxBytes() const {
  // Per-key: one KeyId and two rows of width+1 doubles with their vector
  // headers. On top of that, the fixed-size members' out-of-line storage:
  // the table itself, the keys element array, and the pr_eq/pr_le outer
  // arrays of n inner vector headers — omitting those undercharged every
  // cache entry by ~56 bytes per key, which a byte-budgeted LRU multiplies
  // across its whole admission history.
  constexpr int64_t kVecHeader =
      static_cast<int64_t>(sizeof(std::vector<double>));
  const int64_t per_row =
      kVecHeader + static_cast<int64_t>(table_->width + 1) *
                       static_cast<int64_t>(sizeof(double));
  const int64_t n = static_cast<int64_t>(table_->keys.size());
  return static_cast<int64_t>(sizeof(RankDistribution)) +
         static_cast<int64_t>(sizeof(Table)) +
         n * static_cast<int64_t>(sizeof(KeyId)) +  // keys element array
         2 * n * kVecHeader +  // pr_eq/pr_le outer arrays of inner headers
         2 * n * per_row;
}

RankDistributionBuilder::RankDistributionBuilder(int k)
    : table_(std::make_shared<RankDistribution::Table>()) {
  table_->width = k;
}

int RankDistributionBuilder::Slot(KeyId key) {
  auto [it, inserted] =
      index_.insert({key, static_cast<int>(table_->keys.size())});
  if (inserted) {
    table_->keys.push_back(key);
    table_->pr_eq.emplace_back(static_cast<size_t>(table_->width) + 1, 0.0);
  }
  return it->second;
}

void RankDistributionBuilder::EnsureKey(KeyId key) { Slot(key); }

void RankDistributionBuilder::Add(KeyId key, int i, double prob) {
  const int slot = Slot(key);
  if (i < 1 || i > table_->width) return;
  table_->pr_eq[static_cast<size_t>(slot)][static_cast<size_t>(i)] += prob;
}

RankDistribution RankDistributionBuilder::Build() && {
  // Rows are addressed by position in the sorted keys, so permute them into
  // key order; the registration index is not needed past this point.
  RankDistribution::Table& table = *table_;
  std::vector<std::vector<double>> pr_eq;
  pr_eq.reserve(index_.size());
  table.keys.clear();
  for (auto& [key, slot] : index_) {  // ascending keys
    table.keys.push_back(key);
    pr_eq.push_back(std::move(table.pr_eq[static_cast<size_t>(slot)]));
  }
  index_.clear();
  table.pr_eq = std::move(pr_eq);
  table.pr_le = table.pr_eq;
  for (auto& row : table.pr_le) {
    for (size_t i = 2; i < row.size(); ++i) row[i] += row[i - 1];
  }
  const int width = table.width;
  return RankDistribution(width, std::move(table_));
}

std::vector<double> LeafRankContribution(const FlatTree& flat, int target,
                                         int k) {
  // One bivariate generating function per tuple alternative: y tags the
  // target itself (need y^1), x the higher-scoring leaves of other keys (x^i
  // is i tuples ranked ahead); x is truncated at k so x^{k-1} yields
  // Pr(r = k). Rows have shape (k+1) × 2, row-major: Index(i, j) = i * 2 +
  // j. Leaf classification reads the packed leaf table; the monomial guards
  // mirror a truncated monomial (one beyond the bounds is the zero
  // polynomial).
  const std::vector<FlatLeaf>& leaves = flat.leaves();
  const FlatLeaf& alt = leaves[static_cast<size_t>(target)];
  const auto leaf_init = [&](int i, double* row) {
    if (i == target) {
      row[1] = 1.0;  // y = x^0 y^1
      return;
    }
    const FlatLeaf& other = leaves[static_cast<size_t>(i)];
    if (other.key != alt.key && other.score > alt.score) {
      if (k >= 1) row[2] = 1.0;  // x = x^1 y^0, counts toward the rank
      return;
    }
    row[0] = 1.0;  // constant 1
  };
  std::vector<double> f(static_cast<size_t>(k + 1) * 2);
  flat.EvalGeneratingFunction(k, 1, leaf_init, f.data(), &FlatFoldScratch());
  std::vector<double> contribution(static_cast<size_t>(k) + 1, 0.0);
  for (int i = 1; i <= k; ++i) {
    contribution[static_cast<size_t>(i)] =
        f[static_cast<size_t>(i - 1) * 2 + 1];  // Coeff(i - 1, 1)
  }
  return contribution;
}

RankDistribution MergeLeafRankContributions(
    const FlatTree& flat, int k,
    const std::vector<std::vector<double>>& contributions) {
  RankDistributionBuilder builder(k);
  for (int l = 0; l < flat.num_leaves(); ++l) {
    const KeyId key = flat.leaves()[static_cast<size_t>(l)].key;
    const std::vector<double>& row = contributions[static_cast<size_t>(l)];
    builder.EnsureKey(key);
    for (int i = 1; i <= k; ++i) {
      builder.Add(key, i, row[static_cast<size_t>(i)]);
    }
  }
  return std::move(builder).Build();
}

RankDistribution ComputeRankDistribution(const AndXorTree& tree, int k) {
  const FlatTree flat = FlatTree::Compile(tree);
  std::vector<std::vector<double>> contributions;
  contributions.reserve(static_cast<size_t>(flat.num_leaves()));
  for (int target = 0; target < flat.num_leaves(); ++target) {
    contributions.push_back(LeafRankContribution(flat, target, k));
  }
  return MergeLeafRankContributions(flat, k, contributions);
}

double PrRanksBefore(const FlatTree& flat, KeyId u, KeyId v) {
  // Sum over alternatives a of u of Pr(a present and no alternative of v
  // with a higher score present). Variables: y tags a (need y^1), z tags
  // higher-scoring alternatives of v (need z^0); everything else is 1.
  // Rows have shape 2 × 2 (max_dx = max_dy = 1), row-major, so y = x^1 y^0
  // sits at index 2 and z = x^0 y^1 at index 1; the answer Coeff(1, 0) is
  // read from index 2. The alternatives of u are found by one linear scan
  // of the packed leaf table, and every per-alternative fold reuses this
  // thread's arena.
  double total = 0.0;
  const std::vector<FlatLeaf>& leaves = flat.leaves();
  double f[4];
  for (int target = 0; target < flat.num_leaves(); ++target) {
    const FlatLeaf& alt = leaves[static_cast<size_t>(target)];
    if (alt.key != u) continue;
    const auto leaf_init = [&](int i, double* row) {
      if (i == target) {
        row[2] = 1.0;  // y = x^1 y^0
        return;
      }
      const FlatLeaf& other = leaves[static_cast<size_t>(i)];
      if (other.key == v && other.score > alt.score) {
        row[1] = 1.0;  // z = x^0 y^1
        return;
      }
      row[0] = 1.0;  // constant 1
    };
    flat.EvalGeneratingFunction(1, 1, leaf_init, f, &FlatFoldScratch());
    total += f[2];  // Coeff(1, 0)
  }
  return total;
}

double PrRanksBefore(const AndXorTree& tree, KeyId u, KeyId v) {
  return PrRanksBefore(FlatTree::Compile(tree), u, v);
}

std::vector<std::vector<double>> PairwiseOrderProbabilities(
    const AndXorTree& tree, const std::vector<KeyId>& keys) {
  // One compile, n^2 cells: the per-cell work drops to the folds
  // themselves, instead of re-walking the pointer tree per (u, v) pair.
  const FlatTree flat = FlatTree::Compile(tree);
  std::vector<std::vector<double>> p(
      keys.size(), std::vector<double>(keys.size(), 0.0));
  for (size_t i = 0; i < keys.size(); ++i) {
    for (size_t j = 0; j < keys.size(); ++j) {
      if (i == j) continue;
      p[i][j] = PrRanksBefore(flat, keys[i], keys[j]);
    }
  }
  return p;
}

}  // namespace cpdb
