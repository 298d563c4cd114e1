// Copyright 2026 The ConsensusDB Authors

#include "support/reference_folds.h"

#include <set>

#include "poly/poly1.h"
#include "support/generating_function.h"
#include "support/poly2.h"

namespace cpdb {

std::vector<double> LeafRankContribution(const AndXorTree& tree, NodeId target,
                                         int k) {
  // One bivariate generating function per tuple alternative. Truncations:
  // x (count of higher-ranked tuples) at k-1 is enough for ranks <= k, but
  // we keep k to read Pr(r = k) from x^{k-1}; y (the alternative itself) at 1.
  const TupleAlternative& alt = tree.node(target).leaf;
  auto leaf_poly = [&](NodeId id) {
    if (id == target) return Poly2::Monomial(k, 1, 0, 1, 1.0);
    const TupleAlternative& other = tree.node(id).leaf;
    if (other.key != alt.key && other.score > alt.score) {
      return Poly2::Monomial(k, 1, 1, 0, 1.0);  // counts toward the rank
    }
    return Poly2::Constant(k, 1, 1.0);
  };
  auto make_const = [&](double c) { return Poly2::Constant(k, 1, c); };
  Poly2 f = EvalGeneratingFunction<Poly2>(tree, leaf_poly, make_const);
  std::vector<double> contribution(static_cast<size_t>(k) + 1, 0.0);
  for (int i = 1; i <= k; ++i) {
    contribution[static_cast<size_t>(i)] = f.Coeff(i - 1, 1);
  }
  return contribution;
}

RankDistribution ComputeRankDistributionPointer(const AndXorTree& tree,
                                                int k) {
  // FlatTree leaf order is LeafIds() order, so this accumulates per-leaf
  // contributions into each key's row in the flat path's sequence —
  // summation order, and therefore every output bit, matches.
  RankDistributionBuilder builder(k);
  for (KeyId key : tree.Keys()) builder.EnsureKey(key);
  for (NodeId target : tree.LeafIds()) {
    std::vector<double> contribution = LeafRankContribution(tree, target, k);
    KeyId key = tree.node(target).leaf.key;
    for (int i = 1; i <= k; ++i) {
      builder.Add(key, i, contribution[static_cast<size_t>(i)]);
    }
  }
  return std::move(builder).Build();
}

double PrRanksBeforePointer(const AndXorTree& tree, KeyId u, KeyId v) {
  // Sum over alternatives a of u of Pr(a present and no alternative of v
  // with a higher score present). Variables: y tags a (need y^1), z tags
  // higher-scoring alternatives of v (need z^0); everything else is 1.
  double total = 0.0;
  for (NodeId target : tree.LeafIds()) {
    const TupleAlternative& alt = tree.node(target).leaf;
    if (alt.key != u) continue;
    auto leaf_poly = [&](NodeId id) {
      if (id == target) return Poly2::Monomial(1, 1, 1, 0, 1.0);  // y
      const TupleAlternative& other = tree.node(id).leaf;
      if (other.key == v && other.score > alt.score) {
        return Poly2::Monomial(1, 1, 0, 1, 1.0);  // z
      }
      return Poly2::Constant(1, 1, 1.0);
    };
    auto make_const = [&](double c) { return Poly2::Constant(1, 1, c); };
    Poly2 f = EvalGeneratingFunction<Poly2>(tree, leaf_poly, make_const);
    total += f.Coeff(1, 0);
  }
  return total;
}

double PrInTopKAndBefore(const AndXorTree& tree, KeyId u, KeyId t, int k) {
  // Sum over alternatives b of u of
  //   Pr(b present, no higher-scoring alternative of t present, and at most
  //      k-1 higher-scoring tuples of other keys present).
  // Higher-scoring alternatives of t are excluded by assigning them the zero
  // polynomial (their worlds contribute no mass); higher-scoring leaves of
  // other keys count toward the rank via variable x; b itself is tagged y.
  double total = 0.0;
  for (NodeId target : tree.LeafIds()) {
    const TupleAlternative& alt = tree.node(target).leaf;
    if (alt.key != u) continue;
    auto leaf_poly = [&](NodeId id) {
      if (id == target) return Poly2::Monomial(k, 1, 0, 1, 1.0);  // y
      const TupleAlternative& other = tree.node(id).leaf;
      if (other.score > alt.score) {
        if (other.key == t) return Poly2::Constant(k, 1, 0.0);  // forbidden
        if (other.key != u) return Poly2::Monomial(k, 1, 1, 0, 1.0);  // x
      }
      return Poly2::Constant(k, 1, 1.0);
    };
    auto make_const = [&](double c) { return Poly2::Constant(k, 1, c); };
    Poly2 f = EvalGeneratingFunction<Poly2>(tree, leaf_poly, make_const);
    for (int i = 0; i <= k - 1; ++i) total += f.Coeff(i, 1);
  }
  return total;
}

double PairCoClusterPointer(const AndXorTree& tree, KeyId ki, KeyId kj) {
  // x tags the leaves of both keys carrying label a; [x^2] is
  // Pr(i.A = a and j.A = a). Both-absent: x tags every leaf of either key;
  // [x^0] is Pr(both absent).
  std::set<int32_t> labels_i, labels_j;
  for (NodeId l : tree.LeafIds()) {
    const TupleAlternative& alt = tree.node(l).leaf;
    if (alt.key == ki) labels_i.insert(alt.label);
    if (alt.key == kj) labels_j.insert(alt.label);
  }
  double w = 0.0;
  auto make_const = [](double c) { return Poly1::Constant(2, c); };
  for (int32_t a : labels_i) {
    if (labels_j.count(a) == 0) continue;
    auto leaf_poly = [&](NodeId id) {
      const TupleAlternative& alt = tree.node(id).leaf;
      if ((alt.key == ki || alt.key == kj) && alt.label == a) {
        return Poly1::Monomial(2, 1, 1.0);
      }
      return Poly1::Constant(2, 1.0);
    };
    Poly1 f = EvalGeneratingFunction<Poly1>(tree, leaf_poly, make_const);
    w += f.Coeff(2);
  }
  auto leaf_poly_absent = [&](NodeId id) {
    const TupleAlternative& alt = tree.node(id).leaf;
    if (alt.key == ki || alt.key == kj) return Poly1::Monomial(2, 1, 1.0);
    return Poly1::Constant(2, 1.0);
  };
  Poly1 f = EvalGeneratingFunction<Poly1>(tree, leaf_poly_absent, make_const);
  w += f.Coeff(0);
  return w;
}

double ExpectedJaccardDistancePointer(const AndXorTree& tree,
                                      const std::vector<NodeId>& world) {
  // x tags leaves of W, y tags the rest; the coefficient of x^i y^j is the
  // probability that |pw ∩ W| = i and |pw \ W| = j, hence
  // d_J = (|W| - i + j) / (|W| + j).
  std::set<NodeId> in_world(world.begin(), world.end());
  int w = static_cast<int>(world.size());
  int out = tree.NumLeaves() - w;
  auto leaf_poly = [&](NodeId id) {
    if (in_world.count(id) > 0) return Poly2::Monomial(w, out, 1, 0, 1.0);
    return Poly2::Monomial(w, out, 0, 1, 1.0);
  };
  auto make_const = [&](double c) { return Poly2::Constant(w, out, c); };
  Poly2 f = EvalGeneratingFunction<Poly2>(tree, leaf_poly, make_const);
  double expected = 0.0;
  for (int i = 0; i <= w; ++i) {
    for (int j = 0; j <= out; ++j) {
      double c = f.Coeff(i, j);
      if (c == 0.0) continue;
      double uni = static_cast<double>(w + j);
      if (uni == 0.0) continue;  // W = pw = empty set: distance 0
      expected += c * static_cast<double>(w - i + j) / uni;
    }
  }
  return expected;
}

}  // namespace cpdb
