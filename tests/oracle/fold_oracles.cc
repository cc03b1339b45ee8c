// Copyright 2026 The ConsensusDB Authors

#include "oracle/fold_oracles.h"

#include <set>
#include <utility>

#include "oracle/generating_function.h"
#include "oracle/poly2.h"
#include "oracle/poly1.h"

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

std::vector<double> LeafRankContribution(const FlatTree& flat, int target,
                                         int k) {
  // The pointer form above, folded over the flat program: rows have shape
  // (k+1) × 2, row-major, Index(i, j) = i * 2 + j; a monomial beyond the
  // bounds is the zero polynomial.
  const std::vector<FlatLeaf>& leaves = flat.leaves();
  const FlatLeaf& alt = leaves[static_cast<size_t>(target)];
  FlatRefold::Scratch scratch;
  const double* f = FlatRefold::FoldOnce(
      flat, k, 1,
      [&](int i) {
        if (i == target) return 1;  // y = x^0 y^1
        const FlatLeaf& other = leaves[static_cast<size_t>(i)];
        if (other.key != alt.key && other.score > alt.score) {
          return 2;  // x = x^1 y^0, counts toward the rank
        }
        return 0;  // constant 1
      },
      &scratch);
  std::vector<double> contribution(static_cast<size_t>(k) + 1, 0.0);
  for (int i = 1; i <= k; ++i) {
    contribution[static_cast<size_t>(i)] =
        f[static_cast<size_t>(i - 1) * 2 + 1];  // Coeff(i - 1, 1)
  }
  return contribution;
}

RankDistribution ComputeRankDistributionPointer(const AndXorTree& tree,
                                                int k) {
  RankDistributionBuilder builder(k);
  for (KeyId key : tree.Keys()) builder.EnsureKey(key);
  // LeafIds() order is the flat leaf-table order, so each key's row sums
  // the same contributions in the same sequence as the flat path.
  for (NodeId target : tree.LeafIds()) {
    const std::vector<double> contribution =
        LeafRankContribution(tree, target, k);
    const KeyId key = tree.node(target).leaf.key;
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

double PrRanksBefore(const FlatTree& flat, KeyId u, KeyId v) {
  // Flat form of the fold above: rows have shape 2 × 2 (max_dx = max_dy =
  // 1), row-major, so y = x^1 y^0 sits at index 2 and z = x^0 y^1 at
  // index 1; the answer Coeff(1, 0) is read from index 2.
  double total = 0.0;
  const std::vector<FlatLeaf>& leaves = flat.leaves();
  FlatRefold::Scratch scratch;
  for (int target = 0; target < flat.num_leaves(); ++target) {
    const FlatLeaf& alt = leaves[static_cast<size_t>(target)];
    if (alt.key != u) continue;
    const double* f = FlatRefold::FoldOnce(
        flat, 1, 1,
        [&](int i) {
          if (i == target) return 2;  // y = x^1 y^0
          const FlatLeaf& other = leaves[static_cast<size_t>(i)];
          if (other.key == v && other.score > alt.score) {
            return 1;  // z = x^0 y^1
          }
          return 0;  // constant 1
        },
        &scratch);
    total += f[2];  // Coeff(1, 0)
  }
  return total;
}

double PrRanksBefore(const AndXorTree& tree, KeyId u, KeyId v) {
  return PrRanksBefore(FlatTree::Compile(tree), u, v);
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

double ExpectedJaccardDistancePointer(const AndXorTree& tree,
                                      const std::vector<NodeId>& world) {
  std::set<NodeId> in_world(world.begin(), world.end());
  int w = static_cast<int>(world.size());
  int out = tree.NumLeaves() - w;
  // x tags leaves of W, y tags the rest; the coefficient of x^i y^j is the
  // probability that |pw ∩ W| = i and |pw \ W| = j, hence
  // d_J = (|W| - i + j) / (|W| + j).
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

}  // namespace cpdb
