// Copyright 2026 The ConsensusDB Authors
//
// Validates Theorem 1 (the generating-function method) against exhaustive
// possible-world enumeration: world-size distributions (Example 1), subset
// intersection counts (Example 2), and the Figure 1 worked examples.

#include "oracle/generating_function.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.h"
#include "model/builders.h"
#include "model/possible_worlds.h"
#include "oracle/poly1.h"
#include "oracle/poly2.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

TupleAlternative Alt(KeyId key, double score) {
  TupleAlternative a;
  a.key = key;
  a.score = score;
  return a;
}

// World-size generating function: every leaf tagged x.
Poly1 SizeGf(const AndXorTree& tree, int max_degree) {
  auto leaf_poly = [&](NodeId) { return Poly1::Monomial(max_degree, 1, 1.0); };
  auto make_const = [&](double c) { return Poly1::Constant(max_degree, c); };
  return EvalGeneratingFunction<Poly1>(tree, leaf_poly, make_const);
}

TEST(GeneratingFunctionTest, Figure1iSizeDistribution) {
  // Figure 1(i): the BID tree with blocks {0.1,0.5},{0.4,0.4},{0.2,0.8},
  // {0.5,0.5}; the paper reports the size PGF
  // (0.4+0.6x)(0.2+0.8x)(x)(x) = 0.08 x^2 + 0.44 x^3 + 0.48 x^4.
  AndXorTree tree;
  NodeId x1 = tree.AddXor({tree.AddLeaf(Alt(1, 8)), tree.AddLeaf(Alt(1, 2))},
                          {0.1, 0.5});
  NodeId x2 = tree.AddXor({tree.AddLeaf(Alt(2, 3)), tree.AddLeaf(Alt(2, 4))},
                          {0.4, 0.4});
  NodeId x3 = tree.AddXor({tree.AddLeaf(Alt(3, 1)), tree.AddLeaf(Alt(3, 9))},
                          {0.2, 0.8});
  NodeId x4 = tree.AddXor({tree.AddLeaf(Alt(4, 6)), tree.AddLeaf(Alt(4, 5))},
                          {0.5, 0.5});
  tree.SetRoot(tree.AddAnd({x1, x2, x3, x4}));
  ASSERT_TRUE(tree.Validate().ok());

  Poly1 f = SizeGf(tree, 4);
  EXPECT_NEAR(f.Coeff(0), 0.0, 1e-12);
  EXPECT_NEAR(f.Coeff(1), 0.0, 1e-12);  // blocks 3 and 4 are always present
  // Exact expansion of (0.4+0.6x)(0.8x+0.2)(x)(x):
  // x^2: 0.4*0.2 = 0.08 ; x^3: 0.4*0.8+0.6*0.2 = 0.44 ; x^4: 0.6*0.8 = 0.48.
  EXPECT_NEAR(f.Coeff(2), 0.08, 1e-12);
  EXPECT_NEAR(f.Coeff(3), 0.44, 1e-12);
  EXPECT_NEAR(f.Coeff(4), 0.48, 1e-12);
}

TEST(GeneratingFunctionTest, Figure1iiiRankCoefficient) {
  // Figure 1(iii): the coefficient of y must equal 0.3 = Pr(r((t3,6)) = 1)
  // when y tags the (t3,6) leaf and x tags higher-score leaves.
  AndXorTree tree;
  NodeId t3a = tree.AddLeaf(Alt(3, 6));
  NodeId pw1 = tree.AddAnd({t3a, tree.AddLeaf(Alt(2, 5)), tree.AddLeaf(Alt(1, 1))});
  NodeId pw2 = tree.AddAnd({tree.AddLeaf(Alt(3, 9)), tree.AddLeaf(Alt(1, 7)),
                            tree.AddLeaf(Alt(4, 0))});
  NodeId pw3 = tree.AddAnd({tree.AddLeaf(Alt(2, 8)), tree.AddLeaf(Alt(4, 4)),
                            tree.AddLeaf(Alt(5, 3))});
  tree.SetRoot(tree.AddXor({pw1, pw2, pw3}, {0.3, 0.3, 0.4}));
  ASSERT_TRUE(tree.Validate().ok());

  auto leaf_poly = [&](NodeId id) {
    if (id == t3a) return Poly2::Monomial(3, 1, 0, 1, 1.0);  // y
    const TupleAlternative& other = tree.node(id).leaf;
    if (other.key != 3 && other.score > 6.0) {
      return Poly2::Monomial(3, 1, 1, 0, 1.0);  // x
    }
    return Poly2::Constant(3, 1, 1.0);
  };
  auto make_const = [&](double c) { return Poly2::Constant(3, 1, c); };
  Poly2 f = EvalGeneratingFunction<Poly2>(tree, leaf_poly, make_const);
  // x^0 y^1: (t3,6) present with nothing above it -> rank 1 -> pw1 only.
  EXPECT_NEAR(f.Coeff(0, 1), 0.3, 1e-12);
}

class GfSizeDistributionProperty : public ::testing::TestWithParam<int> {};

TEST_P(GfSizeDistributionProperty, MatchesEnumerationOnRandomTrees) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 3);
  RandomTreeOptions opts;
  opts.num_keys = 6;
  opts.max_depth = 3;
  auto tree = RandomAndXorTree(opts, &rng);
  ASSERT_TRUE(tree.ok());
  auto worlds = EnumerateWorlds(*tree);
  ASSERT_TRUE(worlds.ok());

  int n = tree->NumLeaves();
  std::vector<double> size_prob(static_cast<size_t>(n) + 1, 0.0);
  for (const World& w : *worlds) size_prob[w.leaf_ids.size()] += w.prob;

  Poly1 f = SizeGf(*tree, n);
  for (int i = 0; i <= n; ++i) {
    EXPECT_NEAR(f.Coeff(i), size_prob[static_cast<size_t>(i)], 1e-9)
        << "size " << i;
  }
  EXPECT_NEAR(f.SumCoeffs(), 1.0, 1e-9);
}

TEST_P(GfSizeDistributionProperty, SubsetIntersectionMatchesEnumeration) {
  // Example 2: tag a random subset S with x; [x^i] = Pr(|pw ∩ S| = i).
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 1);
  RandomTreeOptions opts;
  opts.num_keys = 5;
  opts.max_depth = 3;
  auto tree = RandomAndXorTree(opts, &rng);
  ASSERT_TRUE(tree.ok());
  auto worlds = EnumerateWorlds(*tree);
  ASSERT_TRUE(worlds.ok());

  std::set<NodeId> subset;
  for (NodeId l : tree->LeafIds()) {
    if (rng.Bernoulli(0.5)) subset.insert(l);
  }
  int cap = static_cast<int>(subset.size());
  auto leaf_poly = [&](NodeId id) {
    return subset.count(id) > 0 ? Poly1::Monomial(cap, 1, 1.0)
                                : Poly1::Constant(cap, 1.0);
  };
  auto make_const = [&](double c) { return Poly1::Constant(cap, c); };
  Poly1 f = EvalGeneratingFunction<Poly1>(*tree, leaf_poly, make_const);

  std::vector<double> expected(static_cast<size_t>(cap) + 1, 0.0);
  for (const World& w : *worlds) {
    size_t inter = 0;
    for (NodeId l : w.leaf_ids) inter += subset.count(l);
    expected[inter] += w.prob;
  }
  for (int i = 0; i <= cap; ++i) {
    EXPECT_NEAR(f.Coeff(i), expected[static_cast<size_t>(i)], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GfSizeDistributionProperty,
                         ::testing::Range(0, 15));

TEST(GeneratingFunctionTest, DeepChainDoesNotOverflowStack) {
  // A pathological 20000-deep chain of singleton XOR nodes; the iterative
  // fold must handle it.
  AndXorTree tree;
  NodeId node = tree.AddLeaf(Alt(1, 1));
  for (int i = 0; i < 20000; ++i) node = tree.AddXor({node}, {1.0});
  tree.SetRoot(node);
  ASSERT_TRUE(tree.Validate().ok());
  Poly1 f = SizeGf(tree, 1);
  EXPECT_NEAR(f.Coeff(1), 1.0, 1e-9);
}

TEST(GeneratingFunctionTest, DeepChainLiveSlotHighWaterIsConstant) {
  // Regression test for the fold-memory bug: the fold used to retain every
  // intermediate polynomial until returning, so a deep chain's peak memory
  // was O(depth × poly bytes). With consume-and-free recycling the chain
  // needs only the completed child plus its parent's accumulator — the
  // live-slot high-water mark must stay constant in the depth, not track
  // it.
  AndXorTree tree;
  NodeId node = tree.AddLeaf(Alt(1, 1));
  for (int i = 0; i < 20000; ++i) node = tree.AddXor({node}, {0.5});
  tree.SetRoot(node);
  ASSERT_TRUE(tree.Validate().ok());

  auto leaf_poly = [&](NodeId) { return Poly1::Monomial(1, 1, 1.0); };
  auto make_const = [&](double c) { return Poly1::Constant(1, c); };
  GenFunFoldStats stats;
  Poly1 f = EvalGeneratingFunction<Poly1>(tree, leaf_poly, make_const, &stats);
  EXPECT_LE(stats.max_live_slots, 2);
  EXPECT_NEAR(f.Coeff(1), std::pow(0.5, 20000.0), 1e-300);  // underflows to 0
  EXPECT_NEAR(f.Coeff(0) + f.Coeff(1), 1.0, 1e-9);
}

TEST(GeneratingFunctionTest, WideAndLiveSlotHighWaterIsLogarithmic) {
  // A wide AND must not hold all children live either: children multiply
  // as a binary counter as they complete, so 500 of them keep at most
  // ceil(log2 500) + 1 = 10 partial products live.
  AndXorTree tree;
  std::vector<NodeId> blocks;
  for (int i = 0; i < 500; ++i) {
    blocks.push_back(
        tree.AddXor({tree.AddLeaf(Alt(i, i))}, {0.5}));
  }
  tree.SetRoot(tree.AddAnd(std::move(blocks)));
  ASSERT_TRUE(tree.Validate().ok());

  auto leaf_poly = [&](NodeId) { return Poly1::Monomial(4, 1, 1.0); };
  auto make_const = [&](double c) { return Poly1::Constant(4, c); };
  GenFunFoldStats stats;
  Poly1 f = EvalGeneratingFunction<Poly1>(tree, leaf_poly, make_const, &stats);
  EXPECT_LE(stats.max_live_slots, 10);
  EXPECT_NEAR(f.Coeff(0), std::pow(0.5, 500.0), 1e-300);  // exact: 2^-500
}

}  // namespace
}  // namespace cpdb
