// Copyright 2026 The ConsensusDB Authors

#include "model/and_xor_tree.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "model/builders.h"
#include "model/possible_worlds.h"
#include "oracle/tail_oracles.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

TupleAlternative Alt(KeyId key, double score, int32_t label = -1) {
  TupleAlternative a;
  a.key = key;
  a.score = score;
  a.label = label;
  return a;
}

// The example of Figure 1(i): four independent tuples with two alternatives
// each.
AndXorTree Figure1iTree() {
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
  EXPECT_TRUE(tree.Validate().ok());
  return tree;
}

TEST(AndXorTreeTest, ValidatesFigure1Example) {
  AndXorTree tree = Figure1iTree();
  EXPECT_EQ(tree.NumLeaves(), 8);
  EXPECT_EQ(tree.Keys().size(), 4u);
}

TEST(AndXorTreeTest, RejectsMissingRoot) {
  AndXorTree tree;
  tree.AddLeaf(Alt(1, 1));
  EXPECT_EQ(tree.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(AndXorTreeTest, RejectsNegativeEdgeProbability) {
  AndXorTree tree;
  NodeId l = tree.AddLeaf(Alt(1, 1));
  tree.SetRoot(tree.AddXor({l}, {-0.2}));
  EXPECT_FALSE(tree.Validate().ok());
}

TEST(AndXorTreeTest, RejectsProbabilityMassAboveOne) {
  AndXorTree tree;
  NodeId a = tree.AddLeaf(Alt(1, 1));
  NodeId b = tree.AddLeaf(Alt(1, 2));
  tree.SetRoot(tree.AddXor({a, b}, {0.7, 0.7}));
  EXPECT_FALSE(tree.Validate().ok());
}

TEST(AndXorTreeTest, RejectsNonFiniteScoresAndEdgeProbabilities) {
  // NaN slips past both range checks (NaN < -eps and sum > 1 + eps are
  // false), and a NaN score leaves score sorts without a total order.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {nan, inf, -inf}) {
    AndXorTree score_tree;
    NodeId a = score_tree.AddLeaf(Alt(1, bad));
    NodeId b = score_tree.AddLeaf(Alt(2, 3));
    score_tree.SetRoot(score_tree.AddAnd({a, b}));
    EXPECT_EQ(score_tree.Validate().code(), StatusCode::kInvalidArgument)
        << "score " << bad;

    AndXorTree prob_tree;
    NodeId c = prob_tree.AddLeaf(Alt(1, 1));
    NodeId d = prob_tree.AddLeaf(Alt(1, 2));
    prob_tree.SetRoot(prob_tree.AddXor({c, d}, {0.2, bad}));
    EXPECT_EQ(prob_tree.Validate().code(), StatusCode::kInvalidArgument)
        << "edge probability " << bad;
  }
}

TEST(AndXorTreeTest, RejectsMismatchedProbabilityCount) {
  AndXorTree tree;
  NodeId a = tree.AddLeaf(Alt(1, 1));
  NodeId b = tree.AddLeaf(Alt(2, 2));
  tree.SetRoot(tree.AddXor({a, b}, {0.5}));
  EXPECT_FALSE(tree.Validate().ok());
}

TEST(AndXorTreeTest, RejectsSharedChild) {
  AndXorTree tree;
  NodeId l = tree.AddLeaf(Alt(1, 1));
  NodeId x1 = tree.AddXor({l}, {0.5});
  NodeId x2 = tree.AddXor({l}, {0.5});  // same leaf under two parents
  tree.SetRoot(tree.AddAnd({x1, x2}));
  EXPECT_FALSE(tree.Validate().ok());
}

TEST(AndXorTreeTest, RejectsEmptyInnerNode) {
  AndXorTree tree;
  tree.SetRoot(tree.AddAnd({}));
  EXPECT_FALSE(tree.Validate().ok());
}

TEST(AndXorTreeTest, RejectsKeyConstraintViolation) {
  // Two alternatives of key 1 under an AND node: their LCA is not a XOR.
  AndXorTree tree;
  NodeId a = tree.AddLeaf(Alt(1, 1));
  NodeId b = tree.AddLeaf(Alt(1, 2));
  tree.SetRoot(tree.AddAnd({a, b}));
  Status st = tree.Validate();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("key constraint"), std::string::npos);
}

// The key check pairs each leaf with the previous leaf of its key in DFS
// order and finds their LCA with a union-find. Pin it against the
// definition — every same-key pair's LCA, by parent walks — on random
// trees whose keys are then scrambled into a small range, so that both
// verdicts occur often. A violation must name an AND node that is the LCA
// of a same-key pair.
TEST(AndXorTreeTest, KeyConstraintMatchesPairwiseLcaDefinition) {
  int violations = 0;
  for (uint64_t seed = 0; seed < 300; ++seed) {
    Rng rng(seed + 4242);
    RandomTreeOptions opts;
    opts.num_keys = 2 + static_cast<int>(seed % 9);
    opts.max_depth = 1 + static_cast<int>(seed % 5);
    opts.max_alternatives = 1 + static_cast<int>(seed % 3);
    auto base = RandomAndXorTree(opts, &rng);
    ASSERT_TRUE(base.ok());
    // Same shape, leaf keys redrawn from a seed-dependent small range.
    AndXorTree tree;
    for (NodeId id = 0; id < base->NumNodes(); ++id) {
      const TreeNode& n = base->node(id);
      if (n.kind == NodeKind::kLeaf) {
        TupleAlternative alt = n.leaf;
        alt.key = static_cast<KeyId>(
            rng.UniformInt(-2, static_cast<int64_t>(seed % 40)));
        tree.AddLeaf(alt);
      } else if (n.kind == NodeKind::kAnd) {
        tree.AddAnd(n.children);
      } else {
        tree.AddXor(n.children, n.edge_probs);
      }
    }
    tree.SetRoot(base->root());

    std::vector<NodeId> parent(static_cast<size_t>(tree.NumNodes()),
                               kInvalidNode);
    std::vector<int> depth(static_cast<size_t>(tree.NumNodes()), 0);
    std::vector<NodeId> leaves;
    std::vector<NodeId> stack = {tree.root()};
    while (!stack.empty()) {
      const NodeId id = stack.back();
      stack.pop_back();
      if (tree.node(id).kind == NodeKind::kLeaf) leaves.push_back(id);
      for (NodeId c : tree.node(id).children) {
        parent[static_cast<size_t>(c)] = id;
        depth[static_cast<size_t>(c)] = depth[static_cast<size_t>(id)] + 1;
        stack.push_back(c);
      }
    }
    auto lca = [&](NodeId a, NodeId b) {
      while (depth[static_cast<size_t>(a)] > depth[static_cast<size_t>(b)]) {
        a = parent[static_cast<size_t>(a)];
      }
      while (depth[static_cast<size_t>(b)] > depth[static_cast<size_t>(a)]) {
        b = parent[static_cast<size_t>(b)];
      }
      while (a != b) {
        a = parent[static_cast<size_t>(a)];
        b = parent[static_cast<size_t>(b)];
      }
      return a;
    };
    std::vector<NodeId> and_lcas;
    for (size_t i = 0; i < leaves.size(); ++i) {
      for (size_t j = i + 1; j < leaves.size(); ++j) {
        if (tree.node(leaves[i]).leaf.key != tree.node(leaves[j]).leaf.key) {
          continue;
        }
        const NodeId l = lca(leaves[i], leaves[j]);
        if (tree.node(l).kind == NodeKind::kAnd) and_lcas.push_back(l);
      }
    }

    const Status st = tree.Validate();
    EXPECT_EQ(st.ok(), and_lcas.empty()) << "seed " << seed << ": "
                                         << st.ToString();
    if (!st.ok()) {
      ++violations;
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
      bool named = false;
      for (NodeId l : and_lcas) {
        named = named || st.message().find("AND node " + std::to_string(l)) !=
                             std::string::npos;
      }
      EXPECT_TRUE(named) << "seed " << seed << ": " << st.ToString();
    }
  }
  EXPECT_GT(violations, 30);
  EXPECT_LT(violations, 270);
}

TEST(AndXorTreeTest, ValidatedFlagTracksTheLastValidation) {
  AndXorTree tree;
  NodeId a = tree.AddLeaf(Alt(1, 1));
  tree.SetRoot(a);
  EXPECT_FALSE(tree.validated());
  ASSERT_TRUE(tree.Validate().ok());
  EXPECT_TRUE(tree.validated());
  const AndXorTree copy = tree;
  EXPECT_TRUE(copy.validated());

  NodeId b = tree.AddLeaf(Alt(1, 2));
  EXPECT_FALSE(tree.validated());  // Add* clears it
  tree.SetRoot(tree.AddAnd({a, b}));
  EXPECT_FALSE(tree.Validate().ok());  // key constraint
  EXPECT_FALSE(tree.validated());

  tree.SetRoot(a);
  ASSERT_TRUE(tree.Validate().ok());
  tree.SetRoot(a);  // SetRoot clears it too
  EXPECT_FALSE(tree.validated());
}

TEST(AndXorTreeTest, AcceptsSameKeyUnderXor) {
  AndXorTree tree;
  NodeId a = tree.AddLeaf(Alt(1, 1));
  NodeId b = tree.AddLeaf(Alt(1, 2));
  tree.SetRoot(tree.AddXor({a, b}, {0.4, 0.4}));
  EXPECT_TRUE(tree.Validate().ok());
}

TEST(AndXorTreeTest, AcceptsSameKeyAcrossXorBranchesOfAndSubtrees) {
  // Key 1 appears in both children of a XOR whose children are AND nodes;
  // the LCA is the XOR, which is legal.
  AndXorTree tree;
  NodeId a1 = tree.AddLeaf(Alt(1, 1));
  NodeId a2 = tree.AddLeaf(Alt(2, 2));
  NodeId b1 = tree.AddLeaf(Alt(1, 3));
  NodeId b2 = tree.AddLeaf(Alt(2, 4));
  NodeId and_a = tree.AddAnd({a1, a2});
  NodeId and_b = tree.AddAnd({b1, b2});
  tree.SetRoot(tree.AddXor({and_a, and_b}, {0.3, 0.3}));
  EXPECT_TRUE(tree.Validate().ok());
}

TEST(AndXorTreeTest, LeafMarginalsMultiplyAlongPath) {
  AndXorTree tree;
  NodeId leaf = tree.AddLeaf(Alt(1, 1));
  NodeId inner = tree.AddXor({leaf}, {0.5});
  NodeId outer = tree.AddXor({inner}, {0.4});
  tree.SetRoot(outer);
  ASSERT_TRUE(tree.Validate().ok());
  std::vector<double> m = tree.LeafMarginals();
  EXPECT_NEAR(m[static_cast<size_t>(leaf)], 0.2, 1e-12);
  EXPECT_NEAR(tree.KeyMarginal(1), 0.2, 1e-12);
}

TEST(AndXorTreeTest, KeyMarginalSumsAlternatives) {
  AndXorTree tree = Figure1iTree();
  EXPECT_NEAR(tree.KeyMarginal(1), 0.6, 1e-12);
  EXPECT_NEAR(tree.KeyMarginal(2), 0.8, 1e-12);
  EXPECT_NEAR(tree.KeyMarginal(3), 1.0, 1e-12);
}

TEST(AndXorTreeTest, PairPresenceIndependentTuples) {
  AndXorTree tree = Figure1iTree();
  // Alternatives of independent tuples: joint = product of marginals.
  std::vector<NodeId> leaves = tree.LeafIds();
  std::vector<double> m = tree.LeafMarginals();
  // leaf 0 is (1, 8) with marginal 0.1; leaf 2 is (2, 3) with marginal 0.4.
  EXPECT_NEAR(PairPresenceProbability(tree, leaves[0], leaves[2]),
              m[static_cast<size_t>(leaves[0])] * m[static_cast<size_t>(leaves[2])],
              1e-12);
}

TEST(AndXorTreeTest, PairPresenceMutuallyExclusiveIsZero) {
  AndXorTree tree = Figure1iTree();
  std::vector<NodeId> leaves = tree.LeafIds();
  // Two alternatives of tuple 1 can never coexist.
  EXPECT_EQ(PairPresenceProbability(tree, leaves[0], leaves[1]), 0.0);
}

TEST(AndXorTreeTest, PairPresenceSelfIsMarginal) {
  AndXorTree tree = Figure1iTree();
  std::vector<NodeId> leaves = tree.LeafIds();
  EXPECT_NEAR(PairPresenceProbability(tree, leaves[0], leaves[0]), 0.1, 1e-12);
}

// Property test: pairwise presence probabilities match exhaustive
// enumeration on random and/xor trees.
class PairPresenceProperty : public ::testing::TestWithParam<int> {};

TEST_P(PairPresenceProperty, MatchesEnumeration) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  RandomTreeOptions opts;
  opts.num_keys = 5;
  opts.max_depth = 3;
  opts.max_alternatives = 2;
  auto tree_or = RandomAndXorTree(opts, &rng);
  ASSERT_TRUE(tree_or.ok());
  const AndXorTree& tree = *tree_or;
  auto worlds_or = EnumerateWorlds(tree);
  ASSERT_TRUE(worlds_or.ok());
  const std::vector<World>& worlds = *worlds_or;

  const std::vector<NodeId>& leaves = tree.LeafIds();
  for (size_t i = 0; i < leaves.size(); ++i) {
    for (size_t j = i; j < leaves.size(); ++j) {
      double expected = 0.0;
      for (const World& w : worlds) {
        bool has_i = std::binary_search(w.leaf_ids.begin(), w.leaf_ids.end(),
                                        leaves[i]);
        bool has_j = std::binary_search(w.leaf_ids.begin(), w.leaf_ids.end(),
                                        leaves[j]);
        if (has_i && has_j) expected += w.prob;
      }
      EXPECT_NEAR(PairPresenceProbability(tree, leaves[i], leaves[j]),
                  expected, 1e-9)
          << "leaves " << leaves[i] << ", " << leaves[j];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PairPresenceProperty,
                         ::testing::Range(0, 12));

// The historical path-vector pair presence, kept as the reference for the
// oracle's parent walk (which also checks the parent() and up_edge()
// accessors): it builds both root paths (parents recovered from
// the children lists), finds the LCA as their longest common suffix, and
// multiplies leaf1's distinct edges, leaf2's, then the shared part.
double PairPresenceOracle(const AndXorTree& tree, NodeId leaf1, NodeId leaf2) {
  if (leaf1 == leaf2) {
    return tree.LeafMarginals()[static_cast<size_t>(leaf1)];
  }
  std::vector<NodeId> parents(static_cast<size_t>(tree.NumNodes()),
                              kInvalidNode);
  for (NodeId id = 0; id < tree.NumNodes(); ++id) {
    for (NodeId c : tree.node(id).children) {
      parents[static_cast<size_t>(c)] = id;
    }
  }
  auto path_of = [&](NodeId leaf) {
    std::vector<NodeId> path;
    for (NodeId v = leaf; v != kInvalidNode;
         v = parents[static_cast<size_t>(v)]) {
      path.push_back(v);
    }
    return path;  // leaf ... root
  };
  std::vector<NodeId> p1 = path_of(leaf1);
  std::vector<NodeId> p2 = path_of(leaf2);
  size_t i1 = p1.size(), i2 = p2.size();
  while (i1 > 0 && i2 > 0 && p1[i1 - 1] == p2[i2 - 1]) {
    --i1;
    --i2;
  }
  if (tree.node(p1[i1]).kind == NodeKind::kXor) return 0.0;
  auto edge_prob = [&](NodeId child) {
    const TreeNode& p = tree.node(parents[static_cast<size_t>(child)]);
    if (p.kind != NodeKind::kXor) return 1.0;
    for (size_t i = 0; i < p.children.size(); ++i) {
      if (p.children[i] == child) return p.edge_probs[i];
    }
    return 0.0;
  };
  double prob = 1.0;
  for (size_t i = 0; i < i1; ++i) prob *= edge_prob(p1[i]);
  for (size_t i = 0; i < i2; ++i) prob *= edge_prob(p2[i]);
  for (size_t i = i1; i < p1.size(); ++i) {
    if (p1[i] != tree.root()) prob *= edge_prob(p1[i]);
  }
  return prob;
}

// Every ordered leaf pair, same-leaf pairs included, bitwise.
void ExpectPairPresenceMatchesOracle(const AndXorTree& tree) {
  const std::vector<NodeId>& leaves = tree.LeafIds();
  for (NodeId a : leaves) {
    ASSERT_EQ(tree.LeafMarginal(a), PairPresenceOracle(tree, a, a));
    for (NodeId b : leaves) {
      ASSERT_EQ(PairPresenceProbability(tree, a, b),
                PairPresenceOracle(tree, a, b))
          << "leaves " << a << ", " << b;
    }
  }
}

// The generator families of the flat-tree differential suite:
// tuple-independent, BID blocks, and deep correlated and/xor trees.
class PairPresenceOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PairPresenceOracleTest, ParentWalkBitwiseEqualsPathVectors) {
  Rng rng(GetParam());
  RandomTreeOptions opts;
  opts.num_keys = 7;
  opts.max_depth = 4;
  opts.max_alternatives = 3;
  auto independent = RandomTupleIndependent(6, &rng);
  ASSERT_TRUE(independent.ok());
  ExpectPairPresenceMatchesOracle(*independent);
  auto bid = RandomBid(opts, &rng);
  ASSERT_TRUE(bid.ok());
  ExpectPairPresenceMatchesOracle(*bid);
  auto deep = RandomAndXorTree(opts, &rng);
  ASSERT_TRUE(deep.ok());
  ExpectPairPresenceMatchesOracle(*deep);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PairPresenceOracleTest,
                         ::testing::Range<uint64_t>(1, 9));

TEST(AndXorTreeTest, PairPresenceOnDeepChainWalksWithoutRecursion) {
  // A 20000-deep XOR chain over and(leaf, xor(leaf, leaf)): the pairs meet
  // at the AND (20000 shared edges) or at the inner XOR (exclusive).
  AndXorTree tree;
  NodeId a = tree.AddLeaf(Alt(1, 3));
  NodeId b = tree.AddLeaf(Alt(2, 2));
  NodeId c = tree.AddLeaf(Alt(2, 1));
  NodeId node = tree.AddAnd({a, tree.AddXor({b, c}, {0.25, 0.5})});
  for (int i = 0; i < 20000; ++i) node = tree.AddXor({node}, {0.9999});
  tree.SetRoot(node);
  ASSERT_TRUE(tree.Validate().ok());
  EXPECT_EQ(PairPresenceProbability(tree, b, c), 0.0);
  EXPECT_GT(PairPresenceProbability(tree, a, b), 0.0);
  ExpectPairPresenceMatchesOracle(tree);
}

TEST(BuildersTest, TupleIndependentShape) {
  std::vector<IndependentTuple> tuples;
  for (int i = 0; i < 3; ++i) {
    IndependentTuple t;
    t.alt = Alt(i, i + 1.0);
    t.prob = 0.5;
    tuples.push_back(t);
  }
  auto tree = MakeTupleIndependent(tuples);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->NumLeaves(), 3);
  EXPECT_NEAR(tree->KeyMarginal(0), 0.5, 1e-12);
}

TEST(BuildersTest, EmptyInputRejected) {
  EXPECT_FALSE(MakeTupleIndependent({}).ok());
  EXPECT_FALSE(MakeBlockIndependent({}).ok());
  EXPECT_FALSE(MakeBlockIndependent({Block{}}).ok());
}

TEST(BuildersTest, AttributeUncertainTable) {
  auto tree = MakeAttributeUncertain({{0.5, 0.3}, {0.0, 0.9}});
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->Keys().size(), 2u);
  EXPECT_NEAR(tree->KeyMarginal(0), 0.8, 1e-12);
  EXPECT_NEAR(tree->KeyMarginal(1), 0.9, 1e-12);
}

TEST(BuildersTest, AttributeUncertainRejectsEmptyRow) {
  EXPECT_FALSE(MakeAttributeUncertain({{0.0, 0.0}}).ok());
}

TEST(AndXorTreeTest, ToStringMentionsStructure) {
  AndXorTree tree = Figure1iTree();
  std::string s = tree.ToString();
  EXPECT_NE(s.find("and"), std::string::npos);
  EXPECT_NE(s.find("xor"), std::string::npos);
  EXPECT_NE(s.find("leaf key=1"), std::string::npos);
}

}  // namespace
}  // namespace cpdb
