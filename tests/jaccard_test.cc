// Copyright 2026 The ConsensusDB Authors
//
// Section 4.2: expected Jaccard distance (Lemma 1) and the sorted-prefix
// mean/median world algorithms (Lemma 2), validated by brute force.

#include "core/jaccard.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/rng.h"
#include "model/builders.h"
#include "model/possible_worlds.h"
#include "oracle/list_distances.h"
#include "oracle/world_estimators.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

TEST(JaccardDistanceTest, BasicProperties) {
  EXPECT_DOUBLE_EQ(JaccardDistance({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(JaccardDistance({1, 2}, {1, 2}), 0.0);
  EXPECT_DOUBLE_EQ(JaccardDistance({1}, {2}), 1.0);
  EXPECT_DOUBLE_EQ(JaccardDistance({}, {5}), 1.0);
  EXPECT_DOUBLE_EQ(JaccardDistance({1, 2}, {2, 3}), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(JaccardDistance({1, 2, 3}, {2, 3}), 1.0 / 3.0);
}

TEST(JaccardDistanceTest, TriangleInequalityOnRandomSets) {
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    auto random_set = [&]() {
      std::vector<NodeId> s;
      for (NodeId i = 0; i < 8; ++i) {
        if (rng.Bernoulli(0.5)) s.push_back(i);
      }
      return s;
    };
    std::vector<NodeId> a = random_set(), b = random_set(), c = random_set();
    EXPECT_LE(JaccardDistance(a, c),
              JaccardDistance(a, b) + JaccardDistance(b, c) + 1e-12);
  }
}

class JaccardProperty : public ::testing::TestWithParam<int> {};

TEST_P(JaccardProperty, Lemma1MatchesEnumeration) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 211 + 9);
  RandomTreeOptions opts;
  opts.num_keys = 5;
  opts.max_depth = 3;
  opts.max_alternatives = 2;
  auto tree = RandomAndXorTree(opts, &rng);
  ASSERT_TRUE(tree.ok());

  // Random candidate world W.
  std::vector<NodeId> world;
  for (NodeId l : tree->LeafIds()) {
    if (rng.Bernoulli(0.4)) world.push_back(l);
  }
  std::sort(world.begin(), world.end());

  auto expected = EnumExpectedSetDistance(*tree, world, SetMetric::kJaccard);
  ASSERT_TRUE(expected.ok());
  EXPECT_NEAR(ExpectedJaccardDistance(*tree, world), *expected, 1e-9);
}

TEST_P(JaccardProperty, MeanWorldBeatsAllSubsetsOnTupleIndependent) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 401 + 13);
  int n = 3 + GetParam() % 6;  // 3..8 tuples
  auto tree = RandomTupleIndependent(n, &rng);
  ASSERT_TRUE(tree.ok());

  auto mean = MeanWorldJaccard(*tree);
  ASSERT_TRUE(mean.ok());
  double mean_cost = ExpectedJaccardDistance(*tree, *mean);

  const std::vector<NodeId>& leaves = tree->LeafIds();
  double best = std::numeric_limits<double>::infinity();
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    std::vector<NodeId> subset;
    for (int b = 0; b < n; ++b) {
      if (mask & (1u << b)) subset.push_back(leaves[static_cast<size_t>(b)]);
    }
    std::sort(subset.begin(), subset.end());
    best = std::min(best, ExpectedJaccardDistance(*tree, subset));
  }
  EXPECT_NEAR(mean_cost, best, 1e-9)
      << "prefix scan missed the optimum (Lemma 2 violated?)";
}

TEST_P(JaccardProperty, BidMedianBeatsItsCandidateFamily) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 701 + 29);
  RandomTreeOptions opts;
  opts.num_keys = 5;
  opts.max_alternatives = 3;
  auto tree = RandomBid(opts, &rng);
  ASSERT_TRUE(tree.ok());

  auto median = MedianWorldJaccardBid(*tree);
  ASSERT_TRUE(median.ok());
  double median_cost = ExpectedJaccardDistance(*tree, *median);

  // The answer must be a possible world (or the empty world, possible since
  // every generated block has leftover mass).
  auto worlds = EnumerateWorlds(*tree);
  ASSERT_TRUE(worlds.ok());
  bool is_world = median->empty();
  for (const World& w : *worlds) is_world |= (w.leaf_ids == *median);
  EXPECT_TRUE(is_world);

  // Rebuild the paper's candidate family (prefixes of blocks sorted by their
  // top alternative's probability) and check none beats the answer.
  std::vector<double> marginal = tree->LeafMarginals();
  const TreeNode& root = tree->node(tree->root());
  std::vector<NodeId> representatives;
  for (NodeId b : root.children) {
    NodeId best_leaf = kInvalidNode;
    double best_p = 0.0;
    for (NodeId c : tree->node(b).children) {
      if (marginal[static_cast<size_t>(c)] > best_p) {
        best_p = marginal[static_cast<size_t>(c)];
        best_leaf = c;
      }
    }
    if (best_leaf != kInvalidNode) representatives.push_back(best_leaf);
  }
  std::sort(representatives.begin(), representatives.end(),
            [&](NodeId a, NodeId b) {
              return marginal[static_cast<size_t>(a)] >
                     marginal[static_cast<size_t>(b)];
            });
  std::vector<NodeId> prefix;
  EXPECT_LE(median_cost, ExpectedJaccardDistance(*tree, {}) + 1e-9);
  for (NodeId r : representatives) {
    prefix.push_back(r);
    std::vector<NodeId> sorted = prefix;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_LE(median_cost, ExpectedJaccardDistance(*tree, sorted) + 1e-9);
  }
  EXPECT_GE(median_cost, -1e-12);
  EXPECT_LE(median_cost, 1.0 + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JaccardProperty, ::testing::Range(0, 10));

TEST(JaccardTest, ShapeDetectors) {
  Rng rng(5);
  auto independent = RandomTupleIndependent(4, &rng);
  ASSERT_TRUE(independent.ok());
  EXPECT_TRUE(IsTupleIndependent(*independent));
  EXPECT_TRUE(IsBlockIndependent(*independent));

  RandomTreeOptions opts;
  opts.num_keys = 4;
  opts.max_alternatives = 3;
  auto bid = RandomBid(opts, &rng);
  ASSERT_TRUE(bid.ok());
  EXPECT_TRUE(IsBlockIndependent(*bid));

  opts.max_depth = 3;
  auto deep = RandomAndXorTree(opts, &rng);
  ASSERT_TRUE(deep.ok());
  // Deep correlated trees are generally neither.
  EXPECT_FALSE(IsTupleIndependent(*deep));
}

TEST(JaccardTest, MeanWorldRejectsNonIndependentTrees) {
  Rng rng(7);
  RandomTreeOptions opts;
  opts.num_keys = 4;
  opts.max_alternatives = 3;
  auto bid = RandomBid(opts, &rng);
  ASSERT_TRUE(bid.ok());
  EXPECT_EQ(MeanWorldJaccard(*bid).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(JaccardTest, HighProbabilityTuplesAreKept) {
  std::vector<IndependentTuple> tuples;
  double probs[] = {0.95, 0.9, 0.05};
  for (int i = 0; i < 3; ++i) {
    IndependentTuple t;
    t.alt.key = i;
    t.alt.score = i + 1.0;
    t.prob = probs[i];
    tuples.push_back(t);
  }
  auto tree = MakeTupleIndependent(tuples);
  ASSERT_TRUE(tree.ok());
  auto mean = MeanWorldJaccard(*tree);
  ASSERT_TRUE(mean.ok());
  ASSERT_EQ(mean->size(), 2u);
  EXPECT_EQ(tree->node((*mean)[0]).leaf.key, 0);
  EXPECT_EQ(tree->node((*mean)[1]).leaf.key, 1);
}

}  // namespace
}  // namespace cpdb
