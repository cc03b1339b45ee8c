// Copyright 2026 The ConsensusDB Authors
//
// Section 4.1: mean world (Theorem 2) and median world (Corollary 1) under
// symmetric difference, validated against brute force over all subsets /
// all possible worlds.

#include "core/set_consensus.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/rng.h"
#include "model/builders.h"
#include "model/possible_worlds.h"
#include "oracle/table_generators.h"
#include "oracle/world_estimators.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

TupleAlternative Alt(KeyId key, double score) {
  TupleAlternative a;
  a.key = key;
  a.score = score;
  return a;
}

TEST(SetConsensusTest, ExpectedDistanceMatchesEnumeration) {
  Rng rng(11);
  RandomTreeOptions opts;
  opts.num_keys = 5;
  opts.max_depth = 3;
  auto tree = RandomAndXorTree(opts, &rng);
  ASSERT_TRUE(tree.ok());
  // Try a few candidate worlds, including the mean world.
  std::vector<std::vector<NodeId>> candidates = {
      {}, tree->LeafIds(), MeanWorldSymDiff(*tree)};
  for (const auto& candidate : candidates) {
    std::vector<NodeId> sorted = candidate;
    std::sort(sorted.begin(), sorted.end());
    auto expected =
        EnumExpectedSetDistance(*tree, sorted, SetMetric::kSymDiff);
    ASSERT_TRUE(expected.ok());
    EXPECT_NEAR(ExpectedSymDiffDistance(*tree, sorted), *expected, 1e-9);
  }
}

TEST(SetConsensusTest, MeanWorldIsMajorityLeaves) {
  std::vector<IndependentTuple> tuples;
  double probs[] = {0.9, 0.4, 0.500001, 0.1};
  for (int i = 0; i < 4; ++i) {
    IndependentTuple t;
    t.alt = Alt(i, i + 1.0);
    t.prob = probs[i];
    tuples.push_back(t);
  }
  auto tree = MakeTupleIndependent(tuples);
  ASSERT_TRUE(tree.ok());
  std::vector<NodeId> mean = MeanWorldSymDiff(*tree);
  ASSERT_EQ(mean.size(), 2u);
  EXPECT_EQ(tree->node(mean[0]).leaf.key, 0);
  EXPECT_EQ(tree->node(mean[1]).leaf.key, 2);
}

// Theorem 2 optimality: the mean world beats every subset of leaves.
class MeanWorldProperty : public ::testing::TestWithParam<int> {};

TEST_P(MeanWorldProperty, BeatsAllSubsets) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 53 + 1);
  RandomTreeOptions opts;
  opts.num_keys = 4;
  opts.max_depth = 2;
  opts.max_alternatives = 2;
  auto tree = RandomAndXorTree(opts, &rng);
  ASSERT_TRUE(tree.ok());
  int n = tree->NumLeaves();
  if (n > 14) GTEST_SKIP() << "instance too large for subset brute force";

  double mean_cost = ExpectedSymDiffDistance(*tree, MeanWorldSymDiff(*tree));
  const std::vector<NodeId>& leaves = tree->LeafIds();
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    std::vector<NodeId> subset;
    for (int b = 0; b < n; ++b) {
      if (mask & (1u << b)) subset.push_back(leaves[static_cast<size_t>(b)]);
    }
    std::sort(subset.begin(), subset.end());
    EXPECT_GE(ExpectedSymDiffDistance(*tree, subset), mean_cost - 1e-9);
  }
}

// Median optimality: the DP answer matches argmin over enumerated worlds.
TEST_P(MeanWorldProperty, MedianMatchesWorldArgmin) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 97 + 2);
  RandomTreeOptions opts;
  opts.num_keys = 5;
  opts.max_depth = 3;
  auto tree = RandomAndXorTree(opts, &rng);
  ASSERT_TRUE(tree.ok());
  auto worlds = EnumerateWorlds(*tree);
  ASSERT_TRUE(worlds.ok());

  double best = std::numeric_limits<double>::infinity();
  for (const World& w : *worlds) {
    best = std::min(best, ExpectedSymDiffDistance(*tree, w.leaf_ids));
  }
  std::vector<NodeId> median = MedianWorldSymDiff(*tree);
  EXPECT_NEAR(ExpectedSymDiffDistance(*tree, median), best, 1e-9);

  // The median must itself be a possible world.
  bool found = false;
  for (const World& w : *worlds) found |= (w.leaf_ids == median);
  EXPECT_TRUE(found) << "median is not a possible world";
}

INSTANTIATE_TEST_SUITE_P(Seeds, MeanWorldProperty, ::testing::Range(0, 15));

TEST(SetConsensusTest, Corollary1HoldsAwayFromTies) {
  // With no marginal at exactly 0.5, the median world equals the mean world
  // {p > 1/2} on block-independent trees (Corollary 1).
  Rng rng(31);
  RandomTreeOptions opts;
  opts.num_keys = 12;
  auto tree = RandomBid(opts, &rng);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(MedianWorldSymDiff(*tree), MeanWorldSymDiff(*tree));
}

TEST(SetConsensusTest, TieAtOneHalfIsResolvedToAPossibleWorld) {
  // XOR with two 0.5 children: the {p > 1/2} set is empty, but the empty
  // world has probability zero. The median DP must pick one alternative.
  AndXorTree tree;
  NodeId a = tree.AddLeaf(Alt(1, 1));
  NodeId b = tree.AddLeaf(Alt(1, 2));
  tree.SetRoot(tree.AddXor({a, b}, {0.5, 0.5}));
  ASSERT_TRUE(tree.Validate().ok());

  EXPECT_TRUE(MeanWorldSymDiff(tree).empty());
  std::vector<NodeId> median = MedianWorldSymDiff(tree);
  ASSERT_EQ(median.size(), 1u);
  // Both choices cost 1; either is an optimal possible world.
  EXPECT_NEAR(ExpectedSymDiffDistance(tree, median), 1.0, 1e-12);
}

TEST(SetConsensusTest, CoexistenceForcesPairs) {
  // AND(t1, t2) under a 0.6 XOR edge: both leaves have marginal 0.6 and the
  // median must contain both or neither.
  AndXorTree tree;
  NodeId pair = tree.AddAnd({tree.AddLeaf(Alt(1, 1)), tree.AddLeaf(Alt(2, 2))});
  tree.SetRoot(tree.AddXor({pair}, {0.6}));
  ASSERT_TRUE(tree.Validate().ok());
  std::vector<NodeId> median = MedianWorldSymDiff(tree);
  EXPECT_EQ(median.size(), 2u);
}

}  // namespace
}  // namespace cpdb
