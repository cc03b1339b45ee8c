// Copyright 2026 The ConsensusDB Authors

#include "model/possible_worlds.h"

#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "model/builders.h"
#include "oracle/table_generators.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

TupleAlternative Alt(KeyId key, double score) {
  TupleAlternative a;
  a.key = key;
  a.score = score;
  return a;
}

// The highly correlated database of Figure 1(ii)/(iii): three possible
// worlds pw1 = {(t3,6),(t2,5),(t1,1)} (0.3), pw2 = {(t3,9),(t1,7),(t4,0)}
// (0.3), pw3 = {(t2,8),(t4,4),(t5,3)} (0.4).
AndXorTree Figure1iiiTree() {
  AndXorTree tree;
  NodeId pw1 = tree.AddAnd({tree.AddLeaf(Alt(3, 6)), tree.AddLeaf(Alt(2, 5)),
                            tree.AddLeaf(Alt(1, 1))});
  NodeId pw2 = tree.AddAnd({tree.AddLeaf(Alt(3, 9)), tree.AddLeaf(Alt(1, 7)),
                            tree.AddLeaf(Alt(4, 0))});
  NodeId pw3 = tree.AddAnd({tree.AddLeaf(Alt(2, 8)), tree.AddLeaf(Alt(4, 4)),
                            tree.AddLeaf(Alt(5, 3))});
  tree.SetRoot(tree.AddXor({pw1, pw2, pw3}, {0.3, 0.3, 0.4}));
  EXPECT_TRUE(tree.Validate().ok());
  return tree;
}

TEST(PossibleWorldsTest, Figure1iiiEnumeration) {
  AndXorTree tree = Figure1iiiTree();
  auto worlds = EnumerateWorlds(tree);
  ASSERT_TRUE(worlds.ok());
  ASSERT_EQ(worlds->size(), 3u);
  double total = 0.0;
  for (const World& w : *worlds) {
    EXPECT_EQ(w.leaf_ids.size(), 3u);
    total += w.prob;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(PossibleWorldsTest, Figure1iiiTopK) {
  AndXorTree tree = Figure1iiiTree();
  auto worlds = EnumerateWorlds(tree);
  ASSERT_TRUE(worlds.ok());
  // Identify pw2 by probability ordering: it contains (3,9),(1,7),(4,0).
  for (const World& w : *worlds) {
    std::vector<KeyId> top2 = TopKOfWorld(tree, w.leaf_ids, 2);
    ASSERT_EQ(top2.size(), 2u);
    std::vector<TupleAlternative> tuples = WorldTuples(tree, w.leaf_ids);
    EXPECT_EQ(top2[0], tuples[0].key);
    EXPECT_GT(tuples[0].score, tuples[1].score);
  }
}

TEST(PossibleWorldsTest, ProbabilitiesSumToOneOnRandomTrees) {
  for (int seed = 0; seed < 10; ++seed) {
    Rng rng(static_cast<uint64_t>(seed));
    RandomTreeOptions opts;
    opts.num_keys = 6;
    opts.max_depth = 3;
    auto tree = RandomAndXorTree(opts, &rng);
    ASSERT_TRUE(tree.ok());
    auto worlds = EnumerateWorlds(*tree);
    ASSERT_TRUE(worlds.ok());
    double total = 0.0;
    for (const World& w : *worlds) {
      EXPECT_GT(w.prob, 0.0);
      total += w.prob;
    }
    EXPECT_NEAR(total, 1.0, 1e-9) << "seed " << seed;
  }
}

TEST(PossibleWorldsTest, EnumerationLimitIsEnforced) {
  Rng rng(1);
  auto tree = RandomTupleIndependent(24, &rng);
  ASSERT_TRUE(tree.ok());
  auto worlds = EnumerateWorlds(*tree, /*max_worlds=*/1000);
  EXPECT_EQ(worlds.status().code(), StatusCode::kResourceExhausted);
}

TEST(PossibleWorldsTest, WorldsRespectKeyConstraint) {
  Rng rng(7);
  RandomTreeOptions opts;
  opts.num_keys = 5;
  opts.max_depth = 3;
  auto tree = RandomAndXorTree(opts, &rng);
  ASSERT_TRUE(tree.ok());
  auto worlds = EnumerateWorlds(*tree);
  ASSERT_TRUE(worlds.ok());
  for (const World& w : *worlds) {
    std::map<KeyId, int> key_count;
    for (NodeId l : w.leaf_ids) ++key_count[tree->node(l).leaf.key];
    for (const auto& [key, count] : key_count) {
      EXPECT_EQ(count, 1) << "key " << key << " appears twice in a world";
    }
  }
}

TEST(PossibleWorldsTest, SamplingMatchesEnumeration) {
  AndXorTree tree = Figure1iiiTree();
  auto worlds = EnumerateWorlds(tree);
  ASSERT_TRUE(worlds.ok());
  std::map<std::vector<NodeId>, double> expected;
  for (const World& w : *worlds) expected[w.leaf_ids] = w.prob;

  Rng rng(42);
  std::map<std::vector<NodeId>, int> counts;
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[SampleWorld(tree, &rng)];
  ASSERT_EQ(counts.size(), expected.size());
  for (const auto& [world, count] : counts) {
    ASSERT_TRUE(expected.count(world) > 0);
    EXPECT_NEAR(static_cast<double>(count) / n, expected[world], 0.01);
  }
}

TEST(PossibleWorldsTest, SamplingHandlesAbsence) {
  // Single tuple present with probability 0.25.
  std::vector<IndependentTuple> tuples(1);
  tuples[0].alt = Alt(1, 1.0);
  tuples[0].prob = 0.25;
  auto tree = MakeTupleIndependent(tuples);
  ASSERT_TRUE(tree.ok());
  Rng rng(5);
  int present = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    present += SampleWorld(*tree, &rng).empty() ? 0 : 1;
  }
  EXPECT_NEAR(static_cast<double>(present) / n, 0.25, 0.01);
}

TEST(PossibleWorldsTest, ZeroProbabilityBranchesAreDropped) {
  AndXorTree tree;
  NodeId a = tree.AddLeaf(Alt(1, 1));
  NodeId b = tree.AddLeaf(Alt(1, 2));
  tree.SetRoot(tree.AddXor({a, b}, {0.0, 1.0}));
  ASSERT_TRUE(tree.Validate().ok());
  auto worlds = EnumerateWorlds(tree);
  ASSERT_TRUE(worlds.ok());
  ASSERT_EQ(worlds->size(), 1u);
  EXPECT_EQ((*worlds)[0].leaf_ids, std::vector<NodeId>{b});
}

}  // namespace
}  // namespace cpdb
