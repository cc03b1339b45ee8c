// Copyright 2026 The ConsensusDB Authors
//
// Section 6.2: consensus clustering — co-clustering probabilities w_ij via
// generating functions, the expected-distance evaluator, and the pivot /
// local-search / exact algorithms.

#include "core/clustering.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "model/builders.h"
#include "model/possible_worlds.h"
#include "oracle/references.h"
#include "oracle/world_estimators.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

// A random attribute-uncertain table as an and/xor tree with labels.
Result<AndXorTree> RandomLabeledTree(int num_keys, int num_labels, Rng* rng,
                                     bool correlated) {
  if (!correlated) {
    std::vector<std::vector<double>> probs(
        static_cast<size_t>(num_keys),
        std::vector<double>(static_cast<size_t>(num_labels), 0.0));
    for (auto& row : probs) {
      double mass = rng->Uniform(0.5, 1.0);
      int support = static_cast<int>(rng->UniformInt(1, num_labels));
      for (int s = 0; s < support; ++s) {
        row[static_cast<size_t>(rng->UniformInt(0, num_labels - 1))] +=
            mass / support;
      }
    }
    return MakeAttributeUncertain(probs);
  }
  RandomTreeOptions opts;
  opts.num_keys = num_keys;
  opts.max_depth = 3;
  opts.max_alternatives = 2;
  return RandomAndXorTree(opts, rng);
}

class ClusteringProperty : public ::testing::TestWithParam<int> {};

TEST_P(ClusteringProperty, CoClusterProbabilitiesMatchEnumeration) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 311 + 5);
  bool correlated = GetParam() % 2 == 1;
  auto tree = RandomLabeledTree(5, 3, &rng, correlated);
  ASSERT_TRUE(tree.ok());
  auto problem = ClusteringProblem::FromTree(*tree);
  ASSERT_TRUE(problem.ok());
  auto worlds = EnumerateWorlds(*tree);
  ASSERT_TRUE(worlds.ok());

  const std::vector<KeyId>& keys = problem->keys();
  for (size_t i = 0; i < keys.size(); ++i) {
    for (size_t j = i + 1; j < keys.size(); ++j) {
      double expected = 0.0;
      for (const World& w : *worlds) {
        int32_t label_i = -1, label_j = -1;
        for (NodeId l : w.leaf_ids) {
          const TupleAlternative& alt = tree->node(l).leaf;
          if (alt.key == keys[i]) label_i = alt.label;
          if (alt.key == keys[j]) label_j = alt.label;
        }
        bool together = (label_i >= 0 && label_i == label_j) ||
                        (label_i < 0 && label_j < 0);
        if (together) expected += w.prob;
      }
      EXPECT_NEAR(problem->W(static_cast<int>(i), static_cast<int>(j)),
                  expected, 1e-9)
          << "pair (" << keys[i] << ", " << keys[j] << ") correlated="
          << correlated;
    }
  }
}

TEST_P(ClusteringProperty, ExpectedDistanceMatchesEnumeration) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 331 + 7);
  auto tree = RandomLabeledTree(5, 3, &rng, GetParam() % 2 == 1);
  ASSERT_TRUE(tree.ok());
  auto problem = ClusteringProblem::FromTree(*tree);
  ASSERT_TRUE(problem.ok());

  for (int trial = 0; trial < 4; ++trial) {
    ClusteringAnswer answer;
    for (int i = 0; i < problem->num_keys(); ++i) {
      answer.cluster_of.push_back(static_cast<int>(rng.UniformInt(0, 2)));
    }
    auto expected = EnumExpectedClusteringDistance(*tree, answer);
    ASSERT_TRUE(expected.ok());
    EXPECT_NEAR(problem->Expected(answer), *expected, 1e-9);
  }
}

TEST_P(ClusteringProperty, LocalSearchAndPivotRespectExactOptimum) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 353 + 11);
  auto tree = RandomLabeledTree(6, 3, &rng, GetParam() % 2 == 1);
  ASSERT_TRUE(tree.ok());
  auto problem = ClusteringProblem::FromTree(*tree);
  ASSERT_TRUE(problem.ok());

  auto exact = ExactClustering(*problem);
  ASSERT_TRUE(exact.ok());
  double opt = problem->Expected(*exact);

  ClusteringAnswer pivot = PivotClustering(*problem, &rng);
  EXPECT_GE(problem->Expected(pivot), opt - 1e-9);

  ClusteringAnswer improved = LocalSearchClustering(*problem, pivot);
  EXPECT_LE(problem->Expected(improved), problem->Expected(pivot) + 1e-9);
  EXPECT_GE(problem->Expected(improved), opt - 1e-9);

  ClusteringAnswer best_world =
      BestOfWorldsClustering(*tree, *problem, 64, &rng);
  EXPECT_GE(problem->Expected(best_world), opt - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusteringProperty, ::testing::Range(0, 10));

TEST(ClusteringTest, RequiresLabels) {
  Rng rng(3);
  std::vector<IndependentTuple> tuples(2);
  tuples[0].alt.key = 0;
  tuples[0].alt.score = 1.0;
  tuples[0].prob = 0.5;
  tuples[1].alt.key = 1;
  tuples[1].alt.score = 2.0;
  tuples[1].prob = 0.5;
  auto tree = MakeTupleIndependent(tuples);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(ClusteringProblem::FromTree(*tree).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ClusteringTest, DeterministicLabelsYieldZeroDistanceOptimum) {
  // Certain table: tuples 0,1 share label 0; tuple 2 has label 1.
  std::vector<std::vector<double>> probs = {
      {1.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}};
  auto tree = MakeAttributeUncertain(probs);
  ASSERT_TRUE(tree.ok());
  auto problem = ClusteringProblem::FromTree(*tree);
  ASSERT_TRUE(problem.ok());
  auto exact = ExactClustering(*problem);
  ASSERT_TRUE(exact.ok());
  EXPECT_NEAR(problem->Expected(*exact), 0.0, 1e-12);
  EXPECT_EQ(exact->cluster_of[0], exact->cluster_of[1]);
  EXPECT_NE(exact->cluster_of[0], exact->cluster_of[2]);
}

TEST(ClusteringTest, ExactRefusesLargeInstances) {
  Rng rng(5);
  auto tree = RandomLabeledTree(12, 3, &rng, false);
  ASSERT_TRUE(tree.ok());
  auto problem = ClusteringProblem::FromTree(*tree);
  ASSERT_TRUE(problem.ok());
  EXPECT_EQ(ExactClustering(*problem, /*max_keys=*/8).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(ClusteringTest, ExactReturnsTheEmptyClusteringWithoutKeys) {
  // Zero keys have exactly one clustering, the empty one.
  auto exact = ExactClustering(ClusteringProblem());
  ASSERT_TRUE(exact.ok());
  EXPECT_TRUE(exact->cluster_of.empty());
}

TEST(ClusteringTest, ClusteringOfWorldGroupsAbsentKeys) {
  std::vector<std::vector<double>> probs = {{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}};
  auto tree = MakeAttributeUncertain(probs);
  ASSERT_TRUE(tree.ok());
  // Empty world: all keys absent -> one shared cluster.
  ClusteringAnswer all_absent = ClusteringOfWorld(*tree, tree->Keys(), {});
  EXPECT_EQ(all_absent.cluster_of[0], all_absent.cluster_of[1]);
  EXPECT_EQ(all_absent.cluster_of[1], all_absent.cluster_of[2]);
}

}  // namespace
}  // namespace cpdb
