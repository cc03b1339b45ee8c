// Copyright 2026 The ConsensusDB Authors
//
// Monte-Carlo estimators: unbiasedness against exact enumeration, CI
// behavior, and degenerate sample counts.

#include "oracle/world_estimators.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/set_consensus.h"
#include "core/topk_symdiff.h"
#include "model/possible_worlds.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

class MonteCarloProperty : public ::testing::TestWithParam<int> {};

TEST_P(MonteCarloProperty, TopKEstimateCoversExactValue) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 811 + 7);
  RandomTreeOptions opts;
  opts.num_keys = 6;
  opts.max_depth = 3;
  opts.max_alternatives = 2;
  auto tree = RandomAndXorTree(opts, &rng);
  ASSERT_TRUE(tree.ok());
  const int k = 3;

  std::vector<KeyId> answer = tree->Keys();
  if (answer.size() > static_cast<size_t>(k)) answer.resize(static_cast<size_t>(k));

  for (TopKMetric metric :
       {TopKMetric::kSymDiff, TopKMetric::kIntersection, TopKMetric::kFootrule,
        TopKMetric::kKendall}) {
    auto exact = EnumExpectedTopKDistance(*tree, answer, k, metric);
    ASSERT_TRUE(exact.ok());
    McEstimate estimate =
        McExpectedTopKDistance(*tree, answer, k, metric, 20000, &rng);
    EXPECT_EQ(estimate.samples, 20000);
    // Degenerate (zero-variance) estimates must equal the exact value.
    if (estimate.std_error == 0.0) {
      EXPECT_NEAR(estimate.mean, *exact, 1e-9);
    } else {
      EXPECT_TRUE(estimate.Covers(*exact, 4.0))
          << "metric " << static_cast<int>(metric) << ": exact " << *exact
          << " vs " << estimate.mean << " +- " << estimate.std_error;
    }
  }
}

TEST_P(MonteCarloProperty, SetEstimateCoversExactValue) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 839 + 11);
  RandomTreeOptions opts;
  opts.num_keys = 5;
  opts.max_depth = 3;
  auto tree = RandomAndXorTree(opts, &rng);
  ASSERT_TRUE(tree.ok());
  std::vector<NodeId> world = MeanWorldSymDiff(*tree);

  for (SetMetric metric : {SetMetric::kSymDiff, SetMetric::kJaccard}) {
    auto exact = EnumExpectedSetDistance(*tree, world, metric);
    ASSERT_TRUE(exact.ok());
    McEstimate estimate =
        McExpectedSetDistance(*tree, world, metric, 20000, &rng);
    if (estimate.std_error == 0.0) {
      EXPECT_NEAR(estimate.mean, *exact, 1e-9);
    } else {
      EXPECT_TRUE(estimate.Covers(*exact, 4.0));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonteCarloProperty, ::testing::Range(0, 8));

TEST(MonteCarloTest, DeterministicInstanceHasZeroError) {
  std::vector<IndependentTuple> tuples(3);
  for (int i = 0; i < 3; ++i) {
    tuples[static_cast<size_t>(i)].alt.key = i;
    tuples[static_cast<size_t>(i)].alt.score = i + 1.0;
    tuples[static_cast<size_t>(i)].prob = 1.0;
  }
  auto tree = MakeTupleIndependent(tuples);
  ASSERT_TRUE(tree.ok());
  Rng rng(3);
  std::vector<KeyId> answer = {2, 1};
  McEstimate estimate = McExpectedTopKDistance(*tree, answer, 2,
                                               TopKMetric::kSymDiff, 500, &rng);
  EXPECT_EQ(estimate.std_error, 0.0);
  EXPECT_NEAR(estimate.mean, 0.0, 1e-12);
}

TEST(MonteCarloTest, CiBoundsAreOrdered) {
  Rng rng(7);
  auto tree = RandomTupleIndependent(6, &rng);
  ASSERT_TRUE(tree.ok());
  McEstimate estimate = EstimateOverWorlds(
      *tree, 1000, &rng,
      [](const std::vector<NodeId>& w) { return static_cast<double>(w.size()); });
  EXPECT_LE(estimate.ci95_low(), estimate.mean);
  EXPECT_GE(estimate.ci95_high(), estimate.mean);
  EXPECT_GT(estimate.std_error, 0.0);
}

TEST(MonteCarloTest, HandlesDegenerateSampleCounts) {
  Rng rng(37);
  auto tree = RandomTupleIndependent(6, &rng);
  ASSERT_TRUE(tree.ok());
  McEstimate none = EstimateOverWorlds(
      *tree, 0, &rng, [](const std::vector<NodeId>&) { return 1.0; });
  EXPECT_EQ(none.samples, 0);
  McEstimate one = EstimateOverWorlds(
      *tree, 1, &rng, [](const std::vector<NodeId>&) { return 1.0; });
  EXPECT_EQ(one.samples, 1);
  EXPECT_EQ(one.mean, 1.0);
  EXPECT_EQ(one.std_error, 0.0);
}

}  // namespace
}  // namespace cpdb
