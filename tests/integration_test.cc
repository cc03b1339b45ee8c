// Copyright 2026 The ConsensusDB Authors
//
// End-to-end integration test: reproduces the paper's Figure 1 worked
// examples exactly and runs the complete consensus pipeline (worlds ->
// rank distributions -> every consensus answer) on one instance, checking
// all the cross-module identities the paper states.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "core/ranking_baselines.h"
#include "core/set_consensus.h"
#include "core/topk_footrule.h"
#include "core/topk_intersection.h"
#include "core/topk_symdiff.h"
#include "io/tree_text.h"
#include "model/possible_worlds.h"
#include "oracle/fold_oracles.h"
#include "oracle/table_generators.h"
#include "oracle/world_estimators.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

// Figure 1(iii): the correlated database with exactly three worlds.
const char* kFigure1Text =
    "(xor"
    " 0.3 (and (leaf key=3 score=6) (leaf key=2 score=5) (leaf key=1 score=1))"
    " 0.3 (and (leaf key=3 score=9) (leaf key=1 score=7) (leaf key=4 score=0))"
    " 0.4 (and (leaf key=2 score=8) (leaf key=4 score=4) (leaf key=5 score=3)))";

TEST(IntegrationTest, Figure1WorldsAndRanks) {
  auto tree = ParseTree(kFigure1Text);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();

  auto worlds = EnumerateWorlds(*tree);
  ASSERT_TRUE(worlds.ok());
  ASSERT_EQ(worlds->size(), 3u);

  // The figure's annotation: Pr(r(t3 via score 6) = 1) = 0.3. With k = 1,
  // key 3's rank-1 probability also includes world pw2 where (3, 9) tops.
  RankDistribution dist = ComputeRankDistribution(*tree, 3);
  EXPECT_NEAR(dist.PrRankEq(3, 1), 0.6, 1e-12);  // pw1 (score 6) + pw2 (score 9)
  EXPECT_NEAR(dist.PrRankEq(2, 1), 0.4, 1e-12);  // pw3's (2, 8)
  EXPECT_NEAR(dist.PrRankEq(2, 2), 0.3, 1e-12);  // pw1's (2, 5)
  EXPECT_NEAR(dist.PrRankEq(1, 3), 0.3, 1e-12);  // bottom of pw1
  EXPECT_NEAR(dist.PrRankEq(1, 2), 0.3, 1e-12);  // middle of pw2 (score 7)
  EXPECT_NEAR(dist.PrRankEq(4, 3), 0.3, 1e-12);  // bottom of pw2 (score 0)
  EXPECT_NEAR(dist.PrTopK(5), 0.4, 1e-12);

  // Mean Top-2 under d_Delta: the two keys with largest Pr(r <= 2):
  // key 3: 0.6, key 2: 0.7, key 1: 0.3, key 4: 0.4, key 5: 0.4.
  RankDistribution dist2 = ComputeRankDistribution(*tree, 2);
  TopKResult mean2 = MeanTopKSymDiff(dist2);
  std::set<KeyId> mean2_set(mean2.keys.begin(), mean2.keys.end());
  EXPECT_EQ(mean2_set, (std::set<KeyId>{2, 3}));

  // The median Top-2 must be the Top-2 of one of the three worlds.
  auto median = MedianTopKSymDiff(*tree, dist2);
  ASSERT_TRUE(median.ok());
  std::set<std::vector<KeyId>> realizable;
  for (const World& w : *worlds) {
    realizable.insert(TopKOfWorld(*tree, w.leaf_ids, 2));
  }
  EXPECT_TRUE(realizable.count(median->keys) > 0);
}

TEST(IntegrationTest, FullPipelineConsistency) {
  Rng rng(20260613);
  // A moderate BID instance: every closed form must agree with Monte Carlo,
  // the rank scan must be bitwise the pointer-fold oracle, and the stated
  // identities between answers must hold.
  RandomTreeOptions opts;
  opts.num_keys = 18;
  opts.max_alternatives = 3;
  auto tree_text = [&] {
    auto tree = RandomBid(opts, &rng);
    return FormatTree(*tree, true);
  }();
  // Round-trip through the text format first (io integration).
  auto tree = ParseTree(tree_text);
  ASSERT_TRUE(tree.ok());

  const int k = 5;
  RankDistribution dist = ComputeRankDistribution(*tree, k);
  RankDistribution reference = ComputeRankDistributionPointer(*tree, k);
  ASSERT_EQ(dist.keys(), reference.keys());
  for (KeyId key : dist.keys()) {
    for (int i = 1; i <= k; ++i) {
      ASSERT_EQ(dist.PrRankEq(key, i), reference.PrRankEq(key, i));
    }
  }

  // Identity (Theorem 3): Global Top-k == mean answer under d_Delta.
  TopKResult mean = MeanTopKSymDiff(dist);
  std::set<KeyId> global_set;
  for (KeyId key : GlobalTopK(dist)) global_set.insert(key);
  std::set<KeyId> mean_set(mean.keys.begin(), mean.keys.end());
  EXPECT_EQ(global_set, mean_set);

  // Every closed-form expectation within 4 sigma of Monte Carlo.
  auto inter = MeanTopKIntersectionExact(dist);
  auto foot = MeanTopKFootrule(dist);
  ASSERT_TRUE(inter.ok());
  ASSERT_TRUE(foot.ok());
  struct Case {
    std::vector<KeyId> answer;
    TopKMetric metric;
    double closed_form;
  };
  std::vector<Case> cases = {
      {mean.keys, TopKMetric::kSymDiff, mean.expected_distance},
      {inter->keys, TopKMetric::kIntersection, inter->expected_distance},
      {foot->keys, TopKMetric::kFootrule, foot->expected_distance},
  };
  for (const Case& c : cases) {
    McEstimate estimate =
        McExpectedTopKDistance(*tree, c.answer, k, c.metric, 40000, &rng);
    EXPECT_TRUE(estimate.Covers(c.closed_form, 4.5))
        << "metric " << static_cast<int>(c.metric) << ": closed form "
        << c.closed_form << " vs MC " << estimate.mean << " +- "
        << estimate.std_error;
  }

  // Consensus world identities: the DP median never beats the mean bound,
  // and both expected distances match the Monte-Carlo estimates.
  std::vector<NodeId> mean_world = MeanWorldSymDiff(*tree);
  std::vector<NodeId> median_world = MedianWorldSymDiff(*tree);
  double mean_cost = ExpectedSymDiffDistance(*tree, mean_world);
  double median_cost = ExpectedSymDiffDistance(*tree, median_world);
  EXPECT_GE(median_cost, mean_cost - 1e-9);
  McEstimate world_estimate = McExpectedSetDistance(
      *tree, median_world, SetMetric::kSymDiff, 40000, &rng);
  EXPECT_TRUE(world_estimate.Covers(median_cost, 4.5));
}

}  // namespace
}  // namespace cpdb
