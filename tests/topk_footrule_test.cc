// Copyright 2026 The ConsensusDB Authors
//
// Section 5.4: the footrule mean Top-k answer via assignment. The evaluator
// cross-check against exhaustive enumeration is the test that pinned down
// the sign discrepancy in the paper's Figure 2 (see topk_footrule.h).

#include "core/topk_footrule.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <limits>

#include "common/rng.h"
#include "model/builders.h"
#include "oracle/table_generators.h"
#include "oracle/world_estimators.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

constexpr int kK = 3;

// The third per-position statistic of Section 5.4:
// sum_{j<=k} |i-j| Pr(r(t)=j) + i Pr(r(t)>k). The served assignment cost,
// FootrulePositionCost, folds in its corrected form (see topk_footrule.h).
double Upsilon3(const RankDistribution& dist, KeyId key, int i) {
  double v = 0.0;
  for (int j = 1; j <= dist.k(); ++j) {
    v += std::abs(i - j) * dist.PrRankEq(key, j);
  }
  v += i * dist.PrBeyondK(key);
  return v;
}

class TopKFootruleProperty : public ::testing::TestWithParam<int> {};

TEST_P(TopKFootruleProperty, EvaluatorMatchesEnumeration) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 101 + 7);
  RandomTreeOptions opts;
  opts.num_keys = 6;
  opts.max_depth = 3;
  opts.max_alternatives = 2;
  auto tree = RandomAndXorTree(opts, &rng);
  ASSERT_TRUE(tree.ok());
  RankDistribution dist = ComputeRankDistribution(*tree, kK);
  if (static_cast<int>(dist.keys().size()) < kK) GTEST_SKIP();

  std::vector<KeyId> keys = tree->Keys();
  for (int trial = 0; trial < 5; ++trial) {
    rng.Shuffle(&keys);
    std::vector<KeyId> answer(keys.begin(), keys.begin() + kK);
    auto expected =
        EnumExpectedTopKDistance(*tree, answer, kK, TopKMetric::kFootrule);
    ASSERT_TRUE(expected.ok());
    EXPECT_NEAR(ExpectedTopKFootrule(dist, answer), *expected, 1e-9)
        << "footrule closed form diverges from enumeration";
  }
}

TEST_P(TopKFootruleProperty, AssignmentBeatsAllOrderedAnswers) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 103 + 9);
  RandomTreeOptions opts;
  opts.num_keys = 5;
  opts.max_depth = 2;
  auto tree = RandomAndXorTree(opts, &rng);
  ASSERT_TRUE(tree.ok());
  RankDistribution dist = ComputeRankDistribution(*tree, kK);
  if (static_cast<int>(dist.keys().size()) < kK) GTEST_SKIP();

  auto mean = MeanTopKFootrule(dist);
  ASSERT_TRUE(mean.ok());

  std::vector<KeyId> keys = dist.keys();
  double best = std::numeric_limits<double>::infinity();
  std::vector<KeyId> current;
  std::vector<bool> used(keys.size(), false);
  std::function<void()> recurse = [&]() {
    if (current.size() == static_cast<size_t>(kK)) {
      best = std::min(best, ExpectedTopKFootrule(dist, current));
      return;
    }
    for (size_t i = 0; i < keys.size(); ++i) {
      if (used[i]) continue;
      used[i] = true;
      current.push_back(keys[i]);
      recurse();
      current.pop_back();
      used[i] = false;
    }
  };
  recurse();
  EXPECT_NEAR(mean->expected_distance, best, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopKFootruleProperty, ::testing::Range(0, 15));

TEST(TopKFootruleTest, UpsilonStatisticsOnCertainDatabase) {
  std::vector<IndependentTuple> tuples;
  for (int i = 0; i < 4; ++i) {
    IndependentTuple t;
    t.alt.key = i;
    t.alt.score = 10.0 - i;
    t.prob = 1.0;
    tuples.push_back(t);
  }
  auto tree = MakeTupleIndependent(tuples);
  ASSERT_TRUE(tree.ok());
  RankDistribution dist = ComputeRankDistribution(*tree, 3);
  // Key 1 is deterministically at rank 2.
  EXPECT_NEAR(Upsilon2(dist, 1), 2.0, 1e-12);
  EXPECT_NEAR(Upsilon3(dist, 1, 2), 0.0, 1e-12);
  EXPECT_NEAR(Upsilon3(dist, 1, 3), 1.0, 1e-12);
  // Key 3 is always beyond k=3: Upsilon3(t, i) = i.
  EXPECT_NEAR(Upsilon3(dist, 3, 2), 2.0, 1e-12);
}

TEST(TopKFootruleTest, CertainDatabaseHasZeroOptimalDistance) {
  std::vector<IndependentTuple> tuples;
  for (int i = 0; i < 5; ++i) {
    IndependentTuple t;
    t.alt.key = i;
    t.alt.score = 100.0 - i;
    t.prob = 1.0;
    tuples.push_back(t);
  }
  auto tree = MakeTupleIndependent(tuples);
  ASSERT_TRUE(tree.ok());
  RankDistribution dist = ComputeRankDistribution(*tree, 3);
  auto mean = MeanTopKFootrule(dist);
  ASSERT_TRUE(mean.ok());
  std::vector<KeyId> truth = {0, 1, 2};
  EXPECT_EQ(mean->keys, truth);
  EXPECT_NEAR(mean->expected_distance, 0.0, 1e-9);
}

TEST(TopKFootruleTest, OrderMattersInTheAnswer) {
  // A tuple with high Pr(rank = 1) should land at position 1 rather than 3.
  std::vector<IndependentTuple> tuples;
  double scores[] = {10, 8, 6, 4};
  for (int i = 0; i < 4; ++i) {
    IndependentTuple t;
    t.alt.key = i;
    t.alt.score = scores[i];
    t.prob = 0.95;
    tuples.push_back(t);
  }
  auto tree = MakeTupleIndependent(tuples);
  ASSERT_TRUE(tree.ok());
  RankDistribution dist = ComputeRankDistribution(*tree, 3);
  auto mean = MeanTopKFootrule(dist);
  ASSERT_TRUE(mean.ok());
  std::vector<KeyId> truth = {0, 1, 2};
  EXPECT_EQ(mean->keys, truth);

  // Reversing the answer strictly increases the expected footrule distance.
  std::vector<KeyId> reversed = {2, 1, 0};
  EXPECT_GT(ExpectedTopKFootrule(dist, reversed), mean->expected_distance);
}

}  // namespace
}  // namespace cpdb
