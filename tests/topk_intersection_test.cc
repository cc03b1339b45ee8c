// Copyright 2026 The ConsensusDB Authors
//
// Section 5.3: the intersection-metric mean Top-k answer — exact via
// assignment, approximate via Upsilon_H — with the paper's H_k guarantee
// verified empirically.

#include "core/topk_intersection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>

#include "common/rng.h"
#include "oracle/references.h"
#include "oracle/table_generators.h"
#include "oracle/world_estimators.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

constexpr int kK = 3;

class TopKIntersectionProperty : public ::testing::TestWithParam<int> {};

TEST_P(TopKIntersectionProperty, EvaluatorMatchesEnumeration) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 47 + 29);
  RandomTreeOptions opts;
  opts.num_keys = 6;
  opts.max_depth = 3;
  opts.max_alternatives = 2;
  auto tree = RandomAndXorTree(opts, &rng);
  ASSERT_TRUE(tree.ok());
  RankDistribution dist = ComputeRankDistribution(*tree, kK);

  std::vector<KeyId> keys = tree->Keys();
  for (int trial = 0; trial < 5; ++trial) {
    rng.Shuffle(&keys);
    std::vector<KeyId> answer(keys.begin(),
                              keys.begin() + std::min<size_t>(keys.size(), kK));
    auto expected =
        EnumExpectedTopKDistance(*tree, answer, kK, TopKMetric::kIntersection);
    ASSERT_TRUE(expected.ok());
    EXPECT_NEAR(ExpectedTopKIntersection(dist, answer), *expected, 1e-9);
  }
}

TEST_P(TopKIntersectionProperty, ExactBeatsAllOrderedAnswers) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 59 + 31);
  RandomTreeOptions opts;
  opts.num_keys = 5;
  opts.max_depth = 2;
  auto tree = RandomAndXorTree(opts, &rng);
  ASSERT_TRUE(tree.ok());
  RankDistribution dist = ComputeRankDistribution(*tree, kK);
  if (static_cast<int>(dist.keys().size()) < kK) GTEST_SKIP();

  auto exact = MeanTopKIntersectionExact(dist);
  ASSERT_TRUE(exact.ok());

  // Brute force over ordered k-tuples of keys.
  std::vector<KeyId> keys = dist.keys();
  double best = std::numeric_limits<double>::infinity();
  std::vector<KeyId> current;
  std::vector<bool> used(keys.size(), false);
  std::function<void()> recurse = [&]() {
    if (current.size() == static_cast<size_t>(kK)) {
      best = std::min(best, ExpectedTopKIntersection(dist, current));
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
  EXPECT_NEAR(exact->expected_distance, best, 1e-9);
}

TEST_P(TopKIntersectionProperty, ApproxSatisfiesHkBoundOnProfit) {
  // The paper's guarantee is on the profit objective A(tau):
  // A(approx) >= A(exact) / H_k.
  Rng rng(static_cast<uint64_t>(GetParam()) * 71 + 41);
  RandomTreeOptions opts;
  opts.num_keys = 8;
  opts.max_alternatives = 3;
  auto tree = RandomBid(opts, &rng);
  ASSERT_TRUE(tree.ok());
  RankDistribution dist = ComputeRankDistribution(*tree, kK);

  auto exact = MeanTopKIntersectionExact(dist);
  ASSERT_TRUE(exact.ok());
  TopKResult approx = MeanTopKIntersectionApprox(dist);

  auto profit = [&](const std::vector<KeyId>& answer) {
    double total = 0.0;
    for (size_t j = 0; j < answer.size(); ++j) {
      total += IntersectionPositionProfit(dist, answer[j],
                                          static_cast<int>(j) + 1);
    }
    return total;
  };
  double a_exact = profit(exact->keys);
  double a_approx = profit(approx.keys);
  EXPECT_GE(a_approx, a_exact / HarmonicNumber(kK) - 1e-9);
  // And the approximation can never beat the exact optimum on E[d_I].
  EXPECT_GE(approx.expected_distance, exact->expected_distance - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopKIntersectionProperty,
                         ::testing::Range(0, 15));

TEST(TopKIntersectionTest, UpsilonHIsProfitAtPositionOne) {
  Rng rng(17);
  RandomTreeOptions opts;
  opts.num_keys = 6;
  auto tree = RandomBid(opts, &rng);
  ASSERT_TRUE(tree.ok());
  RankDistribution dist = ComputeRankDistribution(*tree, 4);
  for (KeyId key : dist.keys()) {
    EXPECT_DOUBLE_EQ(UpsilonH(dist, key),
                     IntersectionPositionProfit(dist, key, 1));
    // Upsilon_H telescopes: sum_i Pr(r <= i)/i.
    double manual = 0.0;
    for (int i = 1; i <= 4; ++i) manual += dist.PrRankLe(key, i) / i;
    EXPECT_NEAR(UpsilonH(dist, key), manual, 1e-12);
  }
}

TEST(TopKIntersectionTest, RequiresEnoughTuples) {
  Rng rng(19);
  auto tree = RandomTupleIndependent(2, &rng);
  ASSERT_TRUE(tree.ok());
  RankDistribution dist = ComputeRankDistribution(*tree, 3);
  EXPECT_EQ(MeanTopKIntersectionExact(dist).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TopKIntersectionTest, ProfitMonotoneInPosition) {
  // profit(t, j) is non-increasing in j: later positions only lose terms.
  Rng rng(23);
  RandomTreeOptions opts;
  opts.num_keys = 7;
  auto tree = RandomBid(opts, &rng);
  ASSERT_TRUE(tree.ok());
  RankDistribution dist = ComputeRankDistribution(*tree, 5);
  for (KeyId key : dist.keys()) {
    for (int j = 2; j <= 5; ++j) {
      EXPECT_LE(IntersectionPositionProfit(dist, key, j),
                IntersectionPositionProfit(dist, key, j - 1) + 1e-12);
    }
  }
}

}  // namespace
}  // namespace cpdb
