// Copyright 2026 The ConsensusDB Authors
//
// Section 6.1: group-by COUNT consensus — mean vector, closed-form expected
// squared distance, the min-cost-flow closest possible vector (Lemma 3 /
// Theorem 5), and the 4-approximation bound (Corollary 2).

#include "core/aggregates.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "oracle/references.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

// Brute-force closest possible vector (enumeration of all assignments).
std::vector<int64_t> BruteForceClosest(const GroupByInstance& instance) {
  const int n = instance.num_tuples();
  const int m = instance.num_groups();
  std::vector<double> mean = MeanAggregate(instance);
  std::vector<int> choice(static_cast<size_t>(n), 0);
  std::vector<int64_t> best;
  double best_dist = std::numeric_limits<double>::infinity();
  // Mixed-radix enumeration over (m+1)^n choices; choice m = absent.
  while (true) {
    bool feasible = true;
    double prob_ok = 1.0;
    std::vector<int64_t> counts(static_cast<size_t>(m), 0);
    for (int i = 0; i < n && feasible; ++i) {
      int c = choice[static_cast<size_t>(i)];
      if (c < m) {
        double p = instance.probs[static_cast<size_t>(i)][static_cast<size_t>(c)];
        if (p <= 0.0) feasible = false;
        ++counts[static_cast<size_t>(c)];
      } else {
        double row = 0.0;
        for (double p : instance.probs[static_cast<size_t>(i)]) row += p;
        if (row >= 1.0 - 1e-12) feasible = false;
      }
      (void)prob_ok;
    }
    if (feasible) {
      double d = 0.0;
      for (int j = 0; j < m; ++j) {
        double diff = static_cast<double>(counts[static_cast<size_t>(j)]) -
                      mean[static_cast<size_t>(j)];
        d += diff * diff;
      }
      if (d < best_dist) {
        best_dist = d;
        best = counts;
      }
    }
    int i = 0;
    for (; i < n; ++i) {
      if (++choice[static_cast<size_t>(i)] <= m) break;
      choice[static_cast<size_t>(i)] = 0;
    }
    if (i == n) break;
  }
  return best;
}

double SquaredDistance(const std::vector<int64_t>& a,
                       const std::vector<double>& b) {
  double d = 0.0;
  for (size_t j = 0; j < a.size(); ++j) {
    double diff = static_cast<double>(a[j]) - b[j];
    d += diff * diff;
  }
  return d;
}

TEST(AggregatesTest, ValidateRejectsBadInstances) {
  EXPECT_FALSE(ValidateGroupBy({{}}).ok());
  EXPECT_FALSE(ValidateGroupBy({{{}}}).ok());
  EXPECT_FALSE(ValidateGroupBy({{{0.5, 0.7}}}).ok());   // row sum > 1
  EXPECT_FALSE(ValidateGroupBy({{{-0.1, 0.5}}}).ok());  // negative
  EXPECT_FALSE(ValidateGroupBy({{{0.5, 0.2}, {0.5}}}).ok());  // ragged
  EXPECT_TRUE(ValidateGroupBy({{{0.5, 0.5}, {0.2, 0.3}}}).ok());
}

TEST(AggregatesTest, MeanIsColumnSum) {
  GroupByInstance instance{{{0.5, 0.3}, {0.1, 0.9}, {0.0, 0.2}}};
  std::vector<double> mean = MeanAggregate(instance);
  ASSERT_EQ(mean.size(), 2u);
  EXPECT_NEAR(mean[0], 0.6, 1e-12);
  EXPECT_NEAR(mean[1], 1.4, 1e-12);
}

TEST(AggregatesTest, ExpectedSquaredDistanceClosedFormMatchesEnumeration) {
  Rng rng(5);
  GroupByInstance instance{RandomGroupByMatrix(5, 3, 0.8, 0.2, &rng)};
  ASSERT_TRUE(ValidateGroupBy(instance).ok());

  // Enumerate assignments to compute E[||r - x||^2] exactly.
  std::vector<double> x = {1.0, 0.5, 2.0};
  const int n = instance.num_tuples(), m = instance.num_groups();
  std::vector<int> choice(static_cast<size_t>(n), 0);
  double expected = 0.0;
  while (true) {
    double prob = 1.0;
    std::vector<double> counts(static_cast<size_t>(m), 0.0);
    for (int i = 0; i < n; ++i) {
      int c = choice[static_cast<size_t>(i)];
      if (c < m) {
        prob *= instance.probs[static_cast<size_t>(i)][static_cast<size_t>(c)];
        counts[static_cast<size_t>(c)] += 1.0;
      } else {
        double row = 0.0;
        for (double p : instance.probs[static_cast<size_t>(i)]) row += p;
        prob *= (1.0 - row);
      }
      if (prob == 0.0) break;
    }
    if (prob > 0.0) {
      double d = 0.0;
      for (int j = 0; j < m; ++j) {
        double diff = counts[static_cast<size_t>(j)] - x[static_cast<size_t>(j)];
        d += diff * diff;
      }
      expected += prob * d;
    }
    int i = 0;
    for (; i < n; ++i) {
      if (++choice[static_cast<size_t>(i)] <= m) break;
      choice[static_cast<size_t>(i)] = 0;
    }
    if (i == n) break;
  }
  EXPECT_NEAR(ExpectedSquaredDistance(instance, x), expected, 1e-9);
}

TEST(AggregatesTest, MeanMinimizesExpectedSquaredDistance) {
  Rng rng(7);
  GroupByInstance instance{RandomGroupByMatrix(6, 3, 0.5, 0.2, &rng)};
  std::vector<double> mean = MeanAggregate(instance);
  double mean_cost = ExpectedSquaredDistance(instance, mean);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> x = mean;
    for (double& v : x) v += rng.Uniform(-1.0, 1.0);
    EXPECT_GE(ExpectedSquaredDistance(instance, x), mean_cost - 1e-12);
  }
}

class AggregateMedianProperty : public ::testing::TestWithParam<int> {};

TEST_P(AggregateMedianProperty, FlowFindsClosestPossibleVector) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 271 + 3);
  int n = 3 + GetParam() % 4;   // 3..6 tuples
  int m = 2 + GetParam() % 3;   // 2..4 groups
  GroupByInstance instance{RandomGroupByMatrix(n, m, 0.7, 0.25, &rng)};
  ASSERT_TRUE(ValidateGroupBy(instance).ok());

  auto flow_answer = ClosestPossibleAggregate(instance);
  ASSERT_TRUE(flow_answer.ok()) << flow_answer.status().ToString();
  std::vector<int64_t> brute = BruteForceClosest(instance);
  std::vector<double> mean = MeanAggregate(instance);
  EXPECT_NEAR(SquaredDistance(*flow_answer, mean), SquaredDistance(brute, mean),
              1e-9)
      << "flow did not find the closest possible vector";
}

TEST_P(AggregateMedianProperty, FourApproximationHolds) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 433 + 11);
  int n = 3 + GetParam() % 3;
  int m = 2 + GetParam() % 2;
  GroupByInstance instance{RandomGroupByMatrix(n, m, 0.7, 0.25, &rng)};

  auto approx = ClosestPossibleAggregate(instance);
  ASSERT_TRUE(approx.ok());
  auto exact = ExactMedianAggregate(instance);
  ASSERT_TRUE(exact.ok());

  std::vector<double> approx_d(approx->begin(), approx->end());
  std::vector<double> exact_d(exact->begin(), exact->end());
  double e_approx = ExpectedSquaredDistance(instance, approx_d);
  double e_exact = ExpectedSquaredDistance(instance, exact_d);
  EXPECT_LE(e_approx, 4.0 * e_exact + 1e-9)
      << "Corollary 2's 4-approximation violated";
  EXPECT_GE(e_approx, e_exact - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregateMedianProperty,
                         ::testing::Range(0, 15));

TEST(AggregatesTest, Lemma3FloorCeilForm) {
  // The flow answer must round each coordinate of the mean up or down when
  // the bipartite structure is complete (every tuple can take every group).
  Rng rng(21);
  int n = 6, m = 3;
  std::vector<std::vector<double>> probs(
      static_cast<size_t>(n), std::vector<double>(static_cast<size_t>(m)));
  for (auto& row : probs) {
    double total = 0.0;
    for (double& p : row) {
      p = rng.Uniform(0.1, 1.0);
      total += p;
    }
    for (double& p : row) p /= total;  // rows sum to exactly 1
  }
  GroupByInstance instance{probs};
  auto answer = ClosestPossibleAggregate(instance);
  ASSERT_TRUE(answer.ok());
  std::vector<double> mean = MeanAggregate(instance);
  for (int j = 0; j < m; ++j) {
    double r = static_cast<double>((*answer)[static_cast<size_t>(j)]);
    EXPECT_TRUE(r == std::floor(mean[static_cast<size_t>(j)]) ||
                r == std::ceil(mean[static_cast<size_t>(j)]))
        << "coordinate " << j << " is " << r << " for mean "
        << mean[static_cast<size_t>(j)];
  }
}

TEST(AggregatesTest, ExactMedianRespectsEnumerationBudget) {
  Rng rng(23);
  GroupByInstance instance{RandomGroupByMatrix(12, 4, 0.5, 0.2, &rng)};
  EXPECT_EQ(ExactMedianAggregate(instance, /*max_assignments=*/100)
                .status()
                .code(),
            StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace cpdb
