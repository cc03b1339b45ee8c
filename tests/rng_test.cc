// Copyright 2026 The ConsensusDB Authors

#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

namespace cpdb {
namespace {

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123), c(124);
  bool all_equal = true, any_diff = false;
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.Next(), vb = b.Next(), vc = c.Next();
    all_equal &= (va == vb);
    any_diff |= (va != vc);
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.Uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, Uniform01MeanIsHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, UniformIntCoversRangeUniformly) {
  Rng rng(5);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    int64_t v = rng.UniformInt(0, 9);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 9);
    ++counts[static_cast<size_t>(v)];
  }
  for (int c : counts) EXPECT_NEAR(c, n / 10, n / 10 * 0.15);
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.UniformInt(3, 3), 3);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(9);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ZipfSkewsTowardSmallIndices) {
  Rng rng(17);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) ++counts[static_cast<size_t>(rng.Zipf(10, 1.0))];
  EXPECT_GT(counts[0], counts[5]);
  EXPECT_GT(counts[0], counts[9]);
}

TEST(RngTest, ZipfThetaZeroIsUniform) {
  Rng rng(19);
  std::vector<int> counts(4, 0);
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++counts[static_cast<size_t>(rng.Zipf(4, 0.0))];
  for (int c : counts) EXPECT_NEAR(c, n / 4, n / 4 * 0.1);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(31);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> original = v;
  rng.Shuffle(&v);
  EXPECT_NE(v, original);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

}  // namespace
}  // namespace cpdb
