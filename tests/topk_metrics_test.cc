// Copyright 2026 The ConsensusDB Authors
//
// The Fagin et al. Top-k list distances used throughout Section 5.

#include "oracle/list_distances.h"

#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.h"

namespace cpdb {
namespace {

TEST(SymmetricDifferenceTest, IdenticalAndDisjoint) {
  std::vector<KeyId> a = {1, 2, 3};
  std::vector<KeyId> b = {4, 5, 6};
  EXPECT_DOUBLE_EQ(TopKSymmetricDifference(a, a, 3), 0.0);
  EXPECT_DOUBLE_EQ(TopKSymmetricDifference(a, b, 3), 1.0);
}

TEST(SymmetricDifferenceTest, IgnoresOrder) {
  std::vector<KeyId> a = {1, 2, 3};
  std::vector<KeyId> b = {3, 2, 1};
  EXPECT_DOUBLE_EQ(TopKSymmetricDifference(a, b, 3), 0.0);
}

TEST(SymmetricDifferenceTest, PartialOverlap) {
  std::vector<KeyId> a = {1, 2, 3};
  std::vector<KeyId> b = {3, 4, 5};
  // |Δ| = 4 -> 4/(2*3).
  EXPECT_DOUBLE_EQ(TopKSymmetricDifference(a, b, 3), 4.0 / 6.0);
}

TEST(SymmetricDifferenceTest, DifferentLengths) {
  std::vector<KeyId> a = {1, 2, 3};
  std::vector<KeyId> b = {1};
  EXPECT_DOUBLE_EQ(TopKSymmetricDifference(a, b, 3), 2.0 / 6.0);
}

TEST(IntersectionMetricTest, SensitiveToOrder) {
  std::vector<KeyId> a = {1, 2, 3};
  std::vector<KeyId> b = {3, 2, 1};
  // Prefix 1: {1} vs {3}: 2/(2*1)=1. Prefix 2: {1,2} vs {3,2}: 2/4=0.5.
  // Prefix 3: 0. dI = (1 + 0.5 + 0) / 3 = 0.5.
  EXPECT_DOUBLE_EQ(TopKIntersectionDistance(a, b, 3), 0.5);
  EXPECT_DOUBLE_EQ(TopKIntersectionDistance(a, a, 3), 0.0);
}

TEST(IntersectionMetricTest, BoundedByOne) {
  Rng rng(4);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<KeyId> a, b;
    for (KeyId i = 0; i < 5; ++i) a.push_back(i);
    for (KeyId i = 5; i < 10; ++i) b.push_back(i);
    rng.Shuffle(&a);
    rng.Shuffle(&b);
    double d = TopKIntersectionDistance(a, b, 5);
    EXPECT_DOUBLE_EQ(d, 1.0);  // disjoint lists are at distance exactly 1
  }
}

TEST(FootruleTest, HandComputedCases) {
  std::vector<KeyId> a = {1, 2};
  std::vector<KeyId> b = {2, 1};
  // |1: 1 vs 2| + |2: 2 vs 1| = 2.
  EXPECT_DOUBLE_EQ(TopKFootrule(a, b, 2), 2.0);

  std::vector<KeyId> c = {1, 2};
  std::vector<KeyId> d = {1, 3};
  // 1: 0 ; 2: |2 - 3| = 1 ; 3: |3 - 2| = 1.
  EXPECT_DOUBLE_EQ(TopKFootrule(c, d, 2), 2.0);

  // Completely disjoint k=2 lists: each of 4 keys contributes k+1-pos.
  std::vector<KeyId> e = {1, 2};
  std::vector<KeyId> f = {3, 4};
  EXPECT_DOUBLE_EQ(TopKFootrule(e, f, 2), 2.0 + 1.0 + 2.0 + 1.0);
}

TEST(FootruleTest, IsAMetricOnRandomLists) {
  Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    auto random_list = [&]() {
      std::vector<KeyId> pool(6);
      std::iota(pool.begin(), pool.end(), 0);
      rng.Shuffle(&pool);
      pool.resize(3);
      return pool;
    };
    std::vector<KeyId> a = random_list(), b = random_list(), c = random_list();
    EXPECT_DOUBLE_EQ(TopKFootrule(a, a, 3), 0.0);
    EXPECT_DOUBLE_EQ(TopKFootrule(a, b, 3), TopKFootrule(b, a, 3));
    EXPECT_LE(TopKFootrule(a, c, 3),
              TopKFootrule(a, b, 3) + TopKFootrule(b, c, 3) + 1e-12);
  }
}

TEST(KendallTest, HandComputedCases) {
  // Swap of two adjacent elements: one provable disagreement.
  EXPECT_DOUBLE_EQ(TopKKendall({1, 2}, {2, 1}, 2), 1.0);
  EXPECT_DOUBLE_EQ(TopKKendall({1, 2}, {1, 2}, 2), 0.0);
  // Disjoint lists: pairs across lists provably disagree (2*2 = 4 pairs);
  // within-list pairs are unknowable in the other list's extensions -> 0.
  EXPECT_DOUBLE_EQ(TopKKendall({1, 2}, {3, 4}, 2), 4.0);
  // One shared element, shared-first vs shared-absent patterns.
  // a = {1,2}, b = {1,3}: pair(2,3) provably disagrees; pair(1,2): 1 before
  // 2 in a, and in b's extensions 1 (present) precedes 2 (absent) -> agree.
  // pair(1,3): agree symmetrically.
  EXPECT_DOUBLE_EQ(TopKKendall({1, 2}, {1, 3}, 2), 1.0);
  // a = {1,2}, b = {3,1}: pair(1,2): agree (1 first in both extensions)?
  // In b, 1 is present at position 2, 2 is absent -> 1 before 2: agree.
  // pair(1,3): a has 1 present, 3 absent -> 1 before 3; b ranks 3 before 1
  // -> provable disagreement. pair(2,3): a says 2 first, b says 3 first ->
  // disagreement. Total 2.
  EXPECT_DOUBLE_EQ(TopKKendall({1, 2}, {3, 1}, 2), 2.0);
}

TEST(KendallTest, SymmetricAndBoundedByAllPairs) {
  Rng rng(9);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<KeyId> pool(7);
    std::iota(pool.begin(), pool.end(), 0);
    rng.Shuffle(&pool);
    std::vector<KeyId> a(pool.begin(), pool.begin() + 3);
    rng.Shuffle(&pool);
    std::vector<KeyId> b(pool.begin(), pool.begin() + 3);
    double dab = TopKKendall(a, b, 3);
    EXPECT_DOUBLE_EQ(dab, TopKKendall(b, a, 3));
    // At most C(|a ∪ b|, 2) pairs.
    EXPECT_LE(dab, 6.0 * 5.0 / 2.0);
    EXPECT_GE(dab, 0.0);
  }
}

TEST(MetricEquivalenceTest, FootruleDominatesKendall) {
  // Fagin et al.: d_K <= d_F for top-k lists (they form an equivalence
  // class; this direction holds pairwise).
  Rng rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<KeyId> pool(8);
    std::iota(pool.begin(), pool.end(), 0);
    rng.Shuffle(&pool);
    std::vector<KeyId> a(pool.begin(), pool.begin() + 4);
    rng.Shuffle(&pool);
    std::vector<KeyId> b(pool.begin(), pool.begin() + 4);
    EXPECT_LE(TopKKendall(a, b, 4), TopKFootrule(a, b, 4) + 1e-12);
  }
}

}  // namespace
}  // namespace cpdb
