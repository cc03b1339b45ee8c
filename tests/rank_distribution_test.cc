// Copyright 2026 The ConsensusDB Authors
//
// Cross-validates the generating-function rank distributions (Example 3 /
// Section 5) against exhaustive possible-world enumeration.

#include "core/rank_distribution.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.h"
#include "model/builders.h"
#include "model/possible_worlds.h"
#include "oracle/fold_oracles.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

// Rank distribution by brute force: Pr(r(key) = i) over enumerated worlds.
std::map<KeyId, std::vector<double>> EnumRankDist(const AndXorTree& tree,
                                                  int k) {
  auto worlds = EnumerateWorlds(tree);
  EXPECT_TRUE(worlds.ok());
  std::map<KeyId, std::vector<double>> dist;
  for (KeyId key : tree.Keys()) {
    dist[key].assign(static_cast<size_t>(k) + 1, 0.0);
  }
  for (const World& w : *worlds) {
    std::vector<TupleAlternative> tuples = WorldTuples(tree, w.leaf_ids);
    for (size_t pos = 0; pos < tuples.size() && pos < static_cast<size_t>(k);
         ++pos) {
      dist[tuples[pos].key][pos + 1] += w.prob;
    }
  }
  return dist;
}

class RankDistProperty : public ::testing::TestWithParam<int> {};

TEST_P(RankDistProperty, MatchesEnumerationOnRandomBid) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 131 + 7);
  RandomTreeOptions opts;
  opts.num_keys = 6;
  opts.max_alternatives = 3;
  auto tree = RandomBid(opts, &rng);
  ASSERT_TRUE(tree.ok());
  const int k = 4;
  RankDistribution dist = ComputeRankDistribution(*tree, k);
  auto expected = EnumRankDist(*tree, k);
  for (KeyId key : tree->Keys()) {
    for (int i = 1; i <= k; ++i) {
      EXPECT_NEAR(dist.PrRankEq(key, i), expected[key][static_cast<size_t>(i)],
                  1e-9)
          << "key " << key << " rank " << i;
    }
  }
}

TEST_P(RankDistProperty, MatchesEnumerationOnRandomAndXor) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 733 + 11);
  RandomTreeOptions opts;
  opts.num_keys = 5;
  opts.max_depth = 3;
  opts.max_alternatives = 2;
  auto tree = RandomAndXorTree(opts, &rng);
  ASSERT_TRUE(tree.ok());
  const int k = 3;
  RankDistribution dist = ComputeRankDistribution(*tree, k);
  auto expected = EnumRankDist(*tree, k);
  for (KeyId key : tree->Keys()) {
    for (int i = 1; i <= k; ++i) {
      EXPECT_NEAR(dist.PrRankEq(key, i), expected[key][static_cast<size_t>(i)],
                  1e-9);
    }
  }
}

TEST_P(RankDistProperty, PairwiseOrderMatchesEnumeration) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 389 + 23);
  RandomTreeOptions opts;
  opts.num_keys = 4;
  opts.max_depth = 3;
  opts.max_alternatives = 2;
  auto tree = RandomAndXorTree(opts, &rng);
  ASSERT_TRUE(tree.ok());
  auto worlds = EnumerateWorlds(*tree);
  ASSERT_TRUE(worlds.ok());

  std::vector<KeyId> keys = tree->Keys();
  for (KeyId u : keys) {
    for (KeyId v : keys) {
      if (u == v) continue;
      double expected = 0.0;
      for (const World& w : *worlds) {
        // r(u) < r(v): u present and (v absent or v's score lower).
        double su = -1.0, sv = -1.0;
        for (NodeId l : w.leaf_ids) {
          const TupleAlternative& alt = tree->node(l).leaf;
          if (alt.key == u) su = alt.score;
          if (alt.key == v) sv = alt.score;
        }
        if (su >= 0.0 && (sv < 0.0 || su > sv)) expected += w.prob;
      }
      EXPECT_NEAR(PrRanksBefore(*tree, u, v), expected, 1e-9)
          << "u=" << u << " v=" << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RankDistProperty, ::testing::Range(0, 12));

TEST(RankDistributionTest, RowMassAccounting) {
  // Pr(r(t) <= k) + Pr(r(t) > k) = 1 by construction of the accessors.
  Rng rng(3);
  RandomTreeOptions opts;
  opts.num_keys = 10;
  auto tree = RandomBid(opts, &rng);
  ASSERT_TRUE(tree.ok());
  RankDistribution dist = ComputeRankDistribution(*tree, 5);
  for (KeyId key : dist.keys()) {
    double mass = dist.PrTopK(key) + dist.PrBeyondK(key);
    EXPECT_NEAR(mass, 1.0, 1e-12);
    EXPECT_GE(dist.PrTopK(key), -1e-12);
    EXPECT_LE(dist.PrTopK(key), 1.0 + 1e-12);
    // Monotone CDF.
    for (int i = 2; i <= 5; ++i) {
      EXPECT_GE(dist.PrRankLe(key, i), dist.PrRankLe(key, i - 1) - 1e-12);
    }
  }
}

TEST(RankDistributionTest, CertainDatabaseHasDeterministicRanks) {
  // All tuples present with probability 1: rank = position by score.
  std::vector<IndependentTuple> tuples;
  for (int i = 0; i < 5; ++i) {
    IndependentTuple t;
    t.alt.key = i;
    t.alt.score = 100.0 - i;  // key 0 is the highest scorer
    t.prob = 1.0;
    tuples.push_back(t);
  }
  auto tree = MakeTupleIndependent(tuples);
  ASSERT_TRUE(tree.ok());
  RankDistribution dist = ComputeRankDistribution(*tree, 5);
  for (int i = 0; i < 5; ++i) {
    for (int r = 1; r <= 5; ++r) {
      EXPECT_NEAR(dist.PrRankEq(i, r), r == i + 1 ? 1.0 : 0.0, 1e-12);
    }
  }
}

TEST(RankDistributionTest, ApproxBytesCoversHandComputedLowerBound) {
  // Regression test for the --cache-budget undercharge: ApproxBytes must
  // cover, for n keys at truncation k, at least
  //   * the 2 n (k+1) doubles of payload (pr_eq_ + pr_le_ inner elements),
  //   * the n KeyIds of the keys_ element array,
  //   * the 2 n inner vector headers the pr_eq_/pr_le_ outer arrays hold,
  //   * and the top-level object itself (which embeds the keys_/pr_eq_/
  //     pr_le_ headers).
  // The historical formula omitted the outer-array headers and the keys_
  // element storage, undercharging every cached entry.
  const int k = 5;
  const int n = 10;
  Rng rng(3);
  RandomTreeOptions opts;
  opts.num_keys = n;
  auto tree = RandomBid(opts, &rng);
  ASSERT_TRUE(tree.ok());
  RankDistribution dist = ComputeRankDistribution(*tree, k);
  ASSERT_EQ(static_cast<int>(dist.keys().size()), n);

  const int64_t payload =
      2 * static_cast<int64_t>(n) * (k + 1) * sizeof(double);
  const int64_t key_array = static_cast<int64_t>(n) * sizeof(KeyId);
  const int64_t inner_headers =
      2 * static_cast<int64_t>(n) * sizeof(std::vector<double>);
  const int64_t lower_bound = payload + key_array + inner_headers +
                              static_cast<int64_t>(sizeof(RankDistribution));
  EXPECT_GE(dist.ApproxBytes(), lower_bound);

  // Deterministic function of (n, k): a same-shaped distribution from a
  // different tree costs the same — budget eviction replays identically.
  Rng rng2(4);
  auto tree2 = RandomBid(opts, &rng2);
  ASSERT_TRUE(tree2.ok());
  RankDistribution dist2 = ComputeRankDistribution(*tree2, k);
  ASSERT_EQ(dist2.keys().size(), dist.keys().size());
  EXPECT_EQ(dist2.ApproxBytes(), dist.ApproxBytes());
}

TEST(RankDistributionTest, UnknownKeyYieldsZero) {
  Rng rng(5);
  auto tree = RandomTupleIndependent(3, &rng);
  ASSERT_TRUE(tree.ok());
  RankDistribution dist = ComputeRankDistribution(*tree, 2);
  EXPECT_EQ(dist.PrRankEq(999, 1), 0.0);
  EXPECT_EQ(dist.PrRankLe(999, 2), 0.0);
  EXPECT_EQ(dist.PrRankEq(0, 0), 0.0);
  EXPECT_EQ(dist.PrRankEq(0, 3), 0.0);  // beyond k
}

}  // namespace
}  // namespace cpdb
