// Copyright 2026 The ConsensusDB Authors
//
// Cross-validates the generating-function rank distributions (Example 3 /
// Section 5) against exhaustive possible-world enumeration.

#include "core/rank_distribution.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "engine/engine.h"
#include "model/builders.h"
#include "model/flat_tree.h"
#include "model/possible_worlds.h"
#include "oracle/fold_oracles.h"
#include "pooled_scores.h"
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

TEST(RankDistributionScanTest, TiesAndChunkBoundariesBitwiseEqualPointerFold) {
  // The scan commits a tie group only after all of its queries, and each
  // chunk rebuilds the resident rows from its own base fold. Trees of 200+
  // leaves with scores from a small pool put tie groups across keys and
  // within a key, and the nominal chunk boundaries inside tie groups; every
  // coefficient must still be the pointer fold's, for any chunk count and
  // any thread count. The chunks are planned and run here, since the
  // engine folds most of these trees as one chunk.
  Rng rng(2027);
  RandomTreeOptions deep;
  deep.num_keys = 40;
  deep.max_depth = 4;
  deep.max_alternatives = 3;
  RandomTreeOptions bid;
  bid.num_keys = 90;
  bid.max_alternatives = 4;
  int multi_chunk_scans = 0;
  auto check = [&](const AndXorTree& tree, const std::vector<int>& ks,
                   const std::string& label) {
    const FlatTree flat = FlatTree::Compile(tree);
    for (int k : ks) {
      const RankDistribution reference = ComputeRankDistributionPointer(tree, k);
      std::vector<RankDistribution> dists;
      dists.push_back(ComputeRankDistribution(tree, k));
      for (int max_chunks : {2, 3, 4, 8}) {
        RankDistributionScan scan(flat, k, max_chunks);
        if (scan.num_chunks() > 1) ++multi_chunk_scans;
        for (int c = 0; c < scan.num_chunks(); ++c) scan.RunChunk(c);
        dists.push_back(scan.Build(tree.Keys()));
      }
      for (int threads : {1, 2, 3, 4, 8}) {
        EngineOptions opts;
        opts.num_threads = threads;
        dists.push_back(Engine(opts).ComputeRankDistribution(tree, k));
      }
      for (const RankDistribution& dist : dists) {
        ASSERT_EQ(dist.keys(), reference.keys());
        for (KeyId key : reference.keys()) {
          for (int i = 1; i <= k; ++i) {
            ASSERT_EQ(dist.PrRankEq(key, i), reference.PrRankEq(key, i))
                << label << " k " << k << " key " << key << " rank " << i;
            ASSERT_EQ(dist.PrRankLe(key, i), reference.PrRankLe(key, i));
          }
        }
      }
    }
  };
  for (int pool : {1, 3, 7, 50}) {
    for (int shape = 0; shape < 2; ++shape) {
      Result<AndXorTree> base = Status::Internal("unset");
      do {
        base = shape == 0 ? RandomAndXorTree(deep, &rng) : RandomBid(bid, &rng);
        ASSERT_TRUE(base.ok());
      } while (base->NumLeaves() < 200 || base->NumLeaves() > 240);
      AndXorTree tree;
      tree.SetRoot(CopyWithPooledScores(*base, base->root(), pool, &rng, &tree));
      ASSERT_TRUE(tree.Validate().ok());
      if (pool > 1) {
        EXPECT_TRUE(HasTieWithinKey(tree)) << "pool " << pool;
      }
      check(tree, {1, 4, 8, tree.NumLeaves() + 3},
            "pool " + std::to_string(pool) + " shape " +
                std::to_string(shape));
    }
  }
  // Wide ANDs, whose balanced products put several levels of partial
  // products on each root path: an AND of 37 and one of 150 random
  // subtrees over disjoint keys, and a 150-block BID tree.
  RandomTreeOptions small;
  small.num_keys = 2;
  small.max_depth = 2;
  small.max_alternatives = 2;
  for (int fan_in : {37, 150}) {
    AndXorTree tree;
    std::vector<NodeId> children;
    for (int c = 0; c < fan_in; ++c) {
      Result<AndXorTree> sub = RandomAndXorTree(small, &rng);
      ASSERT_TRUE(sub.ok());
      children.push_back(CopyWithPooledScores(
          *sub, sub->root(), 30, &rng, &tree, small.num_keys * c));
    }
    tree.SetRoot(tree.AddAnd(std::move(children)));
    ASSERT_TRUE(tree.Validate().ok());
    check(tree, {1, 10, 40}, "wide and " + std::to_string(fan_in));
  }
  RandomTreeOptions wide_bid;
  wide_bid.num_keys = 150;
  wide_bid.max_alternatives = 3;
  Result<AndXorTree> base = RandomBid(wide_bid, &rng);
  ASSERT_TRUE(base.ok());
  AndXorTree tree;
  tree.SetRoot(CopyWithPooledScores(*base, base->root(), 40, &rng, &tree));
  ASSERT_TRUE(tree.Validate().ok());
  check(tree, {1, 10, 40}, "bid 150");
  EXPECT_GT(multi_chunk_scans, 0);
}

// Asserts `prefix` is bitwise `direct`: the same keys, cutoff and charge,
// and every rank statistic.
void ExpectBitwiseEqual(const RankDistribution& prefix,
                        const RankDistribution& direct,
                        const std::string& label) {
  ASSERT_EQ(prefix.keys(), direct.keys()) << label;
  ASSERT_EQ(prefix.k(), direct.k()) << label;
  ASSERT_EQ(prefix.ApproxBytes(), direct.ApproxBytes()) << label;
  for (KeyId key : direct.keys()) {
    // Ranks 0 and k + 1 probe the accessors' edges.
    for (int i = 0; i <= direct.k() + 1; ++i) {
      ASSERT_EQ(prefix.PrRankEq(key, i), direct.PrRankEq(key, i))
          << label << " key " << key << " rank " << i;
      ASSERT_EQ(prefix.PrRankLe(key, i), direct.PrRankLe(key, i))
          << label << " key " << key << " rank " << i;
    }
    ASSERT_EQ(prefix.PrTopK(key), direct.PrTopK(key)) << label;
  }
}

TEST(RankDistributionTest, PrefixOfLargerFoldBitwiseEqualsDirectFold) {
  // The prefix lemma (core/rank_distribution.h): the first k' ranks of a
  // fold at k are the fold at k', bit for bit, whatever the tree, the ties
  // or the thread count. Tree sizes from a few leaves to over a hundred put
  // L on both sides of k' and k, so the min(k, L) truncation is crossed
  // too.
  Rng rng(4242);
  std::vector<std::unique_ptr<Engine>> engines;
  for (int threads : {1, 4}) {
    EngineOptions opts;
    opts.num_threads = threads;
    engines.push_back(std::make_unique<Engine>(opts));
  }
  int trees = 0;
  for (int t = 0; t < 24; ++t) {
    RandomTreeOptions opts;
    opts.num_keys = static_cast<int>(rng.UniformInt(2, 40));
    opts.max_depth = static_cast<int>(rng.UniformInt(1, 4));
    opts.max_alternatives = static_cast<int>(rng.UniformInt(1, 4));
    for (int shape = 0; shape < 2; ++shape) {
      Result<AndXorTree> base =
          shape == 0 ? RandomAndXorTree(opts, &rng) : RandomBid(opts, &rng);
      ASSERT_TRUE(base.ok());
      AndXorTree tree;
      // Every other tree redraws its scores from a small pool for ties.
      tree.SetRoot(t % 2 == 0 ? CopyWithPooledScores(*base, base->root(), 5,
                                                     &rng, &tree)
                              : CopyWithPooledScores(*base, base->root(),
                                                     1 << 30, &rng, &tree));
      ASSERT_TRUE(tree.Validate().ok());
      ++trees;
      for (size_t e = 0; e < engines.size(); ++e) {
        for (int k : {8, 20, 40}) {
          const RankDistribution full =
              engines[e]->ComputeRankDistribution(tree, k);
          for (int k_small : {1, 3, 4, 7}) {
            ExpectBitwiseEqual(
                full.Prefix(k_small),
                engines[e]->ComputeRankDistribution(tree, k_small),
                "tree " + std::to_string(t) + " shape " +
                    std::to_string(shape) + " engine " + std::to_string(e) +
                    " k " + std::to_string(k) + " k' " +
                    std::to_string(k_small));
          }
        }
      }
    }
  }
  EXPECT_EQ(trees, 48);
}

TEST(RankDistributionTest, PrefixClampsItsCutoff) {
  Rng rng(17);
  RandomTreeOptions opts;
  opts.num_keys = 12;
  Result<AndXorTree> tree = RandomBid(opts, &rng);
  ASSERT_TRUE(tree.ok());
  const RankDistribution dist = ComputeRankDistribution(*tree, 5);
  // At or above the cutoff, a copy.
  for (int k : {5, 6, 1000}) {
    ExpectBitwiseEqual(dist.Prefix(k), dist, "k " + std::to_string(k));
  }
  // At or below zero, every key and no ranks: the fold at k = 0.
  const RankDistribution none = ComputeRankDistribution(*tree, 0);
  ASSERT_EQ(none.k(), 0);
  ASSERT_EQ(none.keys(), dist.keys());
  for (int k : {0, -1, -7}) {
    ExpectBitwiseEqual(dist.Prefix(k), none, "k " + std::to_string(k));
  }
}

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
