// Copyright 2026 The ConsensusDB Authors
//
// The prior Top-k semantics (Sections 1-2) and their relationships to the
// consensus answers, notably Theorem 3's identity: Global Top-k = mean
// answer under symmetric difference.

#include "core/ranking_baselines.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/topk_symdiff.h"
#include "model/builders.h"
#include "model/possible_worlds.h"
#include "oracle/tail_oracles.h"
#include "pooled_scores.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

// U-Top-k: the Top-k *list* with the highest probability of being the
// realized Top-k answer, via exhaustive world enumeration (exact; fails on
// instances with more than `max_worlds` worlds).
Result<std::vector<KeyId>> UTopKExact(const AndXorTree& tree, int k,
                                      size_t max_worlds = 1 << 20) {
  CPDB_ASSIGN_OR_RETURN(std::vector<World> worlds,
                        EnumerateWorlds(tree, max_worlds));
  std::map<std::vector<KeyId>, double> list_prob;
  for (const World& w : worlds) {
    list_prob[TopKOfWorld(tree, w.leaf_ids, k)] += w.prob;
  }
  const std::vector<KeyId>* best = nullptr;
  double best_prob = -1.0;
  for (const auto& [list, prob] : list_prob) {
    if (prob > best_prob) {
      best_prob = prob;
      best = &list;
    }
  }
  if (best == nullptr) return Status::Infeasible("no worlds");
  return *best;
}

// E[r(key)] over every possible world: 1 + the number of present tuples of
// other keys scoring strictly higher when the key is present, |pw| + 1 when
// it is absent.
void ExpectRanksMatchEnumeration(const AndXorTree& tree) {
  auto worlds = EnumerateWorlds(tree);
  ASSERT_TRUE(worlds.ok());
  std::vector<KeyId> keys = tree.Keys();
  std::vector<double> computed = ExpectedRanks(tree);
  ASSERT_EQ(computed.size(), keys.size());
  for (size_t ki = 0; ki < keys.size(); ++ki) {
    double expected = 0.0;
    for (const World& w : *worlds) {
      std::vector<TupleAlternative> tuples = WorldTuples(tree, w.leaf_ids);
      double rank = static_cast<double>(tuples.size()) + 1.0;
      for (const TupleAlternative& t : tuples) {
        if (t.key != keys[ki]) continue;
        rank = 1.0;
        for (const TupleAlternative& u : tuples) {
          if (u.score > t.score) rank += 1.0;
        }
      }
      expected += w.prob * rank;
    }
    EXPECT_NEAR(computed[ki], expected, 1e-9) << "key " << keys[ki];
  }
}

// Copies `src`'s subtree at `id` into `dst` with every XOR edge
// probability redrawn as a multiple of 1/16 (the node's total at most 1).
NodeId CopyWithDyadicProbs(const AndXorTree& src, NodeId id, Rng* rng,
                           AndXorTree* dst) {
  const TreeNode& node = src.node(id);
  if (node.kind == NodeKind::kLeaf) return dst->AddLeaf(node.leaf);
  std::vector<NodeId> children;
  for (NodeId child : node.children) {
    children.push_back(CopyWithDyadicProbs(src, child, rng, dst));
  }
  if (node.kind == NodeKind::kAnd) return dst->AddAnd(std::move(children));
  const int64_t share = std::max<int64_t>(
      1, 16 / static_cast<int64_t>(children.size()));
  std::vector<double> probs;
  for (size_t i = 0; i < children.size(); ++i) {
    probs.push_back(static_cast<double>(rng->UniformInt(1, share)) / 16.0);
  }
  return dst->AddXor(std::move(children), std::move(probs));
}

// Random and/xor and BID trees of `num_keys` keys, each also with its leaf
// scores redrawn from a pool of 3 (ties across and within keys).
std::vector<AndXorTree> ErankTrees(uint64_t seed, int num_keys) {
  Rng rng(seed);
  RandomTreeOptions opts;
  opts.num_keys = num_keys;
  opts.max_depth = 3 + static_cast<int>(seed % 2);
  opts.max_alternatives = 2 + static_cast<int>(seed % 2);
  std::vector<AndXorTree> trees;
  trees.push_back(*RandomAndXorTree(opts, &rng));
  trees.push_back(*RandomBid(opts, &rng));
  for (size_t i = 0; i < 2; ++i) {
    AndXorTree pooled;
    pooled.SetRoot(
        CopyWithPooledScores(trees[i], trees[i].root(), 3, &rng, &pooled));
    EXPECT_TRUE(pooled.Validate().ok());
    trees.push_back(std::move(pooled));
  }
  return trees;
}

class BaselinesProperty : public ::testing::TestWithParam<int> {};

TEST_P(BaselinesProperty, ExpectedRanksMatchEnumeration) {
  for (const AndXorTree& tree :
       ErankTrees(static_cast<uint64_t>(GetParam()) * 193 + 3, 5)) {
    ExpectRanksMatchEnumeration(tree);
  }
}

// The scan against the pair loop it replaced (oracle/tail_oracles.h):
// within 1e-12 relative on random, BID and pooled-score trees.
TEST(ExpectedRanksScanTest, WithinRoundingOfThePairLoop) {
  for (uint64_t seed = 0; seed < 40; ++seed) {
    for (const AndXorTree& tree :
         ErankTrees(seed * 7 + 1, 4 + static_cast<int>(seed % 20))) {
      const std::vector<double> scan = ExpectedRanks(tree);
      const std::vector<double> pairs = ExpectedRanksByPairs(tree);
      ASSERT_EQ(scan.size(), pairs.size());
      for (size_t i = 0; i < scan.size(); ++i) {
        EXPECT_NEAR(scan[i], pairs[i], 1e-12 * std::fabs(pairs[i]))
            << "seed " << seed << " key " << i;
      }
    }
  }
}

// With dyadic edge probabilities every sum and product on either side is
// exact, so the scan equals the pair loop bit for bit.
TEST(ExpectedRanksScanTest, EqualsThePairLoopOnDyadicProbabilities) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    for (const AndXorTree& base : ErankTrees(seed * 11 + 5, 6)) {
      Rng rng(seed);
      AndXorTree tree;
      tree.SetRoot(CopyWithDyadicProbs(base, base.root(), &rng, &tree));
      ASSERT_TRUE(tree.Validate().ok());
      EXPECT_EQ(ExpectedRanks(tree), ExpectedRanksByPairs(tree))
          << "seed " << seed;
      ExpectRanksMatchEnumeration(tree);
    }
  }
}

TEST_P(BaselinesProperty, GlobalTopKEqualsMeanSymDiffAnswer) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 197 + 7);
  RandomTreeOptions opts;
  opts.num_keys = 8;
  opts.max_alternatives = 3;
  auto tree = RandomBid(opts, &rng);
  ASSERT_TRUE(tree.ok());
  const int k = 3;
  RankDistribution dist = ComputeRankDistribution(*tree, k);
  std::vector<KeyId> global = GlobalTopK(dist);
  TopKResult mean = MeanTopKSymDiff(dist);
  // Same key set (order may differ only on ties, and our generators are
  // tie-free with probability 1).
  std::set<KeyId> a(global.begin(), global.end());
  std::set<KeyId> b(mean.keys.begin(), mean.keys.end());
  EXPECT_EQ(a, b);
}

TEST_P(BaselinesProperty, UTopKSampledConvergesToExact) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 211 + 13);
  RandomTreeOptions opts;
  opts.num_keys = 4;
  opts.max_alternatives = 2;
  auto tree = RandomBid(opts, &rng);
  ASSERT_TRUE(tree.ok());
  const int k = 2;
  auto exact = UTopKExact(*tree, k);
  ASSERT_TRUE(exact.ok());
  std::vector<KeyId> sampled = UTopKSampled(*tree, k, 60000, &rng);
  EXPECT_EQ(*exact, sampled)
      << "sampled U-Top-k disagrees with exact on a small instance";
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselinesProperty, ::testing::Range(0, 8));

TEST(BaselinesTest, ExpectedScoreRanksCertainTuplesByScore) {
  std::vector<IndependentTuple> tuples;
  for (int i = 0; i < 5; ++i) {
    IndependentTuple t;
    t.alt.key = i;
    t.alt.score = 10.0 + i;  // key 4 has the best score
    t.prob = 1.0;
    tuples.push_back(t);
  }
  auto tree = MakeTupleIndependent(tuples);
  ASSERT_TRUE(tree.ok());
  std::vector<KeyId> top = TopKByExpectedScore(*tree, 2);
  std::vector<KeyId> want = {4, 3};
  EXPECT_EQ(top, want);
  std::vector<KeyId> by_rank = TopKByExpectedRank(*tree, 2);
  EXPECT_EQ(by_rank, want);
}

TEST(BaselinesTest, ExpectedScoreTradesScoreAgainstProbability) {
  // Key 0: huge score, tiny probability. Key 1: modest score, certain.
  std::vector<IndependentTuple> tuples(2);
  tuples[0].alt.key = 0;
  tuples[0].alt.score = 100.0;
  tuples[0].prob = 0.01;
  tuples[1].alt.key = 1;
  tuples[1].alt.score = 10.0;
  tuples[1].prob = 1.0;
  auto tree = MakeTupleIndependent(tuples);
  ASSERT_TRUE(tree.ok());
  std::vector<KeyId> top = TopKByExpectedScore(*tree, 1);
  EXPECT_EQ(top[0], 1);  // 10 > 1 expected
}

TEST(BaselinesTest, PTkThresholdControlsAnswerSize) {
  Rng rng(31);
  RandomTreeOptions opts;
  opts.num_keys = 10;
  auto tree = RandomBid(opts, &rng);
  ASSERT_TRUE(tree.ok());
  RankDistribution dist = ComputeRankDistribution(*tree, 3);
  std::vector<KeyId> all = ProbabilisticThresholdTopK(dist, 0.0);
  std::vector<KeyId> none = ProbabilisticThresholdTopK(dist, 1.01);
  EXPECT_EQ(all.size(), dist.keys().size());
  EXPECT_TRUE(none.empty());
  // Monotone: higher thresholds return subsets.
  std::vector<KeyId> mid = ProbabilisticThresholdTopK(dist, 0.5);
  std::vector<KeyId> high = ProbabilisticThresholdTopK(dist, 0.8);
  EXPECT_LE(high.size(), mid.size());
  for (KeyId key : high) {
    EXPECT_NE(std::find(mid.begin(), mid.end(), key), mid.end());
  }
  // Calibrating the threshold to the k-th largest Pr reproduces Global
  // Top-k (the paper's PT-k/consensus connection).
  std::vector<KeyId> global = GlobalTopK(dist);
  double calibrated = dist.PrTopK(global.back());
  std::vector<KeyId> ptk = ProbabilisticThresholdTopK(dist, calibrated);
  std::vector<KeyId> prefix(ptk.begin(), ptk.begin() + global.size());
  EXPECT_EQ(prefix, global);
}

TEST(BaselinesTest, PRFWithHarmonicWeightsMatchesUpsilonHOrdering) {
  Rng rng(37);
  RandomTreeOptions opts;
  opts.num_keys = 8;
  auto tree = RandomBid(opts, &rng);
  ASSERT_TRUE(tree.ok());
  const int k = 4;
  RankDistribution dist = ComputeRankDistribution(*tree, k);
  // w[i-1] = H_k - H_{i-1} turns PRF into Upsilon_H (Section 5.3).
  std::vector<double> weights;
  double hk = 0.0;
  for (int i = 1; i <= k; ++i) hk += 1.0 / i;
  double h_prefix = 0.0;
  for (int i = 1; i <= k; ++i) {
    weights.push_back(hk - h_prefix);
    h_prefix += 1.0 / i;
  }
  std::vector<KeyId> prf = TopKByPRF(dist, weights);

  // Compare with a direct Upsilon_H ordering.
  std::vector<KeyId> keys = dist.keys();
  std::stable_sort(keys.begin(), keys.end(), [&](KeyId a, KeyId b) {
    double ua = 0.0, ub = 0.0;
    for (int i = 1; i <= k; ++i) {
      ua += dist.PrRankLe(a, i) / i;
      ub += dist.PrRankLe(b, i) / i;
    }
    return ua > ub;
  });
  keys.resize(static_cast<size_t>(k));
  EXPECT_EQ(prf, keys);
}

}  // namespace
}  // namespace cpdb
