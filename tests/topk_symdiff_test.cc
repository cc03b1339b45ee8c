// Copyright 2026 The ConsensusDB Authors
//
// Section 5.2: mean Top-k (Theorem 3) and median Top-k (Theorem 4) under the
// normalized symmetric difference metric.

#include "core/topk_symdiff.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "common/rng.h"
#include "engine/engine.h"
#include "model/builders.h"
#include "model/possible_worlds.h"
#include "oracle/tail_oracles.h"
#include "oracle/world_estimators.h"
#include "pooled_scores.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

constexpr int kK = 3;

class TopKSymDiffProperty : public ::testing::TestWithParam<int> {};

TEST_P(TopKSymDiffProperty, EvaluatorMatchesEnumeration) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 37 + 5);
  RandomTreeOptions opts;
  opts.num_keys = 6;
  opts.max_depth = 3;
  opts.max_alternatives = 2;
  auto tree = RandomAndXorTree(opts, &rng);
  ASSERT_TRUE(tree.ok());
  RankDistribution dist = ComputeRankDistribution(*tree, kK);

  // Random candidate answers of size k (and one smaller).
  std::vector<KeyId> keys = tree->Keys();
  for (int trial = 0; trial < 5; ++trial) {
    rng.Shuffle(&keys);
    size_t size = trial == 0 ? std::min<size_t>(keys.size(), 2)
                             : std::min<size_t>(keys.size(), kK);
    std::vector<KeyId> answer(keys.begin(), keys.begin() + size);
    auto expected =
        EnumExpectedTopKDistance(*tree, answer, kK, TopKMetric::kSymDiff);
    ASSERT_TRUE(expected.ok());
    EXPECT_NEAR(ExpectedTopKSymDiff(dist, answer), *expected, 1e-9);
  }
}

TEST_P(TopKSymDiffProperty, MeanBeatsAllSizeKSubsets) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 61 + 3);
  RandomTreeOptions opts;
  opts.num_keys = 6;
  opts.max_depth = 2;
  auto tree = RandomAndXorTree(opts, &rng);
  ASSERT_TRUE(tree.ok());
  RankDistribution dist = ComputeRankDistribution(*tree, kK);
  TopKResult mean = MeanTopKSymDiff(dist);

  // Brute force over all k-subsets of keys.
  std::vector<KeyId> keys = tree->Keys();
  int n = static_cast<int>(keys.size());
  if (n < kK) GTEST_SKIP();
  double best = std::numeric_limits<double>::infinity();
  std::vector<int> idx(static_cast<size_t>(kK));
  std::function<void(int, int)> choose = [&](int start, int depth) {
    if (depth == kK) {
      std::vector<KeyId> answer;
      for (int i : idx) answer.push_back(keys[static_cast<size_t>(i)]);
      best = std::min(best, ExpectedTopKSymDiff(dist, answer));
      return;
    }
    for (int i = start; i < n; ++i) {
      idx[static_cast<size_t>(depth)] = i;
      choose(i + 1, depth + 1);
    }
  };
  choose(0, 0);
  EXPECT_NEAR(mean.expected_distance, best, 1e-9);
}

TEST_P(TopKSymDiffProperty, MedianMatchesWorldArgmin) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 83 + 19);
  RandomTreeOptions opts;
  opts.num_keys = 6;
  opts.max_depth = 3;
  opts.max_alternatives = 2;
  auto tree = RandomAndXorTree(opts, &rng);
  ASSERT_TRUE(tree.ok());
  RankDistribution dist = ComputeRankDistribution(*tree, kK);

  auto median = MedianTopKSymDiff(*tree, dist);
  ASSERT_TRUE(median.ok()) << median.status().ToString();

  // Ground truth: the best Top-k answer over all possible worlds.
  auto worlds = EnumerateWorlds(*tree);
  ASSERT_TRUE(worlds.ok());
  double best = std::numeric_limits<double>::infinity();
  std::set<std::vector<KeyId>> world_answers;
  for (const World& w : *worlds) {
    std::vector<KeyId> answer = TopKOfWorld(*tree, w.leaf_ids, kK);
    world_answers.insert(answer);
    best = std::min(best, ExpectedTopKSymDiff(dist, answer));
  }
  EXPECT_NEAR(median->expected_distance, best, 1e-9)
      << "median DP missed the optimal world answer";

  // The median must be the Top-k answer of some positive-probability world
  // (as a set; the DP orders by score like TopKOfWorld does).
  EXPECT_TRUE(world_answers.count(median->keys) > 0)
      << "median answer is not realizable";
}

TEST_P(TopKSymDiffProperty, UnrestrictedMeanBeatsAllSubsetsOfAnySize) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 449 + 27);
  RandomTreeOptions opts;
  opts.num_keys = 6;
  opts.max_depth = 2;
  auto tree = RandomAndXorTree(opts, &rng);
  ASSERT_TRUE(tree.ok());
  RankDistribution dist = ComputeRankDistribution(*tree, kK);
  TopKResult unrestricted = MeanTopKSymDiffUnrestricted(dist);

  std::vector<KeyId> keys = tree->Keys();
  int n = static_cast<int>(keys.size());
  if (n > 14) GTEST_SKIP();
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    std::vector<KeyId> answer;
    for (int b = 0; b < n; ++b) {
      if (mask & (1u << b)) answer.push_back(keys[static_cast<size_t>(b)]);
    }
    EXPECT_GE(ExpectedTopKSymDiff(dist, answer),
              unrestricted.expected_distance - 1e-9);
  }
  // The size-k mean can never beat the unrestricted optimum; the median,
  // being realizable, can never beat it either.
  EXPECT_GE(MeanTopKSymDiff(dist).expected_distance,
            unrestricted.expected_distance - 1e-9);
  auto median = MedianTopKSymDiff(*tree, dist);
  ASSERT_TRUE(median.ok());
  EXPECT_GE(median->expected_distance, unrestricted.expected_distance - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopKSymDiffProperty, ::testing::Range(0, 20));

TEST(TopKSymDiffTest, MeanIsOrderedByTopKProbability) {
  Rng rng(123);
  RandomTreeOptions opts;
  opts.num_keys = 10;
  auto tree = RandomBid(opts, &rng);
  ASSERT_TRUE(tree.ok());
  RankDistribution dist = ComputeRankDistribution(*tree, 4);
  TopKResult mean = MeanTopKSymDiff(dist);
  ASSERT_EQ(mean.keys.size(), 4u);
  for (size_t i = 1; i < mean.keys.size(); ++i) {
    EXPECT_GE(dist.PrTopK(mean.keys[i - 1]), dist.PrTopK(mean.keys[i]) - 1e-12);
  }
  // Every excluded key has no larger probability than the included minimum.
  double min_included = dist.PrTopK(mean.keys.back());
  for (KeyId key : dist.keys()) {
    if (std::find(mean.keys.begin(), mean.keys.end(), key) == mean.keys.end()) {
      EXPECT_LE(dist.PrTopK(key), min_included + 1e-12);
    }
  }
}

TEST(TopKSymDiffTest, CertainDatabaseMedianEqualsTrueTopK) {
  // Deterministic database: median = mean = the true Top-k.
  std::vector<IndependentTuple> tuples;
  for (int i = 0; i < 6; ++i) {
    IndependentTuple t;
    t.alt.key = i;
    t.alt.score = 10.0 * (6 - i);
    t.prob = 1.0;
    tuples.push_back(t);
  }
  auto tree = MakeTupleIndependent(tuples);
  ASSERT_TRUE(tree.ok());
  RankDistribution dist = ComputeRankDistribution(*tree, 3);
  TopKResult mean = MeanTopKSymDiff(dist);
  auto median = MedianTopKSymDiff(*tree, dist);
  ASSERT_TRUE(median.ok());
  std::vector<KeyId> truth = {0, 1, 2};
  EXPECT_EQ(mean.keys, truth);
  EXPECT_EQ(median->keys, truth);
  EXPECT_NEAR(mean.expected_distance, 0.0, 1e-12);
}

TEST(TopKSymDiffTest, SmallWorldsAreConsidered) {
  // A database that usually has fewer than k tuples: the median answer must
  // be a small world, not a padded size-k set.
  std::vector<IndependentTuple> tuples;
  for (int i = 0; i < 2; ++i) {
    IndependentTuple t;
    t.alt.key = i;
    t.alt.score = i + 1.0;
    t.prob = 0.9;
    tuples.push_back(t);
  }
  auto tree = MakeTupleIndependent(tuples);
  ASSERT_TRUE(tree.ok());
  const int k = 3;
  RankDistribution dist = ComputeRankDistribution(*tree, k);
  auto median = MedianTopKSymDiff(*tree, dist);
  ASSERT_TRUE(median.ok());
  EXPECT_EQ(median->keys.size(), 2u);  // both tuples, never three
}

// The median scan against the per-stratum search it replaced
// (oracle/tail_oracles.h): keys and expected_distance bitwise, or the same
// error code, from the core MedianTopKSymDiff and from the engine at 1, 2
// and 8 threads. Returns the oracle's winning stratum.
class MedianScanCheck {
 public:
  MedianScanCheck() {
    for (int threads : {1, 2, 8}) {
      EngineOptions opts;
      opts.num_threads = threads;
      engines_.push_back(std::make_unique<Engine>(opts));
    }
  }

  int Check(const AndXorTree& tree, int k, const std::string& where) {
    const RankDistribution dist = ComputeRankDistribution(tree, k);
    int stratum = -2;
    const Result<TopKResult> oracle =
        MedianTopKSymDiffByStrata(tree, dist, &stratum);
    Expect(MedianTopKSymDiff(tree, dist), oracle, where + " core");
    for (const std::unique_ptr<Engine>& engine : engines_) {
      Expect(engine->MedianSymDiffSearch(tree, dist), oracle,
             where + " threads " + std::to_string(engine->num_threads()));
    }
    return stratum;
  }

 private:
  static void Expect(const Result<TopKResult>& got,
                     const Result<TopKResult>& oracle,
                     const std::string& where) {
    ASSERT_EQ(got.ok(), oracle.ok()) << where;
    if (!oracle.ok()) {
      ASSERT_EQ(got.status().code(), oracle.status().code()) << where;
      return;
    }
    ASSERT_EQ(got->keys, oracle->keys) << where;
    ASSERT_EQ(got->expected_distance, oracle->expected_distance) << where;
  }

  std::vector<std::unique_ptr<Engine>> engines_;
};

// Leaves scoring exactly the winning stratum's threshold: the tie group the
// scan activates last before reading the winner's value.
int LeavesAtWinningThreshold(const AndXorTree& tree, int stratum) {
  std::set<double> scores;
  for (NodeId l : tree.LeafIds()) scores.insert(tree.node(l).leaf.score);
  if (stratum < 0 || stratum >= static_cast<int>(scores.size())) return 0;
  const double threshold = *std::next(scores.begin(), stratum);
  int count = 0;
  for (NodeId l : tree.LeafIds()) {
    if (tree.node(l).leaf.score == threshold) ++count;
  }
  return count;
}

TEST(MedianScanTest, BitwiseEqualsPerStratumSearch) {
  MedianScanCheck check;
  int small_world_wins = 0, tie_group_wins = 0;
  for (int seed = 0; seed < 30; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 7919 + 11);
    RandomTreeOptions opts;
    opts.num_keys = 4 + seed % 6;
    opts.max_depth = 3 + seed % 2;
    opts.max_alternatives = 2 + seed % 2;
    std::vector<std::pair<std::string, AndXorTree>> trees;
    trees.emplace_back("and/xor", *RandomAndXorTree(opts, &rng));
    trees.emplace_back("bid", *RandomBid(opts, &rng));
    for (int f = 0; f < 2; ++f) {
      const AndXorTree& base = trees[static_cast<size_t>(f)].second;
      AndXorTree pooled;
      pooled.SetRoot(CopyWithPooledScores(base, base.root(), 3, &rng, &pooled));
      ASSERT_TRUE(pooled.Validate().ok());
      trees.emplace_back("pooled " + trees[static_cast<size_t>(f)].first,
                         std::move(pooled));
    }
    for (const auto& [family, tree] : trees) {
      const int leaves = tree.NumLeaves();
      std::set<double> scores;
      for (NodeId l : tree.LeafIds()) scores.insert(tree.node(l).leaf.score);
      for (int k : {1, 2, 3, 5, leaves, leaves + 3}) {
        const int stratum = check.Check(
            tree, k,
            family + " seed " + std::to_string(seed) + " k " +
                std::to_string(k));
        if (stratum == static_cast<int>(scores.size())) ++small_world_wins;
        if (LeavesAtWinningThreshold(tree, stratum) >= 2) ++tie_group_wins;
      }
    }
  }
  // The sweep reaches the small-world stratum and winners activated with a
  // tie group (the targeted cases below pin one of each as well).
  EXPECT_GT(small_world_wins, 0);
  EXPECT_GT(tie_group_wins, 0);
}

TEST(MedianScanTest, SmallWorldStratumWins) {
  // Two likely tuples and one unlikely: the size-3 world scores
  // 0.9 + 0.9 + 0.05 - 1.5 = 0.35 on the centered objective, the two-tuple
  // world 0.4 + 0.4 = 0.8.
  std::vector<IndependentTuple> tuples;
  const double probs[] = {0.9, 0.9, 0.05};
  for (int i = 0; i < 3; ++i) {
    IndependentTuple t;
    t.alt.key = i;
    t.alt.score = 3.0 - i;
    t.prob = probs[i];
    tuples.push_back(t);
  }
  auto tree = MakeTupleIndependent(tuples);
  ASSERT_TRUE(tree.ok());
  MedianScanCheck check;
  EXPECT_EQ(check.Check(*tree, 3, "small world"), 3);  // 3 thresholds
  EXPECT_EQ(MedianTopKSymDiff(*tree, ComputeRankDistribution(*tree, 3))
                ->keys.size(),
            2u);
}

TEST(MedianScanTest, NoStratumFeasible) {
  // Two certain tuples tied at one score and k = 1: the only threshold
  // keeps both (no size-1 world) and the empty world has probability 0.
  std::vector<IndependentTuple> tuples;
  for (int i = 0; i < 2; ++i) {
    IndependentTuple t;
    t.alt.key = i;
    t.alt.score = 5.0;
    t.prob = 1.0;
    tuples.push_back(t);
  }
  auto tree = MakeTupleIndependent(tuples);
  ASSERT_TRUE(tree.ok());
  MedianScanCheck check;
  EXPECT_EQ(check.Check(*tree, 1, "infeasible"), -1);
  auto median = MedianTopKSymDiff(*tree, ComputeRankDistribution(*tree, 1));
  ASSERT_FALSE(median.ok());
  EXPECT_EQ(median.status().code(), StatusCode::kInfeasible);
}

TEST(MedianScanTest, WinnerActivatedWithATieGroup) {
  // Keys 0 and 1 tie at score 5 (p = 0.9 each); key 2 scores 3 and is
  // certain, key 3 scores 1. Threshold 3 forces key 2 in, so its size-2
  // worlds pair it with one 5-scorer; threshold 5's world is {0, 1}, and it
  // wins: the scan activates both tied leaves before reading it.
  std::vector<IndependentTuple> tuples;
  const double scores[] = {5.0, 5.0, 3.0, 1.0};
  const double probs[] = {0.9, 0.9, 1.0, 0.6};
  for (int i = 0; i < 4; ++i) {
    IndependentTuple t;
    t.alt.key = i;
    t.alt.score = scores[i];
    t.prob = probs[i];
    tuples.push_back(t);
  }
  auto tree = MakeTupleIndependent(tuples);
  ASSERT_TRUE(tree.ok());
  MedianScanCheck check;
  const int stratum = check.Check(*tree, 2, "tie group");
  EXPECT_EQ(stratum, 2);  // thresholds {1, 3, 5}
  EXPECT_EQ(LeavesAtWinningThreshold(*tree, stratum), 2);
  auto median = MedianTopKSymDiff(*tree, ComputeRankDistribution(*tree, 2));
  ASSERT_TRUE(median.ok());
  EXPECT_EQ(std::set<KeyId>(median->keys.begin(), median->keys.end()),
            (std::set<KeyId>{0, 1}));
}

// The median DP's edge cases: the scan agrees bitwise with the per-stratum
// search (core and engine), and the answer is the best Top-k answer over
// all possible worlds.
void ExpectMedianPathsAgree(const AndXorTree& tree, int k) {
  MedianScanCheck check;
  check.Check(tree, k, "k " + std::to_string(k));
  const RankDistribution dist = ComputeRankDistribution(tree, k);
  auto core = MedianTopKSymDiff(tree, dist);
  ASSERT_TRUE(core.ok()) << core.status().ToString();
  auto worlds = EnumerateWorlds(tree);
  ASSERT_TRUE(worlds.ok());
  double best = std::numeric_limits<double>::infinity();
  for (const World& w : *worlds) {
    best = std::min(
        best, ExpectedTopKSymDiff(dist, TopKOfWorld(tree, w.leaf_ids, k)));
  }
  EXPECT_NEAR(core->expected_distance, best, 1e-9) << "k " << k;
}

TupleAlternative Alt(KeyId key, double score) {
  TupleAlternative a;
  a.key = key;
  a.score = score;
  return a;
}

TEST(TopKSymDiffTest, MedianWithKOneHasZeroCapFinalStratum) {
  // k = 1: the small-world stratum's DP has cap k - 1 = 0 (only the empty
  // world qualifies).
  for (int seed = 0; seed < 8; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 131 + 7);
    RandomTreeOptions opts;
    opts.num_keys = 5;
    opts.max_depth = 3;
    opts.max_alternatives = 2;
    auto tree = RandomAndXorTree(opts, &rng);
    ASSERT_TRUE(tree.ok());
    ExpectMedianPathsAgree(*tree, 1);
  }
}

TEST(TopKSymDiffTest, MedianSkipsStrataWithFewerThanKActiveLeaves) {
  // Three tuples and k = 3 or 5: the high-threshold strata hold fewer than
  // k active leaves, and with k = 5 every size-k stratum does.
  std::vector<IndependentTuple> tuples;
  for (int i = 0; i < 3; ++i) {
    IndependentTuple t;
    t.alt = Alt(i, 2.0 * i + 1.0);
    t.prob = 0.3 + 0.2 * i;
    tuples.push_back(t);
  }
  auto tree = MakeTupleIndependent(tuples);
  ASSERT_TRUE(tree.ok());
  ExpectMedianPathsAgree(*tree, 3);
  ExpectMedianPathsAgree(*tree, 5);
}

TEST(TopKSymDiffTest, MedianThroughSingleChildAnd) {
  // Single-child ANDs, one over a leaf and one over a XOR block, under a
  // wider AND: each is a one-row prefix copy of its child.
  AndXorTree tree;
  NodeId lone = tree.AddAnd({tree.AddLeaf(Alt(1, 4))});
  NodeId block = tree.AddAnd({tree.AddXor(
      {tree.AddLeaf(Alt(2, 6)), tree.AddLeaf(Alt(2, 2))}, {0.5, 0.3})});
  NodeId maybe = tree.AddXor({tree.AddLeaf(Alt(3, 5))}, {0.6});
  tree.SetRoot(tree.AddAnd({lone, block, maybe}));
  ASSERT_TRUE(tree.Validate().ok());
  for (int k : {1, 2, 3, 4}) ExpectMedianPathsAgree(tree, k);
}

}  // namespace
}  // namespace cpdb
