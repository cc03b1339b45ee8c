// Copyright 2026 The ConsensusDB Authors
//
// Exhaustive possible-worlds differential suite: on random small and/xor and
// BID trees (seeded RNG, <= 12 leaves) every closed-form consensus answer —
// the four Top-k metrics and set consensus, all routed through cpdb::Engine —
// is cross-checked against the brute-force definition from the paper: the
// expected distance is literally sum_w Pr(w) * d(answer, query(w)) over the
// enumerated worlds, and optimal answers must achieve the minimum of that
// sum over the whole (tiny) answer space.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <set>
#include <vector>

#include "common/rng.h"
#include "core/rank_distribution.h"
#include "core/set_consensus.h"
#include "core/topk_metrics.h"
#include "engine/engine.h"
#include "model/possible_worlds.h"
#include "oracle/kendall_oracles.h"
#include "oracle/list_distances.h"
#include "oracle/table_generators.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

constexpr double kTol = 1e-8;

// A world with its Top-k answer precomputed, so the many brute-force
// expectations below reuse one enumeration pass.
struct RankedWorld {
  double prob = 0.0;
  std::vector<NodeId> leaves;
  std::vector<KeyId> topk;
};

std::vector<RankedWorld> MaterializeWorlds(const AndXorTree& tree, int k) {
  auto worlds = EnumerateWorlds(tree, 1 << 14);
  EXPECT_TRUE(worlds.ok());
  std::vector<RankedWorld> out;
  out.reserve(worlds->size());
  for (const World& w : *worlds) {
    out.push_back({w.prob, w.leaf_ids, TopKOfWorld(tree, w.leaf_ids, k)});
  }
  return out;
}

// The paper's definition of the expected Top-k distance, verbatim:
// sum over possible worlds of Pr(w) * d(answer, topk(w)).
double BruteExpectedTopK(const std::vector<RankedWorld>& worlds,
                         const std::vector<KeyId>& answer, int k,
                         TopKMetric metric) {
  double expected = 0.0;
  for (const RankedWorld& w : worlds) {
    expected += w.prob * TopKListDistance(answer, w.topk, k, metric);
  }
  return expected;
}

// Brute minimum of the expected distance over every ordered size-k answer
// drawn from `keys` (the full answer space Omega of Section 5).
double BruteMinOverOrderedAnswers(const std::vector<RankedWorld>& worlds,
                                  const std::vector<KeyId>& keys, int k,
                                  TopKMetric metric) {
  double best = std::numeric_limits<double>::infinity();
  std::vector<KeyId> current;
  std::vector<bool> used(keys.size(), false);
  std::function<void()> recurse = [&] {
    if (static_cast<int>(current.size()) == k) {
      best = std::min(best, BruteExpectedTopK(worlds, current, k, metric));
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
  return best;
}

// |S Delta W| over sorted NodeId vectors — an implementation independent of
// core/set_consensus.cc (which never forms the difference explicitly).
double LeafSetSymDiff(const std::vector<NodeId>& a,
                      const std::vector<NodeId>& b) {
  std::set<NodeId> sa(a.begin(), a.end());
  std::set<NodeId> sb(b.begin(), b.end());
  int diff = 0;
  for (NodeId x : sa) diff += sb.count(x) == 0 ? 1 : 0;
  for (NodeId x : sb) diff += sa.count(x) == 0 ? 1 : 0;
  return static_cast<double>(diff);
}

double BruteExpectedSetDistance(const std::vector<RankedWorld>& worlds,
                                const std::vector<NodeId>& answer) {
  double expected = 0.0;
  for (const RankedWorld& w : worlds) {
    expected += w.prob * LeafSetSymDiff(answer, w.leaves);
  }
  return expected;
}

// Small random instances of both structural families. Trees whose leaf count
// exceeds `max_leaves` are skipped (the generators are size-randomized).
std::vector<AndXorTree> SmallTrees(int max_leaves) {
  std::vector<AndXorTree> trees;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    RandomTreeOptions opts;
    opts.num_keys = 5;
    opts.max_depth = 3;
    opts.max_alternatives = 2;
    auto deep = RandomAndXorTree(opts, &rng);
    EXPECT_TRUE(deep.ok());
    if (deep.ok() && deep->NumLeaves() <= max_leaves) {
      trees.push_back(std::move(*deep));
    }
    auto bid = RandomBid(opts, &rng);
    EXPECT_TRUE(bid.ok());
    if (bid.ok() && bid->NumLeaves() <= max_leaves) {
      trees.push_back(std::move(*bid));
    }
  }
  EXPECT_GE(trees.size(), 8u) << "generators produced too few small trees";
  return trees;
}

Engine MakeEngine() {
  EngineOptions opts;
  opts.num_threads = 2;
  return Engine(opts);
}

// --- Mean answers: closed-form expectation AND optimality -------------------

TEST(DifferentialTest, MeanSymDiffIsBruteOptimal) {
  Engine engine = MakeEngine();
  for (const AndXorTree& tree : SmallTrees(12)) {
    for (int k : {1, 2, 3}) {
      std::vector<RankedWorld> worlds = MaterializeWorlds(tree, k);
      auto mean = engine.ConsensusTopK(tree, k, TopKMetric::kSymDiff);
      ASSERT_TRUE(mean.ok());
      double brute = BruteExpectedTopK(worlds, mean->keys, k,
                                       TopKMetric::kSymDiff);
      ASSERT_NEAR(mean->expected_distance, brute, kTol);
      // d_Delta ignores order, so ordered enumeration is also the set
      // optimum; the mean answer must achieve it.
      double best = BruteMinOverOrderedAnswers(worlds, tree.Keys(), k,
                                               TopKMetric::kSymDiff);
      ASSERT_NEAR(mean->expected_distance, best, kTol);
    }
  }
}

TEST(DifferentialTest, MeanSymDiffUnrestrictedBeatsEverySubset) {
  Engine engine = MakeEngine();
  for (const AndXorTree& tree : SmallTrees(12)) {
    const int k = 2;
    std::vector<RankedWorld> worlds = MaterializeWorlds(tree, k);
    auto answer = engine.ConsensusTopK(tree, k, TopKMetric::kSymDiff,
                                       TopKAnswer::kMeanUnrestricted);
    ASSERT_TRUE(answer.ok());
    ASSERT_NEAR(
        answer->expected_distance,
        BruteExpectedTopK(worlds, answer->keys, k, TopKMetric::kSymDiff),
        kTol);
    // The size-unrestricted mean minimizes over every subset of keys (any
    // size); order is irrelevant under d_Delta.
    std::vector<KeyId> keys = tree.Keys();
    ASSERT_LE(keys.size(), 12u);
    for (uint32_t mask = 0; mask < (1u << keys.size()); ++mask) {
      std::vector<KeyId> subset;
      for (size_t i = 0; i < keys.size(); ++i) {
        if (mask & (1u << i)) subset.push_back(keys[i]);
      }
      double e = BruteExpectedTopK(worlds, subset, k, TopKMetric::kSymDiff);
      ASSERT_GE(e, answer->expected_distance - kTol)
          << "subset mask " << mask << " beats the unrestricted mean";
    }
  }
}

TEST(DifferentialTest, MedianSymDiffIsBestRealizableTopK) {
  Engine engine = MakeEngine();
  for (const AndXorTree& tree : SmallTrees(12)) {
    for (int k : {1, 2, 3}) {
      std::vector<RankedWorld> worlds = MaterializeWorlds(tree, k);
      auto median = engine.ConsensusTopK(tree, k, TopKMetric::kSymDiff,
                                         TopKAnswer::kMedian);
      ASSERT_TRUE(median.ok());
      ASSERT_NEAR(
          median->expected_distance,
          BruteExpectedTopK(worlds, median->keys, k, TopKMetric::kSymDiff),
          kTol);
      // Theorem 4 semantics: the median is the Top-k answer of some
      // positive-probability world, and no realizable Top-k answer does
      // better.
      bool realizable = false;
      double best = std::numeric_limits<double>::infinity();
      for (const RankedWorld& w : worlds) {
        best = std::min(best,
                        BruteExpectedTopK(worlds, w.topk, k,
                                          TopKMetric::kSymDiff));
        realizable = realizable || w.topk == median->keys;
      }
      ASSERT_TRUE(realizable) << "median is not any world's Top-k";
      ASSERT_NEAR(median->expected_distance, best, kTol);
    }
  }
}

TEST(DifferentialTest, MeanIntersectionExactIsBruteOptimal) {
  Engine engine = MakeEngine();
  for (const AndXorTree& tree : SmallTrees(12)) {
    for (int k : {1, 2, 3}) {
      std::vector<RankedWorld> worlds = MaterializeWorlds(tree, k);
      auto exact = engine.ConsensusTopK(tree, k, TopKMetric::kIntersection);
      ASSERT_TRUE(exact.ok());
      ASSERT_NEAR(
          exact->expected_distance,
          BruteExpectedTopK(worlds, exact->keys, k, TopKMetric::kIntersection),
          kTol);
      double best = BruteMinOverOrderedAnswers(worlds, tree.Keys(), k,
                                               TopKMetric::kIntersection);
      ASSERT_NEAR(exact->expected_distance, best, kTol);
      // The H_k approximation is only consistency-checked: its closed-form
      // expectation must equal the brute-force sum for its own answer.
      auto approx = engine.ConsensusTopK(tree, k, TopKMetric::kIntersection,
                                         TopKAnswer::kMeanApprox);
      ASSERT_TRUE(approx.ok());
      ASSERT_NEAR(approx->expected_distance,
                  BruteExpectedTopK(worlds, approx->keys, k,
                                    TopKMetric::kIntersection),
                  kTol);
      ASSERT_GE(approx->expected_distance, exact->expected_distance - kTol);
    }
  }
}

TEST(DifferentialTest, MeanFootruleIsBruteOptimal) {
  Engine engine = MakeEngine();
  for (const AndXorTree& tree : SmallTrees(12)) {
    for (int k : {1, 2, 3}) {
      std::vector<RankedWorld> worlds = MaterializeWorlds(tree, k);
      auto foot = engine.ConsensusTopK(tree, k, TopKMetric::kFootrule);
      ASSERT_TRUE(foot.ok());
      ASSERT_NEAR(
          foot->expected_distance,
          BruteExpectedTopK(worlds, foot->keys, k, TopKMetric::kFootrule),
          kTol);
      double best = BruteMinOverOrderedAnswers(worlds, tree.Keys(), k,
                                               TopKMetric::kFootrule);
      ASSERT_NEAR(foot->expected_distance, best, kTol);
    }
  }
}

TEST(DifferentialTest, KendallAnswersMatchEnumeration) {
  Engine engine = MakeEngine();
  for (const AndXorTree& tree : SmallTrees(12)) {
    for (int k : {1, 2, 3}) {
      std::vector<RankedWorld> worlds = MaterializeWorlds(tree, k);
      // The engine's (via-footrule, 2-approximate) answer: its closed-form
      // d_K expectation must equal the brute-force sum.
      auto via_foot = engine.ConsensusTopK(tree, k, TopKMetric::kKendall);
      ASSERT_TRUE(via_foot.ok());
      ASSERT_NEAR(
          via_foot->expected_distance,
          BruteExpectedTopK(worlds, via_foot->keys, k, TopKMetric::kKendall),
          kTol);
      // The subset-DP exact optimizer (restricted to candidates with
      // Pr(r(t) <= k) > 0, as its contract states): its answer must achieve
      // the brute minimum over ordered answers from that candidate set, and
      // never beat it.
      RankDistribution dist = ComputeRankDistribution(tree, k);
      KendallEvaluator evaluator(tree, k);
      auto exact = MeanTopKKendallExactDp(evaluator, dist);
      if (!exact.ok()) continue;  // more candidates than the DP accepts
      std::vector<KeyId> candidates;
      for (KeyId key : evaluator.keys()) {
        if (dist.PrTopK(key) > 0.0) candidates.push_back(key);
      }
      if (static_cast<int>(candidates.size()) < k) continue;
      ASSERT_NEAR(
          exact->expected_distance,
          BruteExpectedTopK(worlds, exact->keys, k, TopKMetric::kKendall),
          kTol);
      double best = BruteMinOverOrderedAnswers(worlds, candidates, k,
                                               TopKMetric::kKendall);
      ASSERT_NEAR(exact->expected_distance, best, kTol);
      ASSERT_GE(via_foot->expected_distance, best - kTol);
    }
  }
}

// --- Set consensus ----------------------------------------------------------

TEST(DifferentialTest, SetConsensusMatchesEnumeration) {
  Engine engine = MakeEngine();
  for (const AndXorTree& tree : SmallTrees(10)) {
    std::vector<RankedWorld> worlds = MaterializeWorlds(tree, 1);
    // Mean world: closed-form objective equals the brute sum, and no leaf
    // subset whatsoever does better (Theorem 2 optimality).
    const std::vector<double> marginals = engine.LeafMarginals(tree);
    Result<Engine::WorldResult> mean_world =
        engine.ConsensusWorldWithMarginals(tree, marginals, /*median=*/false);
    ASSERT_TRUE(mean_world.ok());
    const std::vector<NodeId>& mean = mean_world->leaf_ids;
    const double mean_expected = mean_world->expected_distance;
    ASSERT_NEAR(mean_expected, BruteExpectedSetDistance(worlds, mean), kTol);
    const std::vector<NodeId>& leaves = tree.LeafIds();
    for (uint32_t mask = 0; mask < (1u << leaves.size()); ++mask) {
      std::vector<NodeId> subset;
      for (size_t i = 0; i < leaves.size(); ++i) {
        if (mask & (1u << i)) subset.push_back(leaves[i]);
      }
      ASSERT_GE(BruteExpectedSetDistance(worlds, subset), mean_expected - kTol)
          << "leaf subset mask " << mask << " beats the mean world";
    }
    // Median world: realizable, and the best among all realizable worlds
    // (Corollary 1: its objective also ties the unrestricted mean's).
    Result<Engine::WorldResult> median_world =
        engine.ConsensusWorldWithMarginals(tree, marginals, /*median=*/true);
    ASSERT_TRUE(median_world.ok());
    const std::vector<NodeId>& median = median_world->leaf_ids;
    const double median_expected = median_world->expected_distance;
    ASSERT_NEAR(median_expected, BruteExpectedSetDistance(worlds, median),
                kTol);
    bool realizable = false;
    double best = std::numeric_limits<double>::infinity();
    for (const RankedWorld& w : worlds) {
      best = std::min(best, BruteExpectedSetDistance(worlds, w.leaves));
      realizable = realizable || w.leaves == median;
    }
    ASSERT_TRUE(realizable) << "median world has zero probability";
    ASSERT_NEAR(median_expected, best, kTol);
    ASSERT_NEAR(median_expected, mean_expected, kTol);
  }
}

// --- Every metric per tree --------------------------------------------------

TEST(DifferentialTest, EveryMetricPerTreeMatchesEnumeration) {
  Engine engine = MakeEngine();
  const int k = 2;
  for (const AndXorTree& tree : SmallTrees(12)) {
    std::vector<RankedWorld> worlds = MaterializeWorlds(tree, k);
    for (TopKMetric metric :
         {TopKMetric::kSymDiff, TopKMetric::kIntersection,
          TopKMetric::kFootrule, TopKMetric::kKendall}) {
      Result<TopKResult> result = engine.ConsensusTopK(tree, k, metric);
      ASSERT_TRUE(result.ok()) << TopKMetricName(metric);
      ASSERT_NEAR(result->expected_distance,
                  BruteExpectedTopK(worlds, result->keys, k, metric), kTol)
          << TopKMetricName(metric);
    }
  }
}

}  // namespace
}  // namespace cpdb
