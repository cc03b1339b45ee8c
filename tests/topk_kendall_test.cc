// Copyright 2026 The ConsensusDB Authors
//
// Section 5.5: Kendall tau over Top-k answers — exact pairwise statistics,
// the evaluator's agreement with enumeration, and the footrule answer's
// factor-2 bound against the exact optimum.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/topk_footrule.h"
#include "engine/engine.h"
#include "model/flat_tree.h"
#include "model/possible_worlds.h"
#include "oracle/fold_oracles.h"
#include "oracle/kendall_oracles.h"
#include "oracle/world_estimators.h"
#include "pooled_scores.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

constexpr int kK = 2;

class TopKKendallProperty : public ::testing::TestWithParam<int> {};

TEST_P(TopKKendallProperty, PairwiseStatisticMatchesEnumeration) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 151 + 13);
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
    for (KeyId t : keys) {
      if (u == t) continue;
      double expected = 0.0;
      for (const World& w : *worlds) {
        std::vector<TupleAlternative> tuples = WorldTuples(*tree, w.leaf_ids);
        int rank_u = -1, rank_t = -1;
        for (size_t pos = 0; pos < tuples.size(); ++pos) {
          if (tuples[pos].key == u) rank_u = static_cast<int>(pos) + 1;
          if (tuples[pos].key == t) rank_t = static_cast<int>(pos) + 1;
        }
        bool u_in_topk = rank_u > 0 && rank_u <= kK;
        bool u_before_t = rank_u > 0 && (rank_t < 0 || rank_u < rank_t);
        if (u_in_topk && u_before_t) expected += w.prob;
      }
      EXPECT_NEAR(PrInTopKAndBefore(*tree, u, t, kK), expected, 1e-9)
          << "u=" << u << " t=" << t;
    }
  }
}

TEST_P(TopKKendallProperty, EvaluatorMatchesEnumeration) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 157 + 17);
  RandomTreeOptions opts;
  opts.num_keys = 4;
  opts.max_depth = 3;
  opts.max_alternatives = 2;
  auto tree = RandomAndXorTree(opts, &rng);
  ASSERT_TRUE(tree.ok());
  KendallEvaluator evaluator(*tree, kK);

  std::vector<KeyId> keys = tree->Keys();
  for (int trial = 0; trial < 4; ++trial) {
    rng.Shuffle(&keys);
    std::vector<KeyId> answer(keys.begin(),
                              keys.begin() + std::min<size_t>(keys.size(), kK));
    auto expected =
        EnumExpectedTopKDistance(*tree, answer, kK, TopKMetric::kKendall);
    ASSERT_TRUE(expected.ok());
    EXPECT_NEAR(evaluator.Expected(answer), *expected, 1e-9);
  }
}

TEST_P(TopKKendallProperty, FootruleWithinFactorTwoOfExact) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 163 + 19);
  RandomTreeOptions opts;
  opts.num_keys = 5;
  opts.max_depth = 2;
  opts.max_alternatives = 2;
  auto tree = RandomAndXorTree(opts, &rng);
  ASSERT_TRUE(tree.ok());
  RankDistribution dist = ComputeRankDistribution(*tree, kK);
  if (static_cast<int>(dist.keys().size()) < kK) GTEST_SKIP();
  KendallEvaluator evaluator(*tree, kK);

  auto exact = MeanTopKKendallExactDp(evaluator, dist);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();

  auto footrule = MeanTopKKendallViaFootrule(evaluator, dist);
  ASSERT_TRUE(footrule.ok());
  EXPECT_GE(footrule->expected_distance, exact->expected_distance - 1e-9);
  if (exact->expected_distance > 1e-6) {
    EXPECT_LE(footrule->expected_distance,
              2.0 * exact->expected_distance + 1e-6)
        << "footrule aggregation exceeded its 2-approximation bound";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopKKendallProperty, ::testing::Range(0, 12));

TEST(TopKKendallTest, SubsetDpSolvesFourteenCandidates) {
  Rng rng(7);
  RandomTreeOptions opts;
  opts.num_keys = 14;
  opts.max_alternatives = 2;
  auto tree = RandomBid(opts, &rng);
  ASSERT_TRUE(tree.ok());
  const int k = 4;
  RankDistribution dist = ComputeRankDistribution(*tree, k);
  KendallEvaluator evaluator(*tree, k);
  // 14 candidates: the DP succeeds, and the footrule answer may not beat
  // it.
  auto dp = MeanTopKKendallExactDp(evaluator, dist);
  ASSERT_TRUE(dp.ok()) << dp.status().ToString();
  auto footrule = MeanTopKKendallViaFootrule(evaluator, dist);
  ASSERT_TRUE(footrule.ok());
  EXPECT_LE(dp->expected_distance, footrule->expected_distance + 1e-9);
}

TEST(TopKKendallTest, ExactRefusesLargeCandidateSets) {
  Rng rng(3);
  auto tree = RandomTupleIndependent(12, &rng);
  ASSERT_TRUE(tree.ok());
  RankDistribution dist = ComputeRankDistribution(*tree, 2);
  KendallEvaluator evaluator(*tree, 2);
  EXPECT_EQ(MeanTopKKendallExactDp(evaluator, dist, /*max_candidates=*/5)
                .status()
                .code(),
            StatusCode::kResourceExhausted);
}

TEST(TopKKendallTest, TiedScoresBitwiseEqualPointerFold) {
  // A q column's scan queries every leaf of a tie group before it commits
  // the group, the column's own key to zero and the rest to x. Scores from
  // small pools put ties across keys, within a key and against the
  // column's key; every path must still give the pointer fold's bits: the
  // engine's column tasks with and without a program at any thread count,
  // and the sequential evaluator. Trees stay at 60 leaves or fewer, so the
  // pointer fold at k = L + 3 stays cheap.
  //
  // The engine's kendall mean re-scores the footrule answer from its own
  // keys' columns; the evaluator holds every column. One sum order, so
  // keys and E[d_K] agree to the bit. At k = the key count the answer is
  // every key; past it both fail alike, as the footrule answer needs k.
  Rng rng(2026);
  RandomTreeOptions deep;
  deep.num_keys = 8;
  deep.max_depth = 3;
  deep.max_alternatives = 3;
  RandomTreeOptions bid;
  bid.num_keys = 10;
  bid.max_alternatives = 4;
  std::vector<std::unique_ptr<Engine>> engines;
  for (int threads : {1, 2, 4, 8}) {
    EngineOptions opts;
    opts.num_threads = threads;
    engines.push_back(std::make_unique<Engine>(opts));
  }
  for (int pool : {1, 3, 7, 50}) {
    for (int shape = 0; shape < 2; ++shape) {
      AndXorTree tree;
      do {
        Result<AndXorTree> base =
            shape == 0 ? RandomAndXorTree(deep, &rng) : RandomBid(bid, &rng);
        ASSERT_TRUE(base.ok());
        tree = AndXorTree();
        tree.SetRoot(
            CopyWithPooledScores(*base, base->root(), pool, &rng, &tree));
        ASSERT_TRUE(tree.Validate().ok());
      } while (tree.NumLeaves() > 60 || !HasTieWithinKey(tree));
      const FlatTree program = FlatTree::Compile(tree);
      const std::vector<KeyId> keys = tree.Keys();
      const int num_keys = static_cast<int>(keys.size());
      for (int k : {1, 3, 5, num_keys, tree.NumLeaves() + 3}) {
        const std::string label = "pool " + std::to_string(pool) +
                                  " shape " + std::to_string(shape) + " k " +
                                  std::to_string(k);
        // columns_ref[j][i] = q(keys[i], keys[j]).
        std::vector<std::vector<double>> columns_ref(
            keys.size(), std::vector<double>(keys.size(), 0.0));
        for (size_t i = 0; i < keys.size(); ++i) {
          for (size_t j = 0; j < keys.size(); ++j) {
            if (i != j) {
              columns_ref[j][i] = PrInTopKAndBefore(tree, keys[i], keys[j], k);
            }
          }
        }
        const KendallEvaluator evaluator(tree, k);
        for (size_t i = 0; i < keys.size(); ++i) {
          for (size_t j = 0; j < keys.size(); ++j) {
            ASSERT_EQ(evaluator.Q(keys[i], keys[j]), columns_ref[j][i])
                << label << " cell " << i << "," << j;
          }
        }
        const RankDistribution dist =
            engines[0]->ComputeRankDistribution(tree, k);
        const Result<TopKResult> mean =
            MeanTopKKendallViaFootrule(evaluator, dist);
        ASSERT_EQ(mean.ok(), k <= num_keys) << label;
        for (const std::unique_ptr<Engine>& engine : engines) {
          const std::string at =
              label + " threads " + std::to_string(engine->num_threads());
          for (const FlatTree* prog : {static_cast<const FlatTree*>(nullptr),
                                       &program}) {
            ASSERT_EQ(engine->KendallQColumns(tree, k, keys, prog),
                      columns_ref)
                << at;
            const Result<TopKResult> got = engine->ConsensusTopKWithDist(
                tree, dist, TopKMetric::kKendall, TopKAnswer::kMean, prog);
            ASSERT_EQ(got.status().ToString(), mean.status().ToString()) << at;
            if (!mean.ok()) continue;
            ASSERT_EQ(got->keys, mean->keys) << at;
            ASSERT_EQ(got->expected_distance, mean->expected_distance) << at;
          }
        }
      }
    }
  }
}

TEST(TopKKendallTest, KeysAcrossTheWholeInt32Range) {
  // Keys are any int32 (the parsers accept negative ones): the evaluator
  // must index them without a dense table, which negative keys overran and
  // a key near INT32_MAX would size at gigabytes.
  std::vector<IndependentTuple> tuples;
  const KeyId keys[] = {std::numeric_limits<KeyId>::min(), -7, -1, 0,
                        std::numeric_limits<KeyId>::max()};
  for (int i = 0; i < 5; ++i) {
    IndependentTuple t;
    t.alt.key = keys[i];
    t.alt.score = 10.0 + ((i * 3) % 5);
    t.prob = 0.3 + 0.1 * i;
    tuples.push_back(t);
  }
  auto tree = MakeTupleIndependent(tuples);
  ASSERT_TRUE(tree.ok());
  const KendallEvaluator evaluator(*tree, kK);
  for (KeyId u : keys) {
    for (KeyId t : keys) {
      EXPECT_EQ(evaluator.Q(u, t),
                u == t ? 0.0 : PrInTopKAndBefore(*tree, u, t, kK))
          << "u=" << u << " t=" << t;
    }
  }
  EXPECT_EQ(evaluator.Q(5, keys[0]), 0.0);  // not a key of the tree
  const std::vector<KeyId> answer = {keys[4], keys[0]};
  auto expected =
      EnumExpectedTopKDistance(*tree, answer, kK, TopKMetric::kKendall);
  ASSERT_TRUE(expected.ok());
  EXPECT_NEAR(evaluator.Expected(answer), *expected, 1e-9);
}

TEST(TopKKendallTest, CertainDatabaseExactIsTrueTopK) {
  std::vector<IndependentTuple> tuples;
  for (int i = 0; i < 5; ++i) {
    IndependentTuple t;
    t.alt.key = i;
    t.alt.score = 50.0 - i;
    t.prob = 1.0;
    tuples.push_back(t);
  }
  auto tree_or = MakeTupleIndependent(tuples);
  ASSERT_TRUE(tree_or.ok());
  KendallEvaluator evaluator(*tree_or, 3);
  RankDistribution dist = ComputeRankDistribution(*tree_or, 3);
  auto exact = MeanTopKKendallExactDp(evaluator, dist);
  ASSERT_TRUE(exact.ok());
  std::vector<KeyId> truth = {0, 1, 2};
  EXPECT_EQ(exact->keys, truth);
  EXPECT_NEAR(exact->expected_distance, 0.0, 1e-12);
}

}  // namespace
}  // namespace cpdb
