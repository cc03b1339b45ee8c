// Copyright 2026 The ConsensusDB Authors

#include "workload/generators.h"

#include <gtest/gtest.h>

#include <set>

#include "model/possible_worlds.h"
#include "oracle/table_generators.h"

namespace cpdb {
namespace {

TEST(WorkloadTest, TupleIndependentIsValidAndTieFree) {
  Rng rng(1);
  auto tree = RandomTupleIndependent(50, &rng);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->NumLeaves(), 50);
  std::set<double> scores;
  for (NodeId l : tree->LeafIds()) {
    scores.insert(tree->node(l).leaf.score);
  }
  EXPECT_EQ(scores.size(), 50u) << "scores must be pairwise distinct";
}

TEST(WorkloadTest, BidBlocksRespectMassConstraint) {
  Rng rng(2);
  RandomTreeOptions opts;
  opts.num_keys = 30;
  opts.max_alternatives = 4;
  std::vector<Block> blocks = RandomBidBlocks(opts, &rng);
  ASSERT_EQ(blocks.size(), 30u);
  std::set<double> scores;
  for (const Block& b : blocks) {
    double mass = 0.0;
    for (const BlockAlternative& a : b) {
      EXPECT_GT(a.prob, 0.0);
      mass += a.prob;
      scores.insert(a.alt.score);
      EXPECT_EQ(a.alt.key, b[0].alt.key);
    }
    EXPECT_LE(mass, 1.0 + 1e-12);
    EXPECT_GE(mass, opts.min_xor_mass - 1e-9);
  }
  EXPECT_EQ(scores.size(), [&] {
    size_t total = 0;
    for (const Block& b : blocks) total += b.size();
    return total;
  }());
}

TEST(WorkloadTest, RandomAndXorTreesValidateAcrossSeeds) {
  for (int seed = 0; seed < 40; ++seed) {
    Rng rng(static_cast<uint64_t>(seed));
    RandomTreeOptions opts;
    opts.num_keys = 8;
    opts.max_depth = 4;
    opts.max_alternatives = 3;
    auto tree = RandomAndXorTree(opts, &rng);
    ASSERT_TRUE(tree.ok()) << "seed " << seed << ": "
                           << tree.status().ToString();
    // Every key must be reachable.
    EXPECT_EQ(tree->Keys().size(), 8u) << "seed " << seed;
    // Tie-free scores.
    std::set<double> scores;
    for (NodeId l : tree->LeafIds()) scores.insert(tree->node(l).leaf.score);
    EXPECT_EQ(static_cast<int>(scores.size()), tree->NumLeaves());
  }
}

TEST(WorkloadTest, RandomAndXorTreeRejectsBadOptions) {
  Rng rng(3);
  RandomTreeOptions opts;
  opts.num_keys = 0;
  EXPECT_FALSE(RandomAndXorTree(opts, &rng).ok());
}

TEST(WorkloadTest, GroupByMatrixIsStochastic) {
  Rng rng(4);
  auto probs = RandomGroupByMatrix(40, 6, 0.9, 0.2, &rng);
  ASSERT_EQ(probs.size(), 40u);
  for (const auto& row : probs) {
    ASSERT_EQ(row.size(), 6u);
    double total = 0.0;
    for (double p : row) {
      EXPECT_GE(p, 0.0);
      total += p;
    }
    EXPECT_LE(total, 1.0 + 1e-9);
    EXPECT_GT(total, 0.0);
  }
}

TEST(WorkloadTest, GroupByZipfSkewsColumnMass) {
  Rng rng(5);
  auto probs = RandomGroupByMatrix(500, 8, 1.2, 0.1, &rng);
  std::vector<double> col(8, 0.0);
  for (const auto& row : probs) {
    for (size_t j = 0; j < row.size(); ++j) col[j] += row[j];
  }
  // The first (most popular) group should dominate the last.
  EXPECT_GT(col[0], 2.0 * col[7]);
}

TEST(WorkloadTest, DeterministicGivenSeed) {
  RandomTreeOptions opts;
  opts.num_keys = 6;
  opts.max_depth = 3;
  Rng rng1(99), rng2(99);
  auto t1 = RandomAndXorTree(opts, &rng1);
  auto t2 = RandomAndXorTree(opts, &rng2);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(t1->ToString(), t2->ToString());
}

}  // namespace
}  // namespace cpdb
