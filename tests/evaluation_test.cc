// Copyright 2026 The ConsensusDB Authors
//
// The enumeration-based ground-truth evaluators themselves, on hand-computed
// instances (everything else in the suite trusts these as oracles, so they
// get direct tests here).

#include "oracle/world_estimators.h"

#include <gtest/gtest.h>

#include "model/builders.h"
#include "oracle/table_generators.h"

namespace cpdb {
namespace {

// Two independent tuples: key 0 (score 2, p=0.5), key 1 (score 1, p=0.5).
Result<AndXorTree> TwoTupleTree() {
  std::vector<IndependentTuple> tuples(2);
  tuples[0].alt.key = 0;
  tuples[0].alt.score = 2.0;
  tuples[0].alt.label = 0;
  tuples[0].prob = 0.5;
  tuples[1].alt.key = 1;
  tuples[1].alt.score = 1.0;
  tuples[1].alt.label = 1;
  tuples[1].prob = 0.5;
  return MakeTupleIndependent(tuples);
}

TEST(EvaluationTest, TopKSymDiffHandComputed) {
  auto tree = TwoTupleTree();
  ASSERT_TRUE(tree.ok());
  // Worlds: {} 0.25, {0} 0.25, {1} 0.25, {0,1} 0.25. k=1, answer = [0].
  // d = (1/2)|{0} Δ top1(pw)|: {}: |{0}|=1 -> 0.5 ; {0}: 0 ; {1}: |{0,1}|=2
  // -> 1 ; {0,1}: top1 = {0} -> 0. E = 0.25(0.5 + 0 + 1 + 0) = 0.375.
  auto e = EnumExpectedTopKDistance(*tree, {0}, 1, TopKMetric::kSymDiff);
  ASSERT_TRUE(e.ok());
  EXPECT_NEAR(*e, 0.375, 1e-12);
}

TEST(EvaluationTest, TopKFootruleHandComputed) {
  auto tree = TwoTupleTree();
  ASSERT_TRUE(tree.ok());
  // k=1, answer = [0], location parameter 2.
  // {}: only key 0 in the union: |1-2| = 1. {0}: 0.
  // {1}: keys 0 and 1: |1-2| + |2-1| = 2. {0,1}: top1 = [0]: 0.
  auto e = EnumExpectedTopKDistance(*tree, {0}, 1, TopKMetric::kFootrule);
  ASSERT_TRUE(e.ok());
  EXPECT_NEAR(*e, 0.25 * (1 + 0 + 2 + 0), 1e-12);
}

TEST(EvaluationTest, SetDistancesHandComputed) {
  auto tree = TwoTupleTree();
  ASSERT_TRUE(tree.ok());
  NodeId leaf0 = tree->LeafIds()[0];
  // Candidate world = {leaf0}.
  // SymDiff: {}: 1, {0}: 0, {1}: 2, {0,1}: 1 -> E = 0.25 * 4 = 1.0.
  auto sym = EnumExpectedSetDistance(*tree, {leaf0}, SetMetric::kSymDiff);
  ASSERT_TRUE(sym.ok());
  EXPECT_NEAR(*sym, 1.0, 1e-12);
  // Jaccard: {}: 1, {0}: 0, {1}: 1, {0,1}: 1/2 -> E = 0.625.
  auto jac = EnumExpectedSetDistance(*tree, {leaf0}, SetMetric::kJaccard);
  ASSERT_TRUE(jac.ok());
  EXPECT_NEAR(*jac, 0.625, 1e-12);
}

TEST(EvaluationTest, ClusteringDistanceCountsPairFlips) {
  ClusteringAnswer a{{0, 0, 1, 1}};
  ClusteringAnswer b{{0, 1, 1, 1}};
  // Pairs: (0,1): together in a, apart in b -> 1. (0,2),(0,3): apart/apart.
  // (1,2),(1,3): apart in a, together in b -> 2. (2,3): together both.
  EXPECT_DOUBLE_EQ(ClusteringDistance(a, b), 3.0);
  EXPECT_DOUBLE_EQ(ClusteringDistance(a, a), 0.0);
  // Cluster ids are labels, not values: any relabeling is the same answer.
  ClusteringAnswer c{{7, 7, 2, 2}};
  EXPECT_DOUBLE_EQ(ClusteringDistance(a, c), 0.0);
}

TEST(EvaluationTest, ClusteringExpectationHandComputed) {
  auto tree = TwoTupleTree();
  ASSERT_TRUE(tree.ok());
  // Labels 0 and 1 differ, so present keys are never co-clustered; both
  // absent keys land in the artificial shared cluster.
  // Answer "together": distance 1 unless both absent (prob .25) -> E = .75.
  ClusteringAnswer together{{5, 5}};
  auto e1 = EnumExpectedClusteringDistance(*tree, together);
  ASSERT_TRUE(e1.ok());
  EXPECT_NEAR(*e1, 0.75, 1e-12);
  // Answer "apart": distance 1 only when both absent -> E = .25.
  ClusteringAnswer apart{{0, 1}};
  auto e2 = EnumExpectedClusteringDistance(*tree, apart);
  ASSERT_TRUE(e2.ok());
  EXPECT_NEAR(*e2, 0.25, 1e-12);
}

TEST(EvaluationTest, PropagatesEnumerationLimit) {
  std::vector<IndependentTuple> tuples(30);
  for (int i = 0; i < 30; ++i) {
    tuples[static_cast<size_t>(i)].alt.key = i;
    tuples[static_cast<size_t>(i)].alt.score = i;
    tuples[static_cast<size_t>(i)].prob = 0.5;
  }
  auto tree = MakeTupleIndependent(tuples);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(EnumExpectedTopKDistance(*tree, {0}, 1, TopKMetric::kSymDiff,
                                     /*max_worlds=*/100)
                .status()
                .code(),
            StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace cpdb
