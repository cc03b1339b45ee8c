// Copyright 2026 The ConsensusDB Authors
//
// Exercises the Section 4.1 MAX-2-SAT reduction end to end: the key-level
// median of the projected query result recovers the MAX-2-SAT optimum, and
// the tractable leaf-level and/xor median is a *different* (easier) problem.
//
// The reduction: a MAX-2-SAT instance becomes a two-relation query R join S
// where S holds two equiprobable mutually exclusive tuples per variable and
// R maps clauses to their literals. Each clause appears in the projected
// result with marginal probability 3/4, but the result tuples are
// correlated through the shared variable choices, and the median world
// (over result *keys*) selects the assignment satisfying the most clauses.
// The and/xor tree of the result distribution duplicates clause keys across
// assignment branches, which is why Corollary 1 does not extend.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "core/set_consensus.h"
#include "model/and_xor_tree.h"
#include "model/possible_worlds.h"

namespace cpdb {
namespace {

// A 2-CNF clause over variables 0..num_vars-1.
struct TwoSatClause {
  int var1 = 0;
  bool positive1 = true;
  int var2 = 0;
  bool positive2 = true;
};

struct Max2SatInstance {
  int num_vars = 0;
  std::vector<TwoSatClause> clauses;
};

bool ClauseSatisfied(const TwoSatClause& clause,
                     const std::vector<bool>& assignment) {
  bool lit1 = assignment[static_cast<size_t>(clause.var1)] == clause.positive1;
  bool lit2 = assignment[static_cast<size_t>(clause.var2)] == clause.positive2;
  return lit1 || lit2;
}

Status CheckInstance(const Max2SatInstance& instance) {
  if (instance.num_vars < 1 || instance.num_vars > 20) {
    return Status::InvalidArgument("num_vars must be in [1, 20]");
  }
  for (const TwoSatClause& c : instance.clauses) {
    if (c.var1 < 0 || c.var1 >= instance.num_vars || c.var2 < 0 ||
        c.var2 >= instance.num_vars) {
      return Status::InvalidArgument("clause variable out of range");
    }
  }
  return Status::OK();
}

std::vector<bool> AssignmentFromMask(uint32_t mask, int num_vars) {
  std::vector<bool> assignment(static_cast<size_t>(num_vars));
  for (int v = 0; v < num_vars; ++v) assignment[static_cast<size_t>(v)] = mask & (1u << v);
  return assignment;
}

// Exhaustive MAX-2-SAT: the maximum number of simultaneously satisfiable
// clauses. Requires num_vars <= 20.
Result<int> BruteForceMax2Sat(const Max2SatInstance& instance) {
  CPDB_RETURN_NOT_OK(CheckInstance(instance));
  int best = 0;
  for (uint32_t mask = 0; mask < (1u << instance.num_vars); ++mask) {
    std::vector<bool> assignment = AssignmentFromMask(mask, instance.num_vars);
    int satisfied = 0;
    for (const TwoSatClause& c : instance.clauses) {
      satisfied += ClauseSatisfied(c, assignment) ? 1 : 0;
    }
    best = std::max(best, satisfied);
  }
  return best;
}

// The distribution over query results pi_C(R join S): one outcome per
// assignment (probability 2^-num_vars), whose value is the sorted set of
// satisfied clause indices. Outcomes with identical clause sets are merged.
struct ResultWorld {
  std::vector<int> satisfied_clauses;
  double prob = 0.0;
};

Result<std::vector<ResultWorld>> EnumerateQueryResultWorlds(
    const Max2SatInstance& instance) {
  CPDB_RETURN_NOT_OK(CheckInstance(instance));
  std::map<std::vector<int>, double> outcomes;
  double p = 1.0 / static_cast<double>(1u << instance.num_vars);
  for (uint32_t mask = 0; mask < (1u << instance.num_vars); ++mask) {
    std::vector<bool> assignment = AssignmentFromMask(mask, instance.num_vars);
    std::vector<int> satisfied;
    for (size_t i = 0; i < instance.clauses.size(); ++i) {
      if (ClauseSatisfied(instance.clauses[i], assignment)) {
        satisfied.push_back(static_cast<int>(i));
      }
    }
    outcomes[satisfied] += p;
  }
  std::vector<ResultWorld> worlds;
  worlds.reserve(outcomes.size());
  for (auto& [clauses, prob] : outcomes) {
    worlds.push_back({clauses, prob});
  }
  return worlds;
}

// The median answer of the result distribution under the key-level
// symmetric difference (brute force over possible answers); by the paper's
// reduction its size equals BruteForceMax2Sat.
Result<std::vector<int>> MedianQueryResult(const Max2SatInstance& instance) {
  CPDB_ASSIGN_OR_RETURN(std::vector<ResultWorld> worlds,
                        EnumerateQueryResultWorlds(instance));
  // Median = possible answer minimizing the expected key-level symmetric
  // difference. For a candidate S: E[d] = sum_c in S Pr(c absent) +
  // sum_c notin S Pr(c present), evaluated over the result distribution.
  std::vector<double> present(instance.clauses.size(), 0.0);
  for (const ResultWorld& w : worlds) {
    for (int c : w.satisfied_clauses) present[static_cast<size_t>(c)] += w.prob;
  }
  const std::vector<int>* best = nullptr;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const ResultWorld& w : worlds) {
    double cost = 0.0;
    std::vector<bool> in_world(instance.clauses.size(), false);
    for (int c : w.satisfied_clauses) in_world[static_cast<size_t>(c)] = true;
    for (size_t c = 0; c < instance.clauses.size(); ++c) {
      cost += in_world[c] ? (1.0 - present[c]) : present[c];
    }
    if (cost < best_cost) {
      best_cost = cost;
      best = &w.satisfied_clauses;
    }
  }
  if (best == nullptr) return Status::Infeasible("no result worlds");
  return *best;
}

// Materializes the result distribution as an and/xor tree (a XOR of
// per-assignment AND branches; clause keys repeat across branches, legally,
// since their LCA is the XOR root). Clause i becomes key i; scores are
// distinct per (branch, clause) leaf.
Result<AndXorTree> BuildQueryResultTree(const Max2SatInstance& instance) {
  CPDB_ASSIGN_OR_RETURN(std::vector<ResultWorld> worlds,
                        EnumerateQueryResultWorlds(instance));
  AndXorTree tree;
  std::vector<NodeId> branches;
  std::vector<double> probs;
  double score = 1.0;
  for (const ResultWorld& w : worlds) {
    std::vector<NodeId> leaves;
    for (int c : w.satisfied_clauses) {
      TupleAlternative alt;
      alt.key = c;
      alt.score = score;
      score += 1.0;
      leaves.push_back(tree.AddLeaf(alt));
    }
    if (leaves.empty()) {
      // An assignment satisfying no clause contributes leftover probability
      // (the empty world) rather than a branch.
      continue;
    }
    branches.push_back(leaves.size() == 1 ? leaves[0]
                                          : tree.AddAnd(std::move(leaves)));
    probs.push_back(w.prob);
  }
  if (branches.empty()) {
    return Status::Infeasible("no clause is ever satisfied");
  }
  tree.SetRoot(tree.AddXor(std::move(branches), std::move(probs)));
  CPDB_RETURN_NOT_OK(tree.Validate());
  return tree;
}


Max2SatInstance PaperStyleInstance() {
  // (x0 or !x1), (x1 or x2), (!x0 or !x2), (x0 or x2)
  Max2SatInstance instance;
  instance.num_vars = 3;
  instance.clauses = {
      {0, true, 1, false},
      {1, true, 2, true},
      {0, false, 2, false},
      {0, true, 2, true},
  };
  return instance;
}

TEST(HardnessTest, ClauseSatisfaction) {
  TwoSatClause c{0, true, 1, false};
  EXPECT_TRUE(ClauseSatisfied(c, {true, true}));
  EXPECT_TRUE(ClauseSatisfied(c, {false, false}));
  EXPECT_FALSE(ClauseSatisfied(c, {false, true}));
}

TEST(HardnessTest, BruteForceOnSatisfiableInstance) {
  auto best = BruteForceMax2Sat(PaperStyleInstance());
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(*best, 4);  // x0=1, x1=1, x2=0 satisfies all four
}

TEST(HardnessTest, BruteForceOnContradiction) {
  // (x0)(x0) vs (!x0)(!x0): at most 2 of 4 "clauses" hold (unit clauses
  // encoded by repeating the literal).
  Max2SatInstance instance;
  instance.num_vars = 1;
  instance.clauses = {
      {0, true, 0, true},
      {0, true, 0, true},
      {0, false, 0, false},
      {0, false, 0, false},
  };
  auto best = BruteForceMax2Sat(instance);
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(*best, 2);
}

TEST(HardnessTest, ResultWorldsFormADistribution) {
  auto worlds = EnumerateQueryResultWorlds(PaperStyleInstance());
  ASSERT_TRUE(worlds.ok());
  double total = 0.0;
  for (const ResultWorld& w : *worlds) total += w.prob;
  EXPECT_NEAR(total, 1.0, 1e-12);
  // Every 2-clause holds with marginal 3/4 over uniform assignments.
  std::vector<double> marginal(4, 0.0);
  for (const ResultWorld& w : *worlds) {
    for (int c : w.satisfied_clauses) marginal[static_cast<size_t>(c)] += w.prob;
  }
  for (double m : marginal) EXPECT_NEAR(m, 0.75, 1e-12);
}

TEST(HardnessTest, MedianRecoversMax2SatOptimum) {
  // The paper's reduction: median answer = maximum satisfiable clause set.
  for (const Max2SatInstance& instance :
       {PaperStyleInstance(), [] {
          Max2SatInstance hard;
          hard.num_vars = 4;
          hard.clauses = {
              {0, true, 1, true},   {0, false, 1, false},
              {2, true, 3, false},  {2, false, 3, true},
              {0, true, 3, true},   {1, false, 2, true},
          };
          return hard;
        }()}) {
    auto median = MedianQueryResult(instance);
    auto best = BruteForceMax2Sat(instance);
    ASSERT_TRUE(median.ok());
    ASSERT_TRUE(best.ok());
    EXPECT_EQ(static_cast<int>(median->size()), *best);
  }
}

TEST(HardnessTest, RandomInstancesAgree) {
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    Max2SatInstance instance;
    instance.num_vars = 3 + static_cast<int>(rng.UniformInt(0, 2));
    int num_clauses = 3 + static_cast<int>(rng.UniformInt(0, 4));
    for (int c = 0; c < num_clauses; ++c) {
      TwoSatClause clause;
      clause.var1 = static_cast<int>(rng.UniformInt(0, instance.num_vars - 1));
      // Distinct variables keep every clause marginal at exactly 3/4, which
      // the reduction's counting argument relies on.
      do {
        clause.var2 =
            static_cast<int>(rng.UniformInt(0, instance.num_vars - 1));
      } while (clause.var2 == clause.var1);
      clause.positive1 = rng.Bernoulli(0.5);
      clause.positive2 = rng.Bernoulli(0.5);
      instance.clauses.push_back(clause);
    }
    auto median = MedianQueryResult(instance);
    auto best = BruteForceMax2Sat(instance);
    ASSERT_TRUE(median.ok());
    ASSERT_TRUE(best.ok());
    EXPECT_EQ(static_cast<int>(median->size()), *best) << "trial " << trial;
  }
}

TEST(HardnessTest, QueryResultTreeMatchesDistribution) {
  Max2SatInstance instance = PaperStyleInstance();
  auto tree = BuildQueryResultTree(instance);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  auto tree_worlds = EnumerateWorlds(*tree);
  ASSERT_TRUE(tree_worlds.ok());
  auto result_worlds = EnumerateQueryResultWorlds(instance);
  ASSERT_TRUE(result_worlds.ok());

  // Key marginals of the tree equal the clause marginals (0.75 each).
  for (int c = 0; c < 4; ++c) {
    EXPECT_NEAR(tree->KeyMarginal(c), 0.75, 1e-12);
  }
}

TEST(HardnessTest, LeafLevelMedianIsADifferentProblem) {
  // The tree's leaf-level median DP is tractable, but each duplicated leaf
  // has a small marginal (below 1/2), so the leaf-level objective is
  // minimized by small worlds — unlike the key-level median that recovers
  // MAX-2-SAT. This documents why Corollary 1 does not contradict the
  // NP-hardness of the reduction.
  Max2SatInstance instance = PaperStyleInstance();
  auto tree = BuildQueryResultTree(instance);
  ASSERT_TRUE(tree.ok());
  std::vector<NodeId> leaf_median = MedianWorldSymDiff(*tree);
  auto key_median = MedianQueryResult(instance);
  ASSERT_TRUE(key_median.ok());
  EXPECT_LT(leaf_median.size(), key_median->size());
}

TEST(HardnessTest, RejectsOversizedInstances) {
  Max2SatInstance instance;
  instance.num_vars = 25;
  EXPECT_FALSE(BruteForceMax2Sat(instance).ok());
  instance.num_vars = 2;
  instance.clauses = {{0, true, 5, true}};
  EXPECT_FALSE(BruteForceMax2Sat(instance).ok());
}

}  // namespace
}  // namespace cpdb
