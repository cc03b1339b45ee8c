// Copyright 2026 The ConsensusDB Authors
//
// Consensus answers for group-by COUNT aggregate queries (Section 6.1 of the
// paper). An instance is n independent tuples with attribute-level
// uncertainty: tuple i takes group j with probability P[i][j] (rows may sum
// to less than 1; the leftover is absence). A deterministic answer is the
// m-vector of group counts; the distance is squared L2.
//
//  * Mean answer: the expectation vector r_bar = 1P (linearity); it
//    minimizes E[||r - x||^2] over all real vectors x.
//  * Median answer: must be a possible answer. The paper's Lemma 3 /
//    Theorem 5 find the possible vector closest to r_bar with a min-cost
//    flow; Corollary 2 shows it is a 4-approximation of the true median.
//    We model the per-group quadratic cost exactly with convex unit-edge
//    chains, so the returned vector is the exact closest possible vector.

#ifndef CPDB_CORE_AGGREGATES_H_
#define CPDB_CORE_AGGREGATES_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "model/and_xor_tree.h"

namespace cpdb {

/// \brief A group-by COUNT instance: probs[i][j] = Pr(tuple i takes group j).
/// Row sums must be <= 1 (leftover = tuple absent).
struct GroupByInstance {
  std::vector<std::vector<double>> probs;

  int num_tuples() const { return static_cast<int>(probs.size()); }
  int num_groups() const {
    return probs.empty() ? 0 : static_cast<int>(probs[0].size());
  }
};

/// \brief Validates shape and probability constraints.
Status ValidateGroupBy(const GroupByInstance& instance);

/// \brief Builds the label group-by COUNT instance from a tree's (key,
/// label) marginals: row per distinct key (ascending KeyId), column per
/// label 0..max_label, cell = the summed marginal probability of that
/// key's alternatives carrying that label. `leaf_marginals` must be
/// tree.LeafMarginals() or a bitwise-identical equivalent (the engine's
/// parallel form, a MarginalsCache entry) — the shared front half of the
/// offline `aggregate` command and the serve `op=aggregate` path, so the
/// two produce identical instances by construction. Fails when any
/// alternative lacks a label.
Result<GroupByInstance> GroupByInstanceFromTree(
    const AndXorTree& tree, const std::vector<double>& leaf_marginals);

/// \brief The mean answer r_bar: r_bar[j] = sum_i probs[i][j].
std::vector<double> MeanAggregate(const GroupByInstance& instance);

/// \brief E[||r - x||^2] for a fixed vector x, in closed form:
/// sum_j [ Var(r_j) + (r_bar_j - x_j)^2 ] with
/// Var(r_j) = sum_i p_ij (1 - p_ij) (tuples are independent).
double ExpectedSquaredDistance(const GroupByInstance& instance,
                               const std::vector<double>& x);

/// \brief The possible count vector closest to the mean answer (Lemma 3 /
/// Theorem 5), via min-cost flow with exact convex per-group costs. By
/// Corollary 2 this is a deterministic 4-approximation of the median answer.
Result<std::vector<int64_t>> ClosestPossibleAggregate(
    const GroupByInstance& instance);

}  // namespace cpdb

#endif  // CPDB_CORE_AGGREGATES_H_
