// Copyright 2026 The ConsensusDB Authors
//
// Consensus Top-k answers under the (normalized) symmetric difference metric
// d_Delta (Section 5.2 of the paper).
//
// Mean answer (Theorem 3): the k tuples with the largest Pr(r(t) <= k) —
// this is exactly a probabilistic-threshold (PT-k) query with the threshold
// calibrated to return k tuples, and coincides with Global Top-k semantics.
//
// Median answer (Theorem 4): the Top-k answer of some positive-probability
// world maximizing sum_{t in answer} Pr(r(t) <= k), found by a score-
// threshold dynamic program over the and/xor tree, run as one score-ordered
// scan (see the end of this file). We extend the paper's
// algorithm to also consider worlds with fewer than k tuples (the paper
// implicitly assumes |pw| >= k): over variable-size candidates the uniform
// objective is maximizing sum_{t} (Pr(r(t) <= k) - 1/2).

#ifndef CPDB_CORE_TOPK_SYMDIFF_H_
#define CPDB_CORE_TOPK_SYMDIFF_H_

#include <vector>

#include "common/result.h"
#include "core/rank_distribution.h"
#include "model/and_xor_tree.h"

namespace cpdb {

/// \brief A consensus Top-k answer plus its expected distance.
struct TopKResult {
  /// Answer keys in rank order.
  std::vector<KeyId> keys;
  /// E[d(answer, topk(pw))] under the metric of the producing algorithm.
  double expected_distance = 0.0;
};

/// \brief E[d_Delta(answer, topk(pw))] =
/// (|answer| + sum_t Pr(r(t)<=k) - 2 sum_{t in answer} Pr(r(t)<=k)) / (2k).
double ExpectedTopKSymDiff(const RankDistribution& dist,
                           const std::vector<KeyId>& answer);

/// \brief Theorem 3: the mean Top-k answer under d_Delta, ordered by
/// Pr(r(t) <= k) descending. Following the paper, the answer has size
/// exactly k (Omega = sorted lists of size k).
TopKResult MeanTopKSymDiff(const RankDistribution& dist);

/// \brief The size-unrestricted mean answer under d_Delta: all tuples with
/// Pr(r(t) <= k) > 1/2 (the Theorem 2 form applied to Top-k membership).
/// When worlds smaller than k have positive probability this can strictly
/// beat the size-k mean — see DESIGN.md section 4b and experiment E5/E6.
TopKResult MeanTopKSymDiffUnrestricted(const RankDistribution& dist);

/// \brief Theorem 4: a median Top-k answer under d_Delta for an and/xor
/// tree; `dist` must come from ComputeRankDistribution(tree, k).
/// The answer is ordered by tuple score descending (its rank order in the
/// witnessing world). InvalidArgument on an empty tree; Infeasible when no
/// world yields a candidate (every world holds k or more tuples, and ties
/// at the k-th score leave no world whose tuples above a threshold number
/// exactly k).
Result<TopKResult> MedianTopKSymDiff(const AndXorTree& tree,
                                     const RankDistribution& dist);

// -- The score-ordered scan behind MedianTopKSymDiff -----------------------
//
// Theorem 4's candidates come in strata: one per distinct leaf score t (the
// size-k worlds of the tree pruned to the leaves scoring >= t, which are
// the Top-k answers of realizable worlds), plus one stratum of whole worlds
// smaller than k. A threshold stratum is a size-capped max-value DP over
// the pruned tree, and the leaves active at threshold t are those active at
// the next score up plus the tie group scoring t. So the search runs one
// DP with every leaf pruned and walks the leaves once in descending score,
// one tie group at a time. Activating a leaf recomputes its own row and,
// on each ancestor, a XOR node's row or an AND node's max-plus prefix rows
// from the child on the path onward. Each row is recomputed by the same
// per-node step the full DP runs and is a pure function of its inputs, so
// after a tie group the root's size-k cell is bitwise what a full DP at
// that threshold reads (it is read when at least k leaves are active).
//
// The small-world stratum is one full DP over the unpruned tree with
// centered values Pr(r(t) <= k) - 1/2. The winner is the first improvement
// by more than 1e-9 in a fixed order, thresholds ascending and then the
// small-world sizes ascending, and its leaves are reconstructed from one
// full DP at the winning threshold (or from the small-world DP). The scan
// costs O(L * depth * fan-in * k^2) for L leaves, where one full DP per
// distinct score cost O(distinct scores * N * k^2).

}  // namespace cpdb

#endif  // CPDB_CORE_TOPK_SYMDIFF_H_
