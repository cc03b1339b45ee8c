// Copyright 2026 The ConsensusDB Authors
//
// Test oracles for the score-ordered solve tails. The library computes the
// Theorem 4 symdiff median and the expected ranks with one walk over the
// leaves in descending score that updates only the root paths of the
// leaves it activates (core/topk_symdiff.h, core/ranking_baselines.h); the
// forms here are the references the differential suites compare it
// against:
//
//   * the per-stratum median search: one full size-capped max-value DP per
//     distinct leaf score plus the small-world DP, merged by first
//     improvement. The scan runs the same per-node arithmetic, so the two
//     agree bitwise on keys and expected_distance;
//   * the expected ranks as the O(L^2) pair loop over pairwise presence
//     probabilities, within a few ulps of the scan (exact on trees whose
//     edge probabilities are dyadic), and the pairwise presence
//     probability itself, with the single-leaf marginal walk it starts
//     from.
//
// Linked only into the test and bench binaries (the cpdb_oracle target).

#ifndef CPDB_ORACLE_TAIL_ORACLES_H_
#define CPDB_ORACLE_TAIL_ORACLES_H_

#include <vector>

#include "common/result.h"
#include "core/rank_distribution.h"
#include "core/topk_symdiff.h"
#include "model/and_xor_tree.h"

namespace cpdb {

/// \brief MedianTopKSymDiff as the per-stratum search: one full DP per
/// distinct leaf score (ascending), then the small-world DP, merged by first
/// improvement. `winning_stratum`, when non-null, receives the winner's
/// stratum: an index into the ascending distinct scores, their count for
/// the small-world stratum, or -1 when no stratum yields a candidate.
Result<TopKResult> MedianTopKSymDiffByStrata(const AndXorTree& tree,
                                             const RankDistribution& dist,
                                             int* winning_stratum = nullptr);

/// \brief Pr(`leaf` present) for a single leaf: the product of the up-edge
/// probabilities (tree.up_edge) along the parent chain, multiplied top-down —
/// the accumulation order of tree.LeafMarginals()'s DFS, so the value is
/// bitwise LeafMarginals()[leaf] (AND edges multiply by an exact 1.0).
/// O(path length). Requires a validated tree.
double LeafMarginal(const AndXorTree& tree, NodeId leaf);

/// \brief Pr(both leaves present in the same world): 0 when their LCA is a
/// XOR node; otherwise the product of the XOR edge probabilities on the
/// union of the two root paths (shared part once), multiplied leaf1's edges
/// below the LCA, then leaf2's, then the LCA's path to the root. The
/// same-leaf case is LeafMarginal(tree, leaf1). Requires a validated tree.
double PairPresenceProbability(const AndXorTree& tree, NodeId leaf1,
                               NodeId leaf2);

/// \brief E[r(key)] by the pair loop: every (leaf of key, other leaf)
/// pair's presence probability; `marginal` = tree.LeafMarginals().
double ExpectedRankOfKey(const AndXorTree& tree,
                         const std::vector<double>& marginal, KeyId key);

/// \brief ExpectedRankOfKey for every key of tree.Keys(), in that order:
/// the reference for ExpectedRanks.
std::vector<double> ExpectedRanksByPairs(const AndXorTree& tree);

}  // namespace cpdb

#endif  // CPDB_ORACLE_TAIL_ORACLES_H_
