// Copyright 2026 The ConsensusDB Authors
//
// Consensus worlds under the symmetric difference distance (Section 4.1).
// The mean world is the set of tuple alternatives with marginal probability
// above 1/2 (Theorem 2). For and/xor trees the paper's Corollary 1 states
// the same set is realizable as a possible world; we implement the median
// as an exact min-cost dynamic program over the tree, which also resolves
// the probability-exactly-1/2 tie cases where the literal {p > 1/2} set can
// have probability zero (e.g. a XOR with two 0.5 children).

#ifndef CPDB_CORE_SET_CONSENSUS_H_
#define CPDB_CORE_SET_CONSENSUS_H_

#include <vector>

#include "model/and_xor_tree.h"

namespace cpdb {

/// \brief E[d_Delta(S, pw)] for a fixed leaf set S: each leaf in S
/// contributes Pr(absent), each leaf outside contributes Pr(present). The
/// objective both consensus answers below minimize — over all sets for the
/// mean, over possible worlds for the median.
///
/// Complexity: O(L) for L leaves, after the O(N)-node marginal pass.
double ExpectedSymDiffDistance(const AndXorTree& tree,
                               const std::vector<NodeId>& world);

/// \brief The mean world under symmetric difference (Theorem 2): all leaves
/// with marginal probability > 1/2, as sorted NodeIds.
///
/// Paper semantics: the *mean* answer minimizes E[d_Delta(S, pw)] over
/// arbitrary leaf sets S — the set analogue of an expected value, and NOT
/// necessarily a realizable world (contrast MedianWorldSymDiff). It keeps
/// exactly the tuples more likely present than absent, the set-consensus
/// analogue of ranking by expected rank rather than by the single most
/// probable outcome.
///
/// Complexity: O(N) for N tree nodes (one marginal pass plus a filter).
std::vector<NodeId> MeanWorldSymDiff(const AndXorTree& tree);

/// \brief The median world under symmetric difference (Corollary 1): a
/// possible world (positive probability) minimizing the expected distance.
///
/// Paper semantics: the *median* answer constrains the minimizer to the
/// support of the distribution — a realizable ("most central", not
/// most-probable) world. By Corollary 1 its objective value coincides with
/// the unrestricted mean on and/xor trees, but ties at probability exactly
/// 1/2 can force a different witness set.
///
/// Exact for every and/xor tree via a min-cost DP: minimizing
/// E[d_Delta(S, pw)] = sum_l Pr(l) + sum_{l in S} (1 - 2 Pr(l)) over possible
/// worlds S decomposes over the tree (AND sums children minima; XOR takes
/// the cheapest positive-probability option, including "nothing" when the
/// leftover mass is positive).
///
/// Complexity: O(N) for N tree nodes (one bottom-up DP pass).
std::vector<NodeId> MedianWorldSymDiff(const AndXorTree& tree);

// -- Marginal-parameterized forms ------------------------------------------
//
// The three functions above each start from tree.LeafMarginals() — the only
// super-constant-per-leaf work on these O(N) paths. The variants below take
// the marginal vector (indexed by NodeId, as produced by LeafMarginals() or
// by the engine from a compiled FlatTree's leaf table) as an argument, so
// the engine can compute the per-leaf folds across its thread pool and keep
// the cheap filter / DP / sum on the calling thread. Each wrapper above is
// exactly `FromMarginals(tree, tree.LeafMarginals(), ...)`.

/// \brief MeanWorldSymDiff from precomputed leaf marginals.
std::vector<NodeId> MeanWorldSymDiffFromMarginals(
    const AndXorTree& tree, const std::vector<double>& marginal);

/// \brief MedianWorldSymDiff from precomputed leaf marginals.
std::vector<NodeId> MedianWorldSymDiffFromMarginals(
    const AndXorTree& tree, const std::vector<double>& marginal);

/// \brief ExpectedSymDiffDistance from precomputed leaf marginals.
double ExpectedSymDiffDistanceFromMarginals(
    const AndXorTree& tree, const std::vector<double>& marginal,
    const std::vector<NodeId>& world);

}  // namespace cpdb

#endif  // CPDB_CORE_SET_CONSENSUS_H_
