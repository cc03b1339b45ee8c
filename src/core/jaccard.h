// Copyright 2026 The ConsensusDB Authors
//
// Consensus worlds under the Jaccard distance (Section 4.2 of the paper).
// Lemma 1 computes E[d_J(W, pw)] for a fixed world W through a bivariate
// generating function (x tags the leaves of W, y the others); Lemma 2 shows
// the mean world of a tuple-independent database is a prefix of the tuples
// sorted by probability, which the algorithms below scan exhaustively.

#ifndef CPDB_CORE_JACCARD_H_
#define CPDB_CORE_JACCARD_H_

#include <vector>

#include "common/result.h"
#include "model/and_xor_tree.h"

namespace cpdb {

/// \brief Lemma 1: E[d_J(W, pw)] for a fixed leaf set W, exactly, via the
/// bivariate generating function; O(L * |W| * (L - |W|)) for L leaves.
double ExpectedJaccardDistance(const AndXorTree& tree,
                               const std::vector<NodeId>& world);

/// \brief True iff the tree is a tuple-independent table: an AND (or a
/// single XOR) of single-leaf XOR blocks with one alternative per key.
bool IsTupleIndependent(const AndXorTree& tree);

/// \brief True iff the tree is block-independent-disjoint: an AND (or a
/// single XOR) of XOR blocks whose children are leaves.
bool IsBlockIndependent(const AndXorTree& tree);

/// \brief Lemma 2 algorithm: the mean world under Jaccard distance of a
/// tuple-independent database. Sorts tuples by probability descending and
/// returns the prefix with the smallest expected distance. For
/// tuple-independent databases every subset is a possible world, so this is
/// simultaneously the median world.
Result<std::vector<NodeId>> MeanWorldJaccard(const AndXorTree& tree);

/// \brief Median world under Jaccard distance for a BID table: considers,
/// per block, only the highest-probability alternative (per the paper), and
/// scans prefixes of the blocks sorted by that probability.
Result<std::vector<NodeId>> MedianWorldJaccardBid(const AndXorTree& tree);

}  // namespace cpdb

#endif  // CPDB_CORE_JACCARD_H_
