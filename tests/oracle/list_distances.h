// Copyright 2026 The ConsensusDB Authors
//
// Distances between two lists or two worlds, the per-world distances the
// possible-worlds estimators (oracle/world_estimators.h) average:
//   * the Top-k list distances of Section 5 (Fagin, Kumar, Sivakumar:
//     "Comparing top k lists", SIAM J. Discrete Math 2003): normalized
//     symmetric difference d_Delta (membership only), the intersection
//     metric d_I (prefix-averaged d_Delta), the Spearman footrule with
//     location parameter k+1, F^(k+1), and Kendall tau K^(0), pairs whose
//     order provably disagrees in every pair of full-ranking extensions;
//   * the Jaccard distance of Section 4.2 between two worlds.
// The library computes expectations of these distances in closed form and
// never one pair's distance, so they are test oracles.
//
// Top-k lists are sequences of distinct keys in rank order; they may be
// shorter than k (a possible world can have fewer than k tuples).
//
// Linked only into the test and bench binaries (the cpdb_oracle target).

#ifndef CPDB_ORACLE_LIST_DISTANCES_H_
#define CPDB_ORACLE_LIST_DISTANCES_H_

#include <vector>

#include "core/topk_metrics.h"
#include "model/and_xor_tree.h"
#include "model/types.h"

namespace cpdb {

/// \brief d(a, b) under `metric` — the single distance dispatch, called only
/// by the test oracles and the differential suite. Unknown enums return 0.
double TopKListDistance(const std::vector<KeyId>& a,
                        const std::vector<KeyId>& b, int k, TopKMetric metric);

/// \brief The normalized symmetric difference d_Delta(a, b) =
/// (1/2k) |a Δ b| over the key sets (Section 5.2); order within the lists
/// is ignored, so this is the pure membership distance. Range [0, 1].
///
/// Complexity: O((|a| + |b|) log(|a| + |b|)) via ordered-set
/// membership.
double TopKSymmetricDifference(const std::vector<KeyId>& a,
                               const std::vector<KeyId>& b, int k);

/// \brief The intersection metric d_I(a, b) =
/// (1/k) sum_{i=1..k} (1/2i) |a^i Δ b^i| where x^i is the length-min(i,|x|)
/// prefix (Section 5.3): a prefix-averaged d_Delta, so agreement near the
/// top of the lists counts more. Range [0, 1].
///
/// Complexity: O(k^2 log k) (each of the k prefixes is diffed
/// independently).
double TopKIntersectionDistance(const std::vector<KeyId>& a,
                                const std::vector<KeyId>& b, int k);

/// \brief The Spearman footrule with location parameter k+1, F^(k+1)(a, b)
/// (Section 5.4): every key of a ∪ b contributes |pos_a - pos_b| with keys
/// missing from a list placed at position k+1. A true metric on Top-k
/// lists; range [0, k(k+1)].
///
/// Complexity: O((|a| + |b|) log(|a| + |b|)).
double TopKFootrule(const std::vector<KeyId>& a, const std::vector<KeyId>& b,
                    int k);

/// \brief The Kendall distance K^(0)(a, b) (Section 5.5): the number of
/// unordered pairs {t, u} of a ∪ b whose relative order provably differs in
/// every pair of full rankings extending a and b — the optimistic variant,
/// so pairs whose order is unconstrained by either list cost nothing.
/// Range [0, k^2].
///
/// Complexity: O(m^2 log m) for m = |a ∪ b| <= 2k pair enumeration.
double TopKKendall(const std::vector<KeyId>& a, const std::vector<KeyId>& b,
                   int k);

/// \brief d_J(S1, S2) = |S1 Δ S2| / |S1 ∪ S2| over leaf-id sets
/// (d_J(∅, ∅) = 0). Inputs must be sorted.
double JaccardDistance(const std::vector<NodeId>& s1,
                       const std::vector<NodeId>& s2);

}  // namespace cpdb

#endif  // CPDB_ORACLE_LIST_DISTANCES_H_
