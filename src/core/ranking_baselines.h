// Copyright 2026 The ConsensusDB Authors
//
// The previously proposed Top-k semantics that the paper positions its
// consensus framework against (Sections 1-2): expected score, expected rank
// (Cormode et al.), probabilistic threshold PT-k (Hua et al.), Global Top-k
// (Zhang-Chomicki), U-Top-k (Soliman et al.), and the parameterized ranking
// functions PRF (Li-Saha-Deshpande). These power the semantics-comparison
// experiment (E12): each baseline's answer is scored under the consensus
// objectives E[d_Delta], E[d_I], E[d_F].

#ifndef CPDB_CORE_RANKING_BASELINES_H_
#define CPDB_CORE_RANKING_BASELINES_H_

#include <vector>

#include "common/rng.h"
#include "core/rank_distribution.h"
#include "model/and_xor_tree.h"

namespace cpdb {

/// \brief E[score contribution] per key: sum over alternatives of
/// Pr(alternative) * score. Returns the k keys with the largest values.
std::vector<KeyId> TopKByExpectedScore(const AndXorTree& tree, int k);

/// \brief Expected ranks: E[r(t)] with an absent tuple ranked at |pw| + 1
/// (the bottom of the realized world). Indexed like tree.Keys().
///
/// Closed form over conditional presence counts: with C_S(a) =
/// sum over leaves l in S, l != a, of Pr(l | a),
///   E[r(t)] = 1 + (sum_l Pr(l) - Pr(t))
///             + sum_{a in t} Pr(a) (C_above(a) - C_all(a)),
/// where "above" means scoring strictly higher than a. Key-mates of a add
/// nothing to either count: their LCA with a is a XOR node. Given a, the
/// leaves under a XOR ancestor's other children are absent and those under
/// an AND ancestor's other children keep their own conditional counts, so
/// C_S(a) sums, over a's AND ancestors v, v's count minus that of its child
/// on a's path. One walk over the leaves in descending score, one tie group
/// at a time, keeps those per-node counts of the leaves inserted so far
/// (inserting a leaf carries 1 up its root path, scaled by each XOR edge it
/// crosses); each group is queried before it is inserted (C_above), every
/// leaf once more at the end (C_all). O(L * depth) for L leaves.
std::vector<double> ExpectedRanks(const AndXorTree& tree);

/// \brief The k keys with the smallest expected rank.
std::vector<KeyId> TopKByExpectedRank(const AndXorTree& tree, int k);

/// \brief TopKByExpectedRank with the expected ranks supplied (`ranks`
/// indexed like `keys`, i.e. the ExpectedRanks layout). Exists so a caller
/// holding a precomputed vector — Engine::ExpectedRanks, the serve path —
/// ranks without recomputing; TopKByExpectedRank is ExpectedRanks + this.
std::vector<KeyId> TopKByExpectedRankFromRanks(const std::vector<KeyId>& keys,
                                               const std::vector<double>& ranks,
                                               int k);

/// \brief PT-k (probabilistic threshold): all keys with
/// Pr(r(t) <= k) >= threshold, ordered by that probability descending.
/// Note: unlike the consensus answers this may return any number of tuples.
std::vector<KeyId> ProbabilisticThresholdTopK(const RankDistribution& dist,
                                              double threshold);

/// \brief Global Top-k: the k keys with the largest Pr(r(t) <= k). Theorem 3
/// of the paper shows this equals the mean Top-k answer under d_Delta.
std::vector<KeyId> GlobalTopK(const RankDistribution& dist);

/// \brief Monte-Carlo U-Top-k: the most frequent Top-k list across
/// `num_samples` sampled worlds.
std::vector<KeyId> UTopKSampled(const AndXorTree& tree, int k,
                                int num_samples, Rng* rng);

/// \brief Parameterized ranking function PRF-omega: Upsilon_w(t) =
/// sum_{i=1..k} w[i-1] * Pr(r(t) = i); returns the k keys with the largest
/// values. With w[i-1] = H_k - H_{i-1} this is the paper's Upsilon_H.
std::vector<KeyId> TopKByPRF(const RankDistribution& dist,
                             const std::vector<double>& weights);

/// \brief The paper's Upsilon_H weight vector for cutoff k:
/// w[i-1] = H_k - H_{i-1} with H_0 = 0, H_j = sum_{m=1..j} 1/m. Computed
/// in one fixed accumulation order, so every caller (offline CLI, serve
/// path) derives the bitwise-identical vector.
std::vector<double> PrfUpsilonHWeights(int k);

}  // namespace cpdb

#endif  // CPDB_CORE_RANKING_BASELINES_H_
