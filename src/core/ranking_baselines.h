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

#include "common/result.h"
#include "common/rng.h"
#include "core/rank_distribution.h"
#include "model/and_xor_tree.h"

namespace cpdb {

/// \brief E[score contribution] per key: sum over alternatives of
/// Pr(alternative) * score. Returns the k keys with the largest values.
std::vector<KeyId> TopKByExpectedScore(const AndXorTree& tree, int k);

/// \brief Expected ranks: E[r(t)] with an absent tuple ranked at |pw| + 1
/// (the bottom of the realized world). Closed form via pairwise presence
/// probabilities; O(L^2 * depth) for L leaves. Indexed like tree.Keys().
std::vector<double> ExpectedRanks(const AndXorTree& tree);

/// \brief One entry of ExpectedRanks: E[r(key)], given `marginal` =
/// tree.LeafMarginals(). Keys are independent units, which is how
/// Engine::ExpectedRanks fans them across its pool.
double ExpectedRankOfKey(const AndXorTree& tree,
                         const std::vector<double>& marginal, KeyId key);

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

/// \brief U-Top-k: the Top-k *list* with the highest probability of being
/// the realized Top-k answer, via exhaustive world enumeration (exact;
/// fails on instances with more than `max_worlds` worlds).
Result<std::vector<KeyId>> UTopKExact(const AndXorTree& tree, int k,
                                      size_t max_worlds = 1 << 20);

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
