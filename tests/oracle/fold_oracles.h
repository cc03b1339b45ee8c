// Copyright 2026 The ConsensusDB Authors
//
// Test oracles for the generating-function statistics. The library computes
// every one of them with the compiled FlatTree fold; the forms here are the
// references the differential suites compare it against:
//
//   * the per-leaf rank contribution as one full fold per leaf, pointer and
//     flat — the unit RankDistributionScan's incremental refolds must
//     reproduce bit for bit;
//   * pointer-fold forms (EvalGeneratingFunction over the AndXorTree) of
//     the rank distribution, the Kendall q statistic, Lemma 1's expected
//     Jaccard distance and clustering's co-clustering probability w_ij —
//     each bitwise the flat path, because both folds run the same kernels
//     in the same order;
//   * the pairwise order probability Pr(r(u) < r(v)), which no production
//     path needs (Kendall answers run on the q statistic), checked against
//     enumeration and between the two folds.
//
// Linked only into the test and bench binaries (the cpdb_oracle target).

#ifndef CPDB_ORACLE_FOLD_ORACLES_H_
#define CPDB_ORACLE_FOLD_ORACLES_H_

#include <vector>

#include "core/rank_distribution.h"
#include "model/and_xor_tree.h"
#include "model/flat_tree.h"

namespace cpdb {

/// \brief Pointer-fold LeafRankContribution: entry i (size k + 1, entry 0
/// unused) is Pr(`target` is present and ranked i-th). Bitwise the flat
/// LeafRankContribution at the target's leaf-table index.
std::vector<double> LeafRankContribution(const AndXorTree& tree, NodeId target,
                                         int k);

/// \brief LeafRankContribution as one full flat fold over the leaf table:
/// `target` indexes flat.leaves(). Bitwise the pointer form at
/// LeafIds()[target], and bitwise each query of RankDistributionScan.
std::vector<double> LeafRankContribution(const FlatTree& flat, int target,
                                         int k);

/// \brief Pointer-fold ComputeRankDistribution: per-leaf contributions
/// accumulated in LeafIds() order (the flat leaf-table order), so every
/// output bit matches the library's flat path.
RankDistribution ComputeRankDistributionPointer(const AndXorTree& tree, int k);

/// \brief Pr(r(t_u) < r(t_v)): key u ranks strictly ahead of key v (v
/// absent counts as rank infinity). One flat fold per alternative of u.
double PrRanksBefore(const FlatTree& flat, KeyId u, KeyId v);

/// \brief PrRanksBefore over a freshly compiled tree.
double PrRanksBefore(const AndXorTree& tree, KeyId u, KeyId v);

/// \brief Pointer-fold PrRanksBefore; bitwise the flat form.
double PrRanksBeforePointer(const AndXorTree& tree, KeyId u, KeyId v);

/// \brief Pointer-fold q(u, t) = Pr(r(u) <= k and r(u) < r(t)); bitwise
/// KendallQColumn's cell.
double PrInTopKAndBefore(const AndXorTree& tree, KeyId u, KeyId t, int k);

/// \brief Pointer-fold Lemma 1 E[d_J(W, pw)]; bitwise
/// ExpectedJaccardDistance.
double ExpectedJaccardDistancePointer(const AndXorTree& tree,
                                      const std::vector<NodeId>& world);

/// \brief Pointer-fold co-clustering probability w_ij of keys ki and kj;
/// bitwise ClusteringProblem::FromTree's W on trees that are not
/// block-independent (those take the closed form).
double PairCoClusterPointer(const AndXorTree& tree, KeyId ki, KeyId kj);

}  // namespace cpdb

#endif  // CPDB_ORACLE_FOLD_ORACLES_H_
