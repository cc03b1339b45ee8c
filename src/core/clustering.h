// Copyright 2026 The ConsensusDB Authors
//
// Consensus clustering over probabilistic databases (Section 6.2 of the
// paper). Two tuples are clustered together in a possible world iff they
// take the same (categorical) value for the uncertain attribute; keys absent
// from a world form one artificial cluster. The distance between two
// clusterings is the number of unordered pairs clustered together in one and
// separated in the other; the mean clustering minimizes the expected
// distance to the world-induced clustering.
//
// The expected distance depends only on the co-clustering probabilities
//   w_ij = sum_a Pr(i.A = a and j.A = a) + Pr(i absent and j absent),
// each computable with a two-coefficient generating function (Theorem 1).
// We implement the combinatorial pivot algorithm of Ailon-Charikar-Newman
// (the paper adapts their 4/3 LP algorithm; the LP-free pivot variant keeps
// the constant-factor guarantee), plus local search and an exact
// small-instance baseline.

#ifndef CPDB_CORE_CLUSTERING_H_
#define CPDB_CORE_CLUSTERING_H_

#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "model/and_xor_tree.h"

namespace cpdb {

/// \brief A clustering of the keys: cluster_of[i] is the cluster id of
/// keys()[i]; ids are arbitrary but equal ids mean "together".
struct ClusteringAnswer {
  std::vector<int> cluster_of;
};

/// \brief A consensus clustering instance: the keys and their pairwise
/// co-clustering probabilities.
class ClusteringProblem {
 public:
  /// Builds the instance from a validated tree. Every leaf must carry a
  /// non-negative label. Uses closed-form marginals on block-independent
  /// trees and generating functions otherwise.
  static Result<ClusteringProblem> FromTree(const AndXorTree& tree);

  const std::vector<KeyId>& keys() const { return keys_; }
  int num_keys() const { return static_cast<int>(keys_.size()); }

  /// \brief w_ij by key indices (positions in keys()).
  double W(int i, int j) const { return w_[static_cast<size_t>(i)][static_cast<size_t>(j)]; }

  /// \brief E[d(answer, clustering(pw))] =
  /// sum_{i<j} together(answer) ? (1 - w_ij) : w_ij.
  double Expected(const ClusteringAnswer& answer) const;

 private:
  std::vector<KeyId> keys_;
  std::vector<std::vector<double>> w_;
};

/// \brief ACN-style pivot clustering: repeatedly pick a random unclustered
/// pivot and absorb every unclustered j with w(pivot, j) >= 1/2.
ClusteringAnswer PivotClustering(const ClusteringProblem& problem, Rng* rng);

/// \brief Greedy local search: move single keys between clusters (or to a
/// fresh singleton) while the expected distance improves.
ClusteringAnswer LocalSearchClustering(const ClusteringProblem& problem,
                                       const ClusteringAnswer& start,
                                       int max_rounds = 100);

/// \brief The clustering induced by a possible world (same label together;
/// absent keys share one artificial cluster), expressed over problem.keys().
ClusteringAnswer ClusteringOfWorld(const AndXorTree& tree,
                                   const std::vector<KeyId>& problem_keys,
                                   const std::vector<NodeId>& world);

/// \brief Best-of-sampled-worlds heuristic: samples `num_samples` worlds and
/// keeps the induced clustering with the smallest expected distance.
ClusteringAnswer BestOfWorldsClustering(const AndXorTree& tree,
                                        const ClusteringProblem& problem,
                                        int num_samples, Rng* rng);

}  // namespace cpdb

#endif  // CPDB_CORE_CLUSTERING_H_
