// Copyright 2026 The ConsensusDB Authors
//
// Possible-worlds estimators: the definitions the closed-form expected
// distances are checked against. Each expectation is computed two ways
// from one per-world distance:
//
//   * Enum* — exactly, by exhaustive world enumeration (exponential; small
//     instances only);
//   * Mc* — without bias, by sampling worlds, with a standard error and a
//     normal-approximation confidence interval (any instance).
//
// Linked only into the test and bench binaries (the cpdb_oracle target).

#ifndef CPDB_ORACLE_WORLD_ESTIMATORS_H_
#define CPDB_ORACLE_WORLD_ESTIMATORS_H_

#include <functional>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "core/clustering.h"
#include "core/topk_metrics.h"
#include "model/and_xor_tree.h"

namespace cpdb {

/// \brief A Monte-Carlo estimate with uncertainty.
struct McEstimate {
  double mean = 0.0;
  double std_error = 0.0;
  int samples = 0;

  double ci95_low() const { return mean - 1.96 * std_error; }
  double ci95_high() const { return mean + 1.96 * std_error; }

  /// \brief True iff `value` lies inside the central interval of
  /// `z` standard errors.
  bool Covers(double value, double z = 3.0) const {
    return value >= mean - z * std_error && value <= mean + z * std_error;
  }
};

/// \brief Estimates E[f(pw)] from `num_samples` sampled worlds; `f` maps a
/// world's sorted leaf ids to a real value. Welford's online variance gives
/// std_error = sqrt(m2 / ((n - 1) n)), 0 for fewer than two samples.
McEstimate EstimateOverWorlds(
    const AndXorTree& tree, int num_samples, Rng* rng,
    const std::function<double(const std::vector<NodeId>&)>& f);

/// \brief Set-level metrics over leaf-id sets.
enum class SetMetric { kSymDiff, kJaccard };

/// \brief Pairwise-disagreement distance between two clusterings over the
/// same key universe.
double ClusteringDistance(const ClusteringAnswer& a, const ClusteringAnswer& b);

/// \brief E[d(answer, topk(pw))] by exhaustive enumeration.
Result<double> EnumExpectedTopKDistance(const AndXorTree& tree,
                                        const std::vector<KeyId>& answer,
                                        int k, TopKMetric metric,
                                        size_t max_worlds = 1 << 20);

/// \brief E[d(world, pw)] by exhaustive enumeration; `world` holds sorted
/// leaf NodeIds.
Result<double> EnumExpectedSetDistance(const AndXorTree& tree,
                                       const std::vector<NodeId>& world,
                                       SetMetric metric,
                                       size_t max_worlds = 1 << 20);

/// \brief E[d(answer, clustering(pw))] by exhaustive enumeration, with the
/// paper's absent-keys-share-a-cluster convention.
Result<double> EnumExpectedClusteringDistance(const AndXorTree& tree,
                                              const ClusteringAnswer& answer,
                                              size_t max_worlds = 1 << 20);

/// \brief E[d(answer, topk(pw))] by sampling.
McEstimate McExpectedTopKDistance(const AndXorTree& tree,
                                  const std::vector<KeyId>& answer, int k,
                                  TopKMetric metric, int num_samples,
                                  Rng* rng);

/// \brief E[d(world, pw)] by sampling; `world` holds sorted leaf NodeIds.
McEstimate McExpectedSetDistance(const AndXorTree& tree,
                                 const std::vector<NodeId>& world,
                                 SetMetric metric, int num_samples, Rng* rng);

}  // namespace cpdb

#endif  // CPDB_ORACLE_WORLD_ESTIMATORS_H_
