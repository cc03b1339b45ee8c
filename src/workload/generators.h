// Copyright 2026 The ConsensusDB Authors
//
// Synthetic workload generators. The paper evaluates nothing empirically
// (pure theory), so these generators define the instance families used by
// our benchmark harness and randomized property tests:
//  * deep random and/xor trees exercising the full correlation model;
//  * group-by matrices with Zipf-skewed label distributions.
// The tuple-independent and BID table generators, which only tests and
// benches draw, live with the test oracles (tests/oracle/table_generators.h).
//
// All scores generated within one instance are globally distinct, matching
// the paper's tie-free assumption (Section 5); every generator draws them
// from a ScorePool.

#ifndef CPDB_WORKLOAD_GENERATORS_H_
#define CPDB_WORKLOAD_GENERATORS_H_

#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "model/builders.h"

namespace cpdb {

/// \brief Hands out the globally distinct scores 1..capacity in random
/// order; each Next() returns one not handed out before.
class ScorePool {
 public:
  ScorePool(int capacity, Rng* rng);
  double Next();

 private:
  std::vector<int> scores_;
};

/// \brief Options for random tree generation.
struct RandomTreeOptions {
  /// Number of distinct keys (probabilistic tuples).
  int num_keys = 16;
  /// Max alternatives per key for block generators.
  int max_alternatives = 3;
  /// Max nesting depth for RandomAndXorTree.
  int max_depth = 4;
  /// Probability that an inner node of RandomAndXorTree is a XOR node.
  double xor_prob = 0.5;
  /// Lower bound on the mass assigned at XOR nodes (leftover is absence).
  double min_xor_mass = 0.5;
};

/// \brief A random deep and/xor tree over `opts.num_keys` keys.
///
/// AND nodes partition their key set between children (key constraint);
/// XOR children redraw structure over the same key set, which creates the
/// strong cross-tuple correlations that only the and/xor model captures.
Result<AndXorTree> RandomAndXorTree(const RandomTreeOptions& opts, Rng* rng);

/// \brief An n-by-m group-by matrix: row i gives tuple i's label
/// distribution (row sums <= 1; leftover is absence with probability
/// `absence_prob` on average). `zipf_theta` skews label popularity.
std::vector<std::vector<double>> RandomGroupByMatrix(int num_tuples,
                                                     int num_groups,
                                                     double zipf_theta,
                                                     double absence_prob,
                                                     Rng* rng);

}  // namespace cpdb

#endif  // CPDB_WORKLOAD_GENERATORS_H_
