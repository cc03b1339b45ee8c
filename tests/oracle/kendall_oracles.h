// Copyright 2026 The ConsensusDB Authors
//
// Test oracles for the Kendall tau answers of Section 5.5. Serve's kendall
// mean (Engine::ConsensusTopKWithDist) re-scores the footrule answer from
// the q columns of its own keys (core/topk_kendall.h); the forms here are
// the references the differential suites compare it against:
//
//   * KendallEvaluator: every q column of a tree, run sequentially, and
//     E[d_K] of any candidate answer over the full matrix — bitwise the
//     engine's columns and expected distance;
//   * the footrule answer re-scored through the evaluator, the answer the
//     engine serves;
//   * the exact mean answer by a subset DP over the candidate keys, the
//     optimum the footrule answer's factor-2 bound is checked against.
//
// Linked only into the test and bench binaries (the cpdb_oracle target).

#ifndef CPDB_ORACLE_KENDALL_ORACLES_H_
#define CPDB_ORACLE_KENDALL_ORACLES_H_

#include <vector>

#include "common/result.h"
#include "core/rank_distribution.h"
#include "core/topk_symdiff.h"
#include "model/and_xor_tree.h"

namespace cpdb {

/// \brief Precomputes the pairwise q statistics for a key set and evaluates
/// E[d_K(answer, topk(pw))] for arbitrary candidate answers.
class KendallEvaluator {
 public:
  /// Precomputation runs KendallQColumn for every key: one score-ordered
  /// pass of one root path per leaf (two for a tied leaf) per column.
  KendallEvaluator(const AndXorTree& tree, int k);

  int k() const { return k_; }
  const std::vector<KeyId>& keys() const { return keys_; }

  /// \brief q(u, t) for keys of the tree.
  double Q(KeyId u, KeyId t) const;

  /// \brief E[d_K(answer, topk(pw))] for an ordered candidate answer of
  /// distinct keys (KendallExpectedFromColumns over the answer's columns).
  double Expected(const std::vector<KeyId>& answer) const;

 private:
  int k_;
  std::vector<KeyId> keys_;
  std::vector<std::vector<double>> columns_;  // columns_[t_idx][u_idx]
  // keys_ position of `key`, -1 if absent: a binary search, since keys
  // span all of int32 (negative ones too), so no dense map over them fits.
  int IndexOf(KeyId key) const;
};

/// \brief The footrule-optimal answer re-scored under d_K (a
/// 2-approximation by the Fagin et al. equivalence class).
Result<TopKResult> MeanTopKKendallViaFootrule(const KendallEvaluator& evaluator,
                                              const RankDistribution& dist);

/// \brief Exact mean answer by a Held-Karp style subset DP: the objective
/// E[d_K] decomposes as sum over ordered answer pairs of q(later, earlier)
/// plus a boundary term per chosen set, so
///   f(S) = min_{t in S} f(S \ {t}) + sum_{p in S \ {t}} q(t, p)
/// gives the best internal ordering of each subset, and the optimum is
/// min_{|S| = k} f(S) + boundary(S). O(2^c c^2) for c candidates.
/// Fails unless the candidate count is at most `max_candidates`.
Result<TopKResult> MeanTopKKendallExactDp(const KendallEvaluator& evaluator,
                                          const RankDistribution& dist,
                                          int max_candidates = 20);

}  // namespace cpdb

#endif  // CPDB_ORACLE_KENDALL_ORACLES_H_
