// Copyright 2026 The ConsensusDB Authors
//
// Consensus Top-k answers under the Kendall tau distance K^(0) (Section 5.5
// of the paper). Exact optimization is NP-hard already for aggregating four
// rankings (Dwork et al.), hence the paper settles for constant-factor
// approximations driven by the pairwise order probabilities
// Pr(r(t_i) < r(t_j)), which are poly-time computable on and/xor trees.
//
// The expected distance itself decomposes over key pairs:
//   E[d_K(tau, topk(pw))] = sum_{tau ranks t before u} q(u, t)
//                         + sum_{t in tau, u notin tau} q(u, t)
// with q(u, t) = Pr(r(u) <= k and r(u) < r(t)), so we can evaluate any
// candidate answer exactly — this powers both the approximation-ratio
// experiments and the small-instance exact baseline.
//
// Substitution note (DESIGN.md): Ailon's 3/2-approximation rounds an LP; we
// implement the LP-free alternatives the paper itself references — the
// footrule-optimal answer (2-approximation via the metric equivalence class)
// and KwikSort-style pivoting on the pairwise majority tournament.

#ifndef CPDB_CORE_TOPK_KENDALL_H_
#define CPDB_CORE_TOPK_KENDALL_H_

#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "core/rank_distribution.h"
#include "core/topk_symdiff.h"
#include "model/and_xor_tree.h"
#include "model/flat_tree.h"

namespace cpdb {

/// \brief Column it of the q matrix over `keys` (sorted ascending, the
/// tree's Keys()): result[iu] = q(keys[iu], keys[it]) with
/// q(u, t) = Pr(r(u) <= k and r(u) < r(t)) — u makes the Top-k and ranks
/// ahead of t (t absent or ranked below both count) — and 0 at iu == it.
/// One pass of `scan`, built over the tree's FlatTree at cutoff k (no
/// chunks needed), with keys[it] excluded: each leaf b of another key
/// reads its first k cells with t's leaves above b set to zero. A cell
/// sums over the leaves of its key in leaf order, then over ranks, the
/// order of the pointer-fold oracle in tests/oracle/, so the column is
/// bitwise the oracle's. `scan` is only read, so columns in distinct
/// scratches may run concurrently.
std::vector<double> KendallQColumn(const RankDistributionScan& scan,
                                   const std::vector<KeyId>& keys, size_t it,
                                   FlatRefold::Scratch* scratch);

/// \brief E[d_K(answer, topk(pw))] from the q columns of the answer's own
/// keys: columns[a][iu] = q(keys[iu], answer[a]) over `keys` (sorted
/// ascending, the tree's Keys()), or null for a key outside `keys`, whose
/// terms are all zero. Every term of the decomposition has its t in the
/// answer, so these |answer| columns are all the sum reads. It adds the
/// answer's pairs a < b first, then each t of the answer over every u
/// outside it in key order: one fixed order, whoever supplies the columns.
double KendallExpectedFromColumns(
    const std::vector<KeyId>& keys, const std::vector<KeyId>& answer,
    const std::vector<const std::vector<double>*>& columns);

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

/// \brief KwikSort-style aggregation: ranks all keys by randomized pivoting
/// on the majority tournament Pr(r(i) < r(j)) >= 1/2 and returns the first k.
Result<TopKResult> MeanTopKKendallPivot(const KendallEvaluator& evaluator,
                                        const std::vector<std::vector<double>>& order_probs,
                                        Rng* rng);

/// \brief The footrule-optimal answer re-scored under d_K (a
/// 2-approximation by the Fagin et al. equivalence class).
Result<TopKResult> MeanTopKKendallViaFootrule(const KendallEvaluator& evaluator,
                                              const RankDistribution& dist);

/// \brief Exact mean answer by exhaustive search over ordered k-subsets of
/// the candidate keys (those with Pr(r(t) <= k) > 0). Exponential; fails
/// unless the candidate count is at most `max_candidates`.
Result<TopKResult> MeanTopKKendallExact(const KendallEvaluator& evaluator,
                                        const RankDistribution& dist,
                                        int max_candidates = 10);

/// \brief Exact mean answer by a Held-Karp style subset DP: the objective
/// E[d_K] decomposes as sum over ordered answer pairs of q(later, earlier)
/// plus a boundary term per chosen set, so
///   f(S) = min_{t in S} f(S \ {t}) + sum_{p in S \ {t}} q(t, p)
/// gives the best internal ordering of each subset, and the optimum is
/// min_{|S| = k} f(S) + boundary(S). O(2^c c^2) for c candidates — exact up
/// to `max_candidates` around 20 instead of the factorial brute force's ~10.
Result<TopKResult> MeanTopKKendallExactDp(const KendallEvaluator& evaluator,
                                          const RankDistribution& dist,
                                          int max_candidates = 20);

}  // namespace cpdb

#endif  // CPDB_CORE_TOPK_KENDALL_H_
