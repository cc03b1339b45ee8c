// Copyright 2026 The ConsensusDB Authors
//
// Rank distributions over and/xor trees (Example 3 / Section 5 of the
// paper). For each probabilistic tuple t, Pr(r(t) = i) is the probability
// that t appears in a random possible world ranked i-th by score; absent
// tuples have rank infinity, so Pr(r(t) > k) includes absence. These
// distributions are the sufficient statistics for every consensus Top-k
// computation in Section 5.

#ifndef CPDB_CORE_RANK_DISTRIBUTION_H_
#define CPDB_CORE_RANK_DISTRIBUTION_H_

#include <map>
#include <vector>

#include "model/and_xor_tree.h"
#include "model/flat_tree.h"

namespace cpdb {

/// \brief The largest rank cutoff k any input surface accepts: a request's
/// k= field, the CLI's --k, and a snapshot's persisted distribution
/// records. A distribution holds k doubles per key, so the ceiling bounds
/// what one request (or one forged file) can make the process allocate.
inline constexpr int kMaxRankK = 1 << 20;

/// \brief Pr(r(t) = i) and Pr(r(t) <= i) for every key and every i in 1..k.
///
/// Paper semantics: these positional probabilities are the sufficient
/// statistics of Section 5 — every consensus Top-k objective (mean answers
/// under d_Delta, d_I, F^(k+1)) is a linear functional of them, which is
/// why "compute the rank distribution once, then optimize" is the uniform
/// algorithmic pattern. Accessors are O(log n) per lookup (key index map)
/// and O(1) in i.
class RankDistribution {
 public:
  int k() const { return k_; }

  /// \brief Keys covered, ascending (all keys of the generating tree).
  const std::vector<KeyId>& keys() const { return keys_; }

  /// \brief Pr(r(key) = i): the probability some alternative of `key` is
  /// present and ranked exactly i-th by score. 0 for i outside [1, k] or
  /// unknown keys. O(log n) per call.
  double PrRankEq(KeyId key, int i) const;

  /// \brief Pr(r(key) <= i) for i in [1, k]; 0 for i < 1; PrTopK for i > k.
  /// Precomputed prefix sums, so O(log n) per call.
  double PrRankLe(KeyId key, int i) const;

  /// \brief Pr(r(key) <= k): the probability the tuple makes the Top-k —
  /// the Global-Top-k / PT-k statistic of Theorem 3. O(log n) per call.
  double PrTopK(KeyId key) const { return PrRankLe(key, k_); }

  /// \brief Pr(r(key) > k), including the probability the tuple is absent
  /// (absent tuples have rank infinity). O(log n) per call.
  double PrBeyondK(KeyId key) const { return 1.0 - PrTopK(key); }

  /// \brief Approximate heap footprint in bytes — the eviction cost the
  /// serving layer's byte-budgeted caches charge for retaining this
  /// distribution. Computed from element *counts* (sizes, not allocator
  /// capacities) plus a fixed per-map-node estimate, so the figure is a
  /// deterministic function of (keys, k): budget-driven eviction decisions
  /// replay identically across runs and platforms. O(1): n·k dominates and
  /// both factors are stored.
  int64_t ApproxBytes() const;

 private:
  friend RankDistribution ComputeRankDistribution(const AndXorTree& tree,
                                                  int k);
  friend class RankDistributionBuilder;
  int k_ = 0;
  std::vector<KeyId> keys_;
  std::map<KeyId, int> key_index_;
  // pr_eq_[key_index][i] = Pr(r = i); index 0 unused.
  std::vector<std::vector<double>> pr_eq_;
  std::vector<std::vector<double>> pr_le_;
};

/// \brief Assembles a RankDistribution from externally computed
/// Pr(r(key) = i) values (used by the fast block-independent algorithm in
/// rank_distribution_fast.h and by the parallel engine's per-leaf merge).
/// Build() sorts keys and finalizes prefix sums in O(n (log n + k)).
class RankDistributionBuilder {
 public:
  explicit RankDistributionBuilder(int k) { dist_.k_ = k; }

  /// \brief Registers `key` with an all-zero distribution if absent (keys
  /// that never reach the Top-k must still appear in keys()).
  void EnsureKey(KeyId key);

  /// \brief Adds `prob` to Pr(r(key) = i); creates the key on first use.
  void Add(KeyId key, int i, double prob);

  /// \brief Finalizes prefix sums and returns the distribution.
  RankDistribution Build() &&;

 private:
  RankDistribution dist_;
};

/// \brief The contribution of one leaf to its key's rank distribution:
/// entry i of the returned vector (size k + 1, entry 0 unused) is
/// Pr(the leaf is present and ranked i-th), i.e. the coefficient of
/// x^{i-1} y^1 of the leaf's bivariate generating function. Summing over a
/// key's alternatives yields Pr(r(key) = i). One evaluation costs O(L k)
/// for L leaves; this is the unit of work the parallel engine distributes.
/// `target` indexes flat.leaves() (left-to-right DFS order ==
/// AndXorTree::LeafIds() order). Per-target leaf
/// classification is a linear scan over the packed leaf table and all
/// polynomial scratch lives in this thread's reusable arena, so repeated
/// calls over one compiled tree allocate only the returned vector.
std::vector<double> LeafRankContribution(const FlatTree& flat, int target,
                                         int k);

/// \brief Computes the rank distribution of every key, truncated at rank k.
///
/// Implementation (Example 3): for each tuple alternative a with score s,
/// the bivariate generating function with variable x on higher-scoring
/// leaves of other keys and y on a has Pr(rank via a = i) as the coefficient
/// of x^{i-1} y; summing over a's alternatives gives the key's distribution.
/// Cost O(L^2 k) for L leaves (L independent O(L k) leaf evaluations; see
/// LeafRankContribution, the unit the parallel engine distributes).
///
/// Runs the flat fold: the tree is compiled once (FlatTree::Compile) and
/// each leaf evaluation is a linear pass over the instruction stream with
/// arena scratch. The pointer-fold oracle in tests/oracle/ pins it bit for
/// bit.
RankDistribution ComputeRankDistribution(const AndXorTree& tree, int k);

}  // namespace cpdb

#endif  // CPDB_CORE_RANK_DISTRIBUTION_H_
