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

#include <algorithm>
#include <cstddef>
#include <map>
#include <optional>
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

  /// \brief The distribution at cutoff min(k, this->k()), k < 0 read as 0
  /// (as RankDistributionBuilder clamps): every key, its first k ranks.
  /// Bitwise the fold at that cutoff (the prefix lemma under
  /// RankDistributionScan), so a fold at the largest k serves every
  /// smaller one. O(n (log n + k)).
  RankDistribution Prefix(int k) const;

 private:
  friend class RankDistributionBuilder;
  int k_ = 0;
  std::vector<KeyId> keys_;
  std::map<KeyId, int> key_index_;
  // pr_eq_[key_index][i] = Pr(r = i); index 0 unused.
  std::vector<std::vector<double>> pr_eq_;
  std::vector<std::vector<double>> pr_le_;
};

/// \brief Assembles a RankDistribution from externally computed
/// Pr(r(key) = i) values (RankDistributionScan's per-leaf merge and the
/// snapshot decoder). A k below 0 is k = 0. Keys must be registered
/// (first EnsureKey/Add/AddRow) in ascending order, since keys() is
/// ascending and each key's row is its registration index; every caller
/// walks a sorted key set. Build() finalizes prefix sums in O(n k).
class RankDistributionBuilder {
 public:
  explicit RankDistributionBuilder(int k) { dist_.k_ = std::max(k, 0); }

  /// \brief Registers `key` with an all-zero distribution if absent (keys
  /// that never reach the Top-k must still appear in keys()).
  void EnsureKey(KeyId key);

  /// \brief Adds `prob` to Pr(r(key) = i); creates the key on first use.
  void Add(KeyId key, int i, double prob);

  /// \brief Add(key, i, probs[i - 1]) for i = 1..count, in that order,
  /// with one key lookup.
  void AddRow(KeyId key, const double* probs, int count);

  /// \brief Finalizes prefix sums and returns the distribution.
  RankDistribution Build() &&;

 private:
  RankDistribution dist_;
};

/// \brief The score-ordered incremental scan behind every general-tree
/// rank distribution (Example 3).
///
/// For a leaf a with score s, Pr(a is present and ranked i-th) is the
/// coefficient of x^{i-1} y^1 of the bivariate generating function that
/// tags a with y, every leaf of another key scoring above s with x, and
/// every other leaf with 1; summing over a key's alternatives gives
/// Pr(r(key) = i). Rather than one full O(N k) fold per leaf, the scan
/// walks the leaves in decreasing score over one FlatRefold whose resident
/// rows hold the fold with every leaf scoring above the current tie group
/// set to x. A leaf that ties no other is set to x + y in one in-place pass
/// over its root path (FlatRefold::CommitAndQuery): the root's y^1 column
/// is its query, and the y^0 columns its commit to x. A tie group of two
/// or more leaves refolds each leaf's root path with the leaf set to y,
/// then commits the group's paths with the group set to x. Per leaf the
/// work is one root path of the row graph (two for a tied leaf), where the
/// per-leaf fold pays every row. A path row costs O(fan-in k) at a XOR
/// node and O(k^2) per product, and an AND's children multiply as
/// balanced products (model/flat_tree.h), so a path crosses O(log fan-in)
/// products per AND. On a BID tree, an AND of n XOR blocks, a leaf costs
/// O(k^2 log n) plus O(k) per alternative of its block.
///
/// Each contribution is bitwise the per-leaf full fold (the flat
/// LeafRankContribution oracle in tests/oracle/). Refolded rows re-run
/// their own ops, so the two folds differ only in the leaf's higher-scoring
/// key-mates: x here, 1 there. Those cannot move a y^1 bit. A row whose
/// subtree lacks the leaf has an all-+0.0 y^1 column, so a key-mate, which
/// sits below a XOR node on the leaf's path (the key constraint), reaches
/// y^1 cells only as weight × (+0.0) at that XOR and, above it, as
/// (y^0 cell) × (a sibling's +0.0 y^1 cell) in products: ±0.0 terms added
/// to accumulators that are never -0.0, the bitwise no-op
/// ConvolveRowsTruncated's zero skip rests on. Tied leaves are committed
/// only after the whole group is queried, since a tie scores 1, not x.
///
/// The score order splits into chunks at tie-group boundaries. Each chunk
/// starts from its own base fold in its own scratch, so chunks run
/// independently, on any thread, and no bit depends on how many there are.
///
/// Prefix lemma: the fold at cutoff k' <= k is bitwise the first k' ranks
/// of the fold at k, i.e. RankDistribution::Prefix(k'). A row cell of
/// x-degree c is the sum of the same terms in the same order at every
/// truncation max_dx >= c: a XOR row scales and adds cell by cell, and
/// ConvolveRowsTruncated adds a(ia, ja) * b(c - ia, jb) for ia = 0..c in
/// ascending (ia, ja) order, reading only cells of x-degree <= c, and
/// skips an all-zero a row by a test on that row alone. By induction over
/// the ops, every cell of x-degree below min(k', L) is bitwise equal, and
/// those cells are all that rank i <= k' reads (coefficient x^{i-1}).
/// Nothing else depends on k: the score order and the chunk boundaries
/// follow the leaves and the chunk count, Build adds each rank's leaf
/// contributions in leaf-table order, and PrRankLe's prefix sums run up
/// from rank 1. The same argument is why truncating at x^{min(k, L) - 1}
/// moves no bit: no leaf ranks past L.
///
/// The loop takes an optional excluded key t (Scan): t's leaves are set to
/// the zero polynomial instead of x once passed, and are never queried.
/// Each other leaf b then reads Pr(b present, ranked i-th, and no leaf of
/// t scoring above b present), the cells the Kendall q statistic
/// q(key(b), t) sums (core/topk_kendall.h). A lone leaf of t is a group
/// with nothing to query.
class RankDistributionScan {
 public:
  /// Orders `flat`'s leaves, splits them into at most `max_chunks` chunks
  /// of about equal size, and sizes each chunk's scratch on the calling
  /// thread; each extra chunk repeats the base fold (the engine's
  /// FanOutUnits decides when that pays). A `max_chunks` of 0 plans no
  /// chunk: the scan then only serves Scan() in the caller's scratch.
  /// `flat` must outlive the scan.
  RankDistributionScan(const FlatTree& flat, int k, int max_chunks);

  int num_chunks() const { return static_cast<int>(chunk_begin_.size()) - 1; }

  const FlatTree& flat() const { return refold_.flat(); }

  /// The ranks a leaf can reach, min(k, L): the cells Scan writes per leaf.
  int ranks() const { return ranks_; }

  /// Scans one chunk, writing its leaves' contributions. The chunk's
  /// resident rows live in its own scratch, not in thread-local storage,
  /// and the body never calls into a thread pool, so it does not matter
  /// which thread runs it or what ran there before. Distinct chunks write
  /// disjoint leaves and scratches and may run concurrently.
  void RunChunk(int chunk);

  /// The loop behind RunChunk, over positions [begin, end) of the score
  /// order, from a base fold in `scratch` with every leaf before `begin`
  /// set to x, or to zero if it is of key `excluded`. Writes the ranks()
  /// cells of each leaf l not of key `excluded` at contributions +
  /// l * ranks(), rank 1 first; the excluded key's cells are left as they
  /// are. Only reads the scan, so scans in distinct scratches may run
  /// concurrently.
  void Scan(size_t begin, size_t end, std::optional<KeyId> excluded,
            double* contributions, FlatRefold::Scratch* scratch) const;

  /// The largest chunk scratch's arena bytes: the scan's per-thread
  /// working set.
  size_t ChunkScratchBytes() const;

  /// The distribution over `keys` (the tree's Keys(): ascending, every
  /// leaf key) once every chunk has run: each key's leaf contributions
  /// summed in leaf-table order, the order of the pointer-fold oracle.
  RankDistribution Build(const std::vector<KeyId>& keys) const;

 private:
  FlatRefold refold_;
  int k_;
  int max_dx_;  // the fold's x truncation
  int ranks_;   // the ranks a leaf can reach, min(k, max_dx_ + 1)
  std::vector<int> order_;     // leaf indices by decreasing score, ties in
                               // leaf order
  std::vector<size_t> rank_;   // leaf -> its position in order_
  std::vector<size_t> chunk_begin_;  // chunk c is order_[begin[c], begin[c+1])
  std::vector<FlatRefold::Scratch> scratch_;  // one per chunk
  std::vector<double> contributions_;  // leaf l, rank i: [l * ranks_ + i - 1]
};

/// \brief Computes the rank distribution of every key, truncated at rank k,
/// with one sequential RankDistributionScan over the compiled tree. The
/// pointer-fold oracle in tests/oracle/ pins it bit for bit.
RankDistribution ComputeRankDistribution(const AndXorTree& tree, int k);

}  // namespace cpdb

#endif  // CPDB_CORE_RANK_DISTRIBUTION_H_
