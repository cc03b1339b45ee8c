// Copyright 2026 The ConsensusDB Authors
//
// cpdb::Engine — the parallel evaluation facade over the Section 4-5
// consensus algorithms. An Engine routes rank-distribution, consensus
// Top-k and set-consensus queries through a ThreadPool at a width: a pool
// it owns, or one it borrows (serve's scheduler lends one pool to all of
// its shard engines).
// Every parallel path is *schedule-deterministic*: the result is bitwise
// identical for any thread count (including 1), because work is split into
// fixed units whose partial results are merged in a fixed order on the
// calling thread. How many pool units a fan-out gets is one rule,
// FanOutUnits, sized by the cells of work the caller already knows, so a
// loop too small to pay for the handoff runs on the calling thread:
//
//   * rank distributions — RankDistributionScan chunks, planned from the
//     scan's L × min(k, L) cells: runs of the score order, cut at
//     tie-group boundaries, each scanned from its own base fold. Each
//     leaf's contribution is bitwise its full per-leaf fold whichever chunk
//     computes it, and the merge runs in DFS leaf order, the accumulation
//     order of the sequential ComputeRankDistribution — so the chunk count
//     moves no bit and needs no knob;
//   * Kendall q columns — runs of target keys, each column a full scan of
//     L × min(k, L) cells writing its own slot (the kendall mean reads
//     only its answer's keys' columns);
//   * median symdiff and expected ranks — none: each is one score-ordered
//     scan of root-path updates, tens of microseconds per shape, too
//     little to pay for handing work to the pool, so both run on the
//     calling thread (the core function itself);
//   * footrule / intersection assignment — runs of candidate tuples, each
//     tuple's cost (profit) column k² cells, before the Hungarian solve;
//   * set consensus — none: the leaf marginals are read off the one O(N)
//     compile pass (LeafMarginals), and the O(N) filter / DP runs on the
//     calling thread.
//
// ParallelFor hands the same pool, at the same width, to callers fanning
// whole queries (the serving layer's per-batch solves): queries nest their
// own ParallelFor calls, and the pool is nest-safe.

#ifndef CPDB_ENGINE_ENGINE_H_
#define CPDB_ENGINE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "core/rank_distribution.h"
#include "core/topk_metrics.h"
#include "core/topk_symdiff.h"
#include "model/and_xor_tree.h"

namespace cpdb {

/// \brief Which consensus answer a Top-k query asks for (the CLI's
/// --answer flag). Not every (metric, answer) pair is supported — see
/// Engine::ConsensusTopK.
enum class TopKAnswer {
  kMean,               ///< exact mean answer (size exactly k)
  kMedian,             ///< median answer (a realizable world's Top-k)
  kMeanUnrestricted,   ///< size-unrestricted mean (symdiff only)
  kMeanApprox,         ///< H_k-approximate mean (intersection only)
};

/// \brief The answer kind's textual name ("mean", "median", "any-size",
/// "approx") — the single vocabulary shared by the CLI's --answer flag and
/// the serve protocol's answer= field (the companion of TopKMetricName in
/// core/topk_metrics.h). "?" for unknown enum values.
const char* TopKAnswerName(TopKAnswer answer);

/// \brief The inverse of TopKAnswerName; InvalidArgument (naming the
/// accepted values) for anything else. Strict: callers must not default.
Result<TopKAnswer> ParseTopKAnswerName(const std::string& name);

/// \brief Construction-time knobs for an Engine.
struct EngineOptions {
  /// Threads used for query evaluation, counting the calling thread;
  /// values < 1 use the hardware concurrency. 1 means fully sequential.
  int num_threads = 0;
};

/// \brief Monotonic counters describing an engine's fold machinery — the
/// observability surface the serving layer's `op=metrics` scrape re-exports
/// (as cpdb_fold_compiles_total, cpdb_rank_folds_total and
/// cpdb_poly_arena_highwater_bytes). Plain counting, no clock reads:
/// maintaining them costs a relaxed atomic add per compile or fold and a
/// CAS-max per fold unit, so they are always on.
struct EngineObsCounters {
  /// FlatTree::Compile calls this engine has paid (each is one O(N) pass
  /// over a tree; the serving caches exist to keep this flat under
  /// repeated traffic).
  int64_t fold_compiles = 0;
  /// ComputeRankDistribution calls this engine has paid, the fold behind
  /// every consensus Top-k query (the serving layer plans a batch to fold
  /// each shape once, at its largest k).
  int64_t rank_folds = 0;
  /// High-water mark of any single fold unit's PolyArena scratch
  /// capacity, in bytes — the peak per-thread working set of the flat
  /// fold (see poly/poly_arena.h). A gauge, not a counter: it only rises.
  int64_t arena_highwater_bytes = 0;
};

class FlatTree;

/// \brief Precomputed metric tails for one consensus query — the answers a
/// serving cache can supply so a warm query skips its Kendall tail (footrule
/// solve plus q columns) or its Theorem 4 median scan. Null members are
/// computed by the engine exactly as without them; a non-null member must
/// be this engine's own output for the query's (tree, dist), which makes
/// the answer bitwise identical either way.
struct ConsensusTails {
  /// kendall mean: ConsensusTopKWithDist(tree, dist, kKendall, kMean).
  const Result<TopKResult>* kendall_mean = nullptr;
  /// symdiff median: Engine::MedianSymDiffSearch(tree, dist), the core
  /// MedianTopKSymDiff scan.
  const Result<TopKResult>* symdiff_median = nullptr;
};

/// \brief The least cells one pool unit carries: kMinCellsPerPoolUnit for
/// rank-scan chunks and cost columns, kMinQColumnCellsPerPoolUnit for
/// Kendall q columns, which repeat no base fold. The measurements behind
/// both are quoted in engine.cc.
extern const int64_t kMinCellsPerPoolUnit;
extern const int64_t kMinQColumnCellsPerPoolUnit;

/// \brief The engine's one fan-out rule: how many pool units a loop over
/// `units` independent pieces, `cells` of work in all, gets on `threads`
/// threads — as many as `threads` and `units` allow while every unit
/// carries at least `min_cells_per_unit` cells, and at least 1, which runs
/// the loop on the calling thread. A cell is a leaf times a rank of a scan
/// or q column, or a term of a cost column (k² per column). It only sizes
/// the split: every unit writes its own slots, so no result depends on it.
int FanOutUnits(int64_t units, int64_t cells, int threads,
                int64_t min_cells_per_unit = kMinCellsPerPoolUnit);

/// \brief Parallel evaluation engine; thread-safe for concurrent queries
/// against distinct trees (the engine itself holds no per-query state).
class Engine {
 public:
  /// \brief Owns a pool of EngineOptions::num_threads threads, at its
  /// full width.
  explicit Engine(const EngineOptions& options = EngineOptions());

  /// \brief Borrows `pool`, which must outlive the engine, at `width`
  /// threads (clamped to [1, pool size]); width 1 runs every loop on the
  /// calling thread.
  Engine(ThreadPool* pool, int width);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// \brief The engine's width: the most threads one of its loops runs on.
  int num_threads() const { return width_; }

  /// \brief Runs body(0) ... body(n - 1) on at most num_threads() threads
  /// of the engine's pool and returns when all have finished
  /// (ThreadPool::ParallelFor). Bodies may call back into this engine —
  /// the pool is nest-safe — and must not throw.
  void ParallelFor(int64_t n, const std::function<void(int64_t)>& body) const {
    pool_->ParallelFor(n, body, width_);
  }

  // -- Rank distributions (Section 5 sufficient statistics) ---------------

  /// \brief Parallel ComputeRankDistribution: the tree is compiled to a
  /// FlatTree once and scanned by a RankDistributionScan split into the
  /// score-order chunks FanOutUnits gives its L × min(k, L) cells (chunk
  /// boundaries on tie groups; a small scan is one chunk).
  /// Each chunk runs its own base fold, then per leaf one pass over only
  /// the leaf's root path, in the chunk's own resident rows. Every leaf's
  /// contribution is bitwise its full per-leaf fold and the merge runs in
  /// DFS leaf order, so the result is bitwise identical for any thread
  /// count, to the sequential core function, and to the pointer-fold test
  /// oracle. A k below 0 is k = 0: every key, no ranks.
  ///
  /// `program`, when non-null, must be FlatTree::Compile(tree) (the
  /// serving catalog holds exactly that, one per distinct shape); the call
  /// then skips its own compile. A compiled program is a pure function of
  /// the tree, so the answer is bitwise identical either way — this and
  /// the other `program` parameters below only move WHERE the one compile
  /// happens (catalog insert vs. first query).
  RankDistribution ComputeRankDistribution(
      const AndXorTree& tree, int k, const FlatTree* program = nullptr) const;

  /// \brief The Kendall q columns of `targets`, each a key of the tree:
  /// result[j][i] = q(keys[i], targets[j]) over keys = tree.Keys() (see
  /// KendallQColumn; 0 at targets[j] itself). FanOutUnits splits the
  /// targets into runs (L × min(k, L) cells each, at least
  /// kMinQColumnCellsPerPoolUnit cells a unit); each runs
  /// KendallQColumn in its thread's FlatRefoldScratch(): one score-ordered
  /// scan shared read-only by every task, one root path per leaf, with the
  /// target's leaves zeroed once passed. The kendall mean asks for its
  /// answer's keys only; every key gives the whole q matrix, column by
  /// column. Bitwise identical to the pointer-fold and sequential-column
  /// oracles in tests/oracle/ for any thread count.
  std::vector<std::vector<double>> KendallQColumns(
      const AndXorTree& tree, int k, const std::vector<KeyId>& targets,
      const FlatTree* program = nullptr) const;

  /// \brief The Theorem 4 median search under d_Delta: the core
  /// MedianTopKSymDiff (core/topk_symdiff.h), one score-ordered scan of
  /// root-path DP updates on the calling thread, so the result is the same
  /// for any thread count. `dist` must be ComputeRankDistribution(tree, k);
  /// InvalidArgument on an empty tree.
  Result<TopKResult> MedianSymDiffSearch(const AndXorTree& tree,
                                         const RankDistribution& dist) const;

  // -- Consensus Top-k (Section 5) ----------------------------------------

  /// \brief Computes the consensus Top-k answer for (metric, answer). Every
  /// metric's heavy precomputation is sized for the pool by FanOutUnits:
  /// the rank distribution always; additionally the per-candidate Hungarian
  /// cost/profit columns (footrule, intersection exact), and the footrule
  /// columns plus the q columns of the answer's keys (kendall). The symdiff
  /// median is one scan on the calling thread. Results are bitwise
  /// identical to the sequential core functions for any thread count.
  /// Unsupported combinations (e.g. footrule median) return
  /// NotImplemented; unknown enum values return InvalidArgument.
  Result<TopKResult> ConsensusTopK(const AndXorTree& tree, int k,
                                   TopKMetric metric,
                                   TopKAnswer answer = TopKAnswer::kMean,
                                   const FlatTree* program = nullptr) const;

  /// \brief Validates a (metric, answer) combination without running a
  /// query — the same check ConsensusTopK performs before paying the
  /// O(L^2 k) precompute (NotImplemented for unsupported pairs,
  /// InvalidArgument for unknown enum values). Exposed so batching layers
  /// (the QueryScheduler) can skip cache population for requests that can
  /// only fail.
  static Status ValidateConsensusRequest(TopKMetric metric, TopKAnswer answer);

  /// \brief The whole up-front check of a top-k request at cutoff `k`:
  /// InvalidArgument "k must be >= 1" for k < 1, else the (metric, answer)
  /// check above. ConsensusTopK and ConsensusTopKWithDist return exactly
  /// this status for a request they reject before any work, so a layer
  /// that skips the fold for such a request answers the same error.
  static Status ValidateConsensusRequest(int k, TopKMetric metric,
                                         TopKAnswer answer);

  /// \brief ConsensusTopK with the rank-distribution precompute supplied by
  /// the caller: the cache-aware entry point. `dist` must be the engine's
  /// ComputeRankDistribution(tree, dist.k()) — the serving layer's
  /// RankDistCache memoizes exactly that value by (StructKey, k), so
  /// repeated queries against one shape skip the O(L^2 k) fold. Because the
  /// fold is schedule-deterministic, answers are bitwise identical whether
  /// `dist` was computed fresh or served from a cache. The metric-specific
  /// tails (columns, q columns) still run through the pool. The
  /// guard here is a cheap key-set compare: a `dist` whose key set does not
  /// match tree.Keys() is InvalidArgument, but a stale distribution from a
  /// *different tree over the identical key set* (say, re-built with new
  /// probabilities) passes undetected — content identity is the caller's
  /// contract, which is why the serving layer keys its RankDistCache by the
  /// catalog's structural key rather than by name or pointer. `tails`
  /// optionally supplies the metric tail's own precompute as well (see
  /// ConsensusTails); the serving layer's PrecomputeCache feeds it.
  Result<TopKResult> ConsensusTopKWithDist(
      const AndXorTree& tree, const RankDistribution& dist, TopKMetric metric,
      TopKAnswer answer = TopKAnswer::kMean, const FlatTree* program = nullptr,
      const ConsensusTails& tails = ConsensusTails()) const;

  // -- Set consensus (Section 4.1) ----------------------------------------

  /// \brief Leaf marginals (indexed by NodeId), read off one O(N)
  /// FlatTree::Compile pass (which carries the root-to-leaf XOR edge
  /// product in the same multiplication order as the per-leaf pointer
  /// walks); bitwise identical to tree.LeafMarginals(). It feeds
  /// ConsensusWorldWithMarginals, which derives a world answer and its
  /// expected distance from one such vector. With a
  /// non-null `program` (== FlatTree::Compile(tree)) no compile happens at
  /// all: the marginals are read straight off the supplied leaf table.
  std::vector<double> LeafMarginals(const AndXorTree& tree,
                                    const FlatTree* program = nullptr) const;

  /// \brief Expected ranks: the core ExpectedRanks
  /// (core/ranking_baselines.h), one score-ordered scan of O(depth) root-path
  /// count updates on the calling thread, so the vector is the same for any
  /// thread count. Indexed like tree.Keys(). Serves op=baseline method=erank.
  std::vector<double> ExpectedRanks(const AndXorTree& tree) const;

  /// \brief A set-consensus world answer: the chosen world's leaves and its
  /// expected symmetric-difference distance.
  struct WorldResult {
    std::vector<NodeId> leaf_ids;
    double expected_distance = 0.0;
  };

  /// \brief The mean (or median) world under symmetric difference with the
  /// per-leaf marginal fold supplied by the caller — the set-consensus
  /// sibling of ConsensusTopKWithDist, and the entry point the serving
  /// layer's MarginalsCache feeds. `marginals` must be this engine's
  /// LeafMarginals(tree) (equivalently tree.LeafMarginals(): they agree
  /// bitwise); the guard here is a cheap size compare against the tree's
  /// node count, so a stale vector from a *different tree with the same
  /// node count* passes undetected — content identity is the caller's
  /// contract, which is why the serving layer keys its MarginalsCache by
  /// the catalog's structural key. Everything downstream of the fold
  /// (filter, min-cost DP, distance sum) is sequential O(N), so the result
  /// is bitwise identical to the core MeanWorldSymDiff / MedianWorldSymDiff
  /// plus ExpectedSymDiffDistance (core/set_consensus.h), whether
  /// `marginals` was computed fresh or served from a cache.
  Result<WorldResult> ConsensusWorldWithMarginals(
      const AndXorTree& tree, const std::vector<double>& marginals,
      bool median) const;

  // -- Observability -------------------------------------------------------

  /// \brief Snapshot of the fold-machinery counters (see EngineObsCounters).
  /// Relaxed reads; exact when the engine is quiescent.
  EngineObsCounters obs_counters() const {
    EngineObsCounters counters;
    counters.fold_compiles = fold_compiles_.load(std::memory_order_relaxed);
    counters.rank_folds = rank_folds_.load(std::memory_order_relaxed);
    counters.arena_highwater_bytes =
        arena_highwater_bytes_.load(std::memory_order_relaxed);
    return counters;
  }

 private:
  /// Runs body(0) ... body(n - 1) in the FanOutUnits(n, cells,
  /// min_cells_per_unit) pool units, each a contiguous run of indices.
  void FanOut(int64_t n, int64_t cells, int64_t min_cells_per_unit,
              const std::function<void(int64_t)>& body) const;

  /// One `column(dist, key)` evaluation per key of `dist`, k² cells each,
  /// through FanOut — the per-candidate unit of the assignment-based
  /// metrics.
  std::vector<std::vector<double>> PerKeyColumns(
      const RankDistribution& dist,
      const std::function<std::vector<double>(const RankDistribution&, KeyId)>&
          column) const;

  /// FlatTree::Compile, counted: the single chokepoint every engine path
  /// compiles through, so fold_compiles_ cannot undercount.
  FlatTree CompileCounted(const AndXorTree& tree) const;

  /// Folds one fold unit's scratch bytes into the high-water gauge: the
  /// calling thread's arena from inside a pool task that used it, or a
  /// scan's largest chunk scratch.
  void NoteArenaHighWater(size_t bytes) const;

  // Null for an engine that borrows its pool.
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_;
  int width_;
  // Observability counters (see obs_counters()); queries are logically
  // const, so the instruments they bump are mutable atomics.
  mutable std::atomic<int64_t> fold_compiles_{0};
  mutable std::atomic<int64_t> rank_folds_{0};
  mutable std::atomic<int64_t> arena_highwater_bytes_{0};
};

}  // namespace cpdb

#endif  // CPDB_ENGINE_ENGINE_H_
