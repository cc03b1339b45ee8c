// Copyright 2026 The ConsensusDB Authors
//
// PrecomputeCache — memoizes the metric-tail precomputes a warm consensus
// request still paid after its rank distribution and marginals were cached.
// One CostLruCache holds three kinds of entry, keyed by (StructKey, kind, k):
//
//   * the kendall mean answer (Engine::ConsensusTopKWithDist, metric
//     kendall, answer mean) per (shape, k) — the final answer, so a warm
//     request skips the footrule solve and the q columns alike;
//   * the Theorem 4 median search result (Engine::MedianSymDiffSearch) per
//     (shape, k) — the final answer of the score-ordered DP scan;
//   * the expected-rank vector (Engine::ExpectedRanks) per shape, with k
//     fixed at 0 — the score-ordered presence-count scan behind
//     op=baseline method=erank.
//
// Same contract as RankDistCache and MarginalsCache: single-flight
// computation, one byte budget across all three kinds with LRU eviction,
// handles that survive eviction, and values the engine computes
// deterministically — so the cache shows only in its counters (the
// cpdb_precompute_cache_* scrape names) and in latency, never in answers.
// Entries are not persisted in catalog snapshots.

#ifndef CPDB_SERVICE_PRECOMPUTE_CACHE_H_
#define CPDB_SERVICE_PRECOMPUTE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <tuple>
#include <variant>
#include <vector>

#include "common/hash.h"
#include "common/result.h"
#include "core/topk_symdiff.h"
#include "service/lru_cache.h"

namespace cpdb {

/// \brief Thread-safe (StructKey, kind, k) -> metric-tail precompute memo
/// with single-flight computation and byte-budgeted LRU eviction.
class PrecomputeCache {
 public:
  /// \brief `byte_budget` caps the charged bytes of all retained entries
  /// together; kUnboundedCacheBytes never evicts, 0 retains nothing but
  /// still coalesces concurrent computes.
  explicit PrecomputeCache(int64_t byte_budget = kUnboundedCacheBytes);

  /// \brief The kendall mean answer for (struct_key, k), invoking `compute`
  /// on a miss — at most once across concurrent callers. A failed answer is
  /// cached like a success: it is the engine's deterministic output for the
  /// key too.
  std::shared_ptr<const Result<TopKResult>> KendallMean(
      StructKey struct_key, int k,
      const std::function<Result<TopKResult>()>& compute);

  /// \brief The symdiff median search result for (struct_key, k), cached
  /// like the kendall mean, failures included.
  std::shared_ptr<const Result<TopKResult>> SymDiffMedian(
      StructKey struct_key, int k,
      const std::function<Result<TopKResult>()>& compute);

  /// \brief The expected-rank vector for `struct_key` (indexed like the
  /// canonical tree's Keys()).
  std::shared_ptr<const std::vector<double>> ExpectedRanks(
      StructKey struct_key,
      const std::function<std::vector<double>()>& compute);

  /// \brief Counter snapshot over all kinds; bytes <= byte_budget() in
  /// every snapshot.
  CacheStats stats() const { return cache_.stats(); }

 private:
  // The kind is part of the key, so one (shape, k) pair holds its kendall
  // mean and its median side by side.
  enum Kind { kKendallMean, kSymDiffMedian, kExpectedRanks };
  using Key = std::tuple<uint64_t, int, int>;  // (StructKey, kind, k)
  using Value = std::variant<Result<TopKResult>, std::vector<double>>;

  static int64_t ValueBytes(const Value& value);

  template <typename T>
  std::shared_ptr<const T> Get(Kind kind, StructKey struct_key, int k,
                               const std::function<T()>& compute);

  CostLruCache<Key, Value> cache_;
};

}  // namespace cpdb

#endif  // CPDB_SERVICE_PRECOMPUTE_CACHE_H_
