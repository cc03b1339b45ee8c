// Copyright 2026 The ConsensusDB Authors
//
// The eviction + single-flight regression suite for the serving layer's
// byte-budgeted caches (service/lru_cache.h via RankDistCache and
// MarginalsCache). The load-bearing claims, each run with real threads so
// the TSan CI job watches the lock discipline:
//
//   * the charged byte total never exceeds the budget, in any stats()
//     snapshot, even while GetOrCompute calls race evictions;
//   * concurrent misses for one key compute once (single-flight), and
//     every caller — computing, coalescing, or hitting — receives
//     bitwise-identical values;
//   * answers are bitwise independent of the budget: a cache squeezed to a
//     couple of entries (or to nothing) serves exactly the bytes an
//     unbounded cache or no cache serves, because eviction only ever costs
//     recomputation of a deterministic value.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "direct_answers.h"
#include "engine/engine.h"
#include "io/tree_text.h"
#include "service/marginals_cache.h"
#include "service/query_scheduler.h"
#include "service/rank_dist_cache.h"
#include "service/tree_catalog.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

constexpr char kTreeText[] =
    "(and (xor 0.6 (leaf key=1 score=8) 0.3 (leaf key=1 score=5))"
    " (xor 0.7 (leaf key=2 score=9))"
    " (xor 0.5 (leaf key=3 score=7) 0.5 (leaf key=3 score=6)))";

AndXorTree RandomTree(uint64_t seed, int num_keys = 6) {
  Rng rng(seed);
  RandomTreeOptions opts;
  opts.num_keys = num_keys;
  opts.max_depth = 3;
  opts.max_alternatives = 2;
  auto tree = RandomAndXorTree(opts, &rng);
  EXPECT_TRUE(tree.ok());
  return *std::move(tree);
}

// The charge of one n-element marginal vector, measured (not assumed) by
// feeding a probe entry through an unbounded cache.
int64_t MeasuredMarginalCost(size_t n) {
  MarginalsCache probe;
  probe.GetOrCompute(StructKey(1), [n] { return std::vector<double>(n, 0.5); });
  return probe.stats().bytes;
}

// Bitwise comparison of two rank distributions over their full support.
void ExpectSameDist(const RankDistribution& a, const RankDistribution& b) {
  ASSERT_EQ(a.k(), b.k());
  ASSERT_EQ(a.keys(), b.keys());
  for (KeyId key : a.keys()) {
    for (int i = 1; i <= a.k(); ++i) {
      ASSERT_EQ(a.PrRankEq(key, i), b.PrRankEq(key, i))
          << "key " << key << " rank " << i;
      ASSERT_EQ(a.PrRankLe(key, i), b.PrRankLe(key, i));
    }
  }
}

// ---------------------------------------------------------------------------
// Deterministic LRU mechanics (single-threaded)
// ---------------------------------------------------------------------------

TEST(CacheEvictionTest, EvictsLeastRecentlyUsedFirst) {
  const int64_t cost = MeasuredMarginalCost(8);
  MarginalsCache cache(2 * cost);  // room for exactly two entries
  auto vec = [](double fill) { return std::vector<double>(8, fill); };
  cache.GetOrCompute(StructKey(1), [&] { return vec(0.1); });
  cache.GetOrCompute(StructKey(2), [&] { return vec(0.2); });
  // Touch 1: now 2 is the least recently used.
  EXPECT_NE(cache.GetOrCompute(StructKey(1), [&] { return vec(9.9); }), nullptr);
  cache.GetOrCompute(StructKey(3), [&] { return vec(0.3); });  // evicts 2, not 1
  EXPECT_NE(cache.Peek(StructKey(1)), nullptr);
  EXPECT_EQ(cache.Peek(StructKey(2)), nullptr);
  EXPECT_NE(cache.Peek(StructKey(3)), nullptr);
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2);
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.bytes, 2 * cost);
  EXPECT_LE(stats.bytes, cache.byte_budget());
}

TEST(CacheEvictionTest, OversizedEntryIsServedButNeverRetained) {
  const int64_t cost = MeasuredMarginalCost(64);
  MarginalsCache cache(cost - 1);  // no single entry fits
  auto handle =
      cache.GetOrCompute(StructKey(7), [] { return std::vector<double>(64, 0.25); });
  ASSERT_NE(handle, nullptr);  // the caller still gets its value...
  EXPECT_EQ((*handle)[0], 0.25);
  EXPECT_EQ(cache.Peek(StructKey(7)), nullptr);  // ...but nothing was retained
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0);
  EXPECT_EQ(stats.bytes, 0);
  EXPECT_EQ(stats.evictions, 0);  // never retained, so never "evicted"
  // The next call recomputes: a miss, not a hit.
  cache.GetOrCompute(StructKey(7), [] { return std::vector<double>(64, 0.25); });
  EXPECT_EQ(cache.stats().misses, 2);
}

TEST(CacheEvictionTest, HandlesSurviveEvictionAndClear) {
  AndXorTree tree = *ParseTree(kTreeText);
  RankDistCache probe;  // measure one entry's charge
  auto first =
      probe.GetOrCompute(StructKey(1), 2,
                         [&] { return ComputeRankDistribution(tree, 2); });
  const int64_t cost = probe.stats().bytes;

  RankDistCache cache(cost);  // exactly one entry fits
  auto a =
      cache.GetOrCompute(StructKey(1), 2,
                         [&] { return ComputeRankDistribution(tree, 2); });
  auto b =
      cache.GetOrCompute(StructKey(2), 2,
                         [&] { return ComputeRankDistribution(tree, 2); });
  EXPECT_EQ(cache.stats().evictions, 1);  // a's entry was pushed out
  EXPECT_EQ(cache.Peek(StructKey(1), 2), nullptr);
  // The evicted handle still works and still carries the right bits.
  ExpectSameDist(*a, *first);
  cache.Clear();
  ExpectSameDist(*b, *first);
  EXPECT_EQ(cache.stats().bytes, 0);
}

// ---------------------------------------------------------------------------
// Concurrency: the TSan targets
// ---------------------------------------------------------------------------

// Single-flight under contention: one compute, everyone shares its bits.
// With the budget at 0 the cache retains nothing, reducing it to a pure
// in-flight gate — computes must then equal misses exactly (no entry ever
// answers), and hits stay 0.
TEST(CacheEvictionTest, ZeroBudgetStillCoalescesConcurrentComputes) {
  AndXorTree tree = *ParseTree(kTreeText);
  RankDistCache cache(0);
  constexpr int kThreads = 8;
  std::atomic<int> computes{0};
  std::vector<std::shared_ptr<const RankDistribution>> handles(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      handles[t] = cache.GetOrCompute(StructKey(5), 2, [&] {
        ++computes;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        return ComputeRankDistribution(tree, 2);
      });
    });
  }
  for (std::thread& w : workers) w.join();
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0);
  EXPECT_EQ(stats.bytes, 0);
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(computes.load(), stats.misses);  // every miss computed...
  EXPECT_LT(stats.misses, kThreads);  // ...but the sleeps force coalescing
  EXPECT_EQ(stats.misses + stats.coalesced, kThreads);
  RankDistribution reference = ComputeRankDistribution(tree, 2);
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_NE(handles[t], nullptr);
    ExpectSameDist(*handles[t], reference);
  }
}

// A compute that throws must not wedge its key: the exception propagates
// to the computing caller, coalesced waiters wake and retry instead of
// blocking forever on a flight that will never land, and the key stays
// fully usable afterward.
TEST(CacheEvictionTest, ThrowingComputeWakesWaitersAndLeavesKeyUsable) {
  MarginalsCache cache;
  EXPECT_THROW(cache.GetOrCompute(
                   StructKey(3),
                   []() -> std::vector<double> {
                     throw std::runtime_error("transient");
                   }),
               std::runtime_error);
  // The key recovered: the next call is an ordinary miss that computes.
  auto handle =
      cache.GetOrCompute(StructKey(3), [] { return std::vector<double>(4, 0.5); });
  ASSERT_NE(handle, nullptr);
  EXPECT_EQ((*handle)[0], 0.5);
  EXPECT_EQ(cache.stats().misses, 2);

  // Concurrently: the first attempt fails after waiters have coalesced on
  // it; every thread must still end up with the (identical) value, via
  // retry, not a hang.
  std::atomic<int> attempts{0};
  auto flaky = [&]() -> std::vector<double> {
    int attempt = ++attempts;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (attempt == 1) throw std::runtime_error("transient");
    return std::vector<double>(4, 0.25);
  };
  constexpr int kThreads = 6;
  std::vector<std::shared_ptr<const std::vector<double>>> handles(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (;;) {
        try {
          handles[t] = cache.GetOrCompute(StructKey(9), flaky);
          return;
        } catch (const std::runtime_error&) {
          // The transient failure surfaced in this caller; try again.
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_GE(attempts.load(), 2);  // one failure, at least one success
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_NE(handles[t], nullptr) << "thread " << t;
    EXPECT_EQ((*handles[t])[0], 0.25);
  }
}

// The churn race: many threads, more keys than the budget holds, evictions
// racing GetOrCompute calls. Three invariants, checked continuously from
// every thread: the budget is never exceeded in any stats() snapshot,
// every handle is valid, and every answer is bitwise the reference for its
// key.
TEST(CacheEvictionTest, BudgetHoldsAndAnswersStayBitwiseUnderChurnRaces) {
  constexpr int kKeys = 12;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 40;
  std::vector<AndXorTree> trees;
  std::vector<RankDistribution> references;
  for (int i = 0; i < kKeys; ++i) {
    trees.push_back(RandomTree(1000 + static_cast<uint64_t>(i)));
    references.push_back(ComputeRankDistribution(trees.back(), 2 + i % 3));
  }

  // Budget: measured charge of the two largest entries — guaranteed churn.
  int64_t largest = 0;
  int64_t second = 0;
  for (int i = 0; i < kKeys; ++i) {
    RankDistCache one;
    one.GetOrCompute(StructKey(1), 2, [&] { return references[i]; });
    int64_t cost = one.stats().bytes;
    if (cost >= largest) {
      second = largest;
      largest = cost;
    } else if (cost > second) {
      second = cost;
    }
  }
  const int64_t budget = largest + second;
  RankDistCache cache(budget);

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(77 + static_cast<uint64_t>(t));
      for (int op = 0; op < kOpsPerThread; ++op) {
        const int i = static_cast<int>(rng.Next() % kKeys);
        const int k = 2 + i % 3;
        auto handle = cache.GetOrCompute(
            StructKey(static_cast<uint64_t>(i)), k,
            [&] { return ComputeRankDistribution(trees[i], k); });
        ASSERT_NE(handle, nullptr);
        ExpectSameDist(*handle, references[i]);
        CacheStats stats = cache.stats();
        ASSERT_LE(stats.bytes, budget) << "budget exceeded mid-churn";
        ASSERT_GE(stats.bytes, 0);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  CacheStats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0) << "the workload was meant to churn";
  EXPECT_LE(stats.bytes, budget);
  EXPECT_EQ(stats.hits + stats.misses + stats.coalesced,
            static_cast<int64_t>(kThreads) * kOpsPerThread);
}

// The same churn through the MarginalsCache.
TEST(CacheEvictionTest, MarginalsCacheChurnKeepsBudgetAndBits) {
  constexpr int kKeys = 8;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 50;
  std::vector<AndXorTree> trees;
  std::vector<std::vector<double>> references;
  for (int i = 0; i < kKeys; ++i) {
    trees.push_back(RandomTree(2000 + static_cast<uint64_t>(i)));
    references.push_back(trees.back().LeafMarginals());
  }
  const int64_t budget = 3 * MeasuredMarginalCost(references[0].size());
  MarginalsCache cache(budget);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(5 + static_cast<uint64_t>(t));
      for (int op = 0; op < kOpsPerThread; ++op) {
        const int i = static_cast<int>(rng.Next() % kKeys);
        auto handle = cache.GetOrCompute(
            StructKey(static_cast<uint64_t>(i)),
            [&] { return trees[i].LeafMarginals(); });
        ASSERT_NE(handle, nullptr);
        ASSERT_EQ(*handle, references[i]);  // vector == is bitwise here
        ASSERT_LE(cache.stats().bytes, budget);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_LE(cache.stats().bytes, budget);
}

// ---------------------------------------------------------------------------
// End to end: budget-independence of served answers
// ---------------------------------------------------------------------------

// The acceptance scenario, at the scheduler level: a churn workload (many
// distinct (tree, k) keys) against a tiny budget answers bitwise exactly
// what an unbounded cache and direct engine calls answer, while the tiny cache
// actually evicts and never exceeds its budget.
TEST(CacheEvictionTest, TinyAndInfiniteBudgetsServeIdenticalAnswers) {
  constexpr int kTrees = 6;
  EngineOptions engine_options;
  engine_options.num_threads = 2;
  Engine engine(engine_options);
  TreeCatalog catalog;
  for (int i = 0; i < kTrees; ++i) {
    ASSERT_TRUE(
        catalog.Insert("tree" + std::to_string(i), RandomTree(3000 + i)).ok());
  }

  std::vector<ServiceRequest> churn;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < kTrees; ++i) {
      ServiceRequest topk;
      topk.op = ServiceRequest::Op::kTopK;
      topk.tree_name = "tree" + std::to_string(i);
      topk.k = 2 + (i + round) % 3;
      topk.metric =
          i % 2 == 0 ? TopKMetric::kSymDiff : TopKMetric::kFootrule;
      churn.push_back(topk);
      ServiceRequest world;
      world.op = ServiceRequest::Op::kWorld;
      world.tree_name = topk.tree_name;
      world.median_world = i % 2 == 1;
      churn.push_back(world);
    }
  }

  SchedulerOptions tiny_options;
  tiny_options.cache_budget_bytes = 4096;  // a couple of entries at most
  QueryScheduler tiny(&engine, &catalog, tiny_options);
  QueryScheduler unbounded(&engine, &catalog);

  auto tiny_results = tiny.ExecuteBatch(churn);
  auto warm_tiny_results = tiny.ExecuteBatch(churn);  // evicted + re-folded
  auto unbounded_results = unbounded.ExecuteBatch(churn);
  auto direct_results = DirectAnswers(catalog, churn);
  for (size_t i = 0; i < churn.size(); ++i) {
    ASSERT_TRUE(tiny_results[i].ok()) << tiny_results[i].status().ToString();
    ASSERT_TRUE(unbounded_results[i].ok());
    ASSERT_TRUE(direct_results[i].ok());
    EXPECT_EQ(tiny_results[i]->keys, direct_results[i]->keys) << i;
    EXPECT_EQ(tiny_results[i]->expected_distance,
              direct_results[i]->expected_distance);
    EXPECT_EQ(warm_tiny_results[i]->keys, direct_results[i]->keys);
    EXPECT_EQ(warm_tiny_results[i]->expected_distance,
              direct_results[i]->expected_distance);
    EXPECT_EQ(unbounded_results[i]->keys, direct_results[i]->keys);
    EXPECT_EQ(unbounded_results[i]->expected_distance,
              direct_results[i]->expected_distance);
  }
  // The tiny cache worked for its living: it evicted, stayed in budget,
  // and the unbounded sibling kept every distinct (fingerprint, k) entry.
  CacheStats tiny_stats = tiny.cache_stats();
  EXPECT_GT(tiny_stats.evictions, 0);
  EXPECT_LE(tiny_stats.bytes, tiny_options.cache_budget_bytes);
  EXPECT_LE(tiny.marginals_stats().bytes, tiny_options.cache_budget_bytes);
  CacheStats unbounded_stats = unbounded.cache_stats();
  EXPECT_EQ(unbounded_stats.evictions, 0);
  // 6 trees x 3 distinct k values each over the rounds.
  EXPECT_EQ(unbounded_stats.entries, kTrees * 3);
  EXPECT_EQ(unbounded.marginals_stats().entries, kTrees);
}

}  // namespace
}  // namespace cpdb
