// Copyright 2026 The ConsensusDB Authors
//
// Tests for the thread pool and the parallel evaluation engine: full index
// coverage, schedule determinism (bitwise-identical results for any thread
// count) and parity with the sequential core functions.

#include "engine/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/rank_distribution.h"
#include "core/set_consensus.h"
#include "core/topk_footrule.h"
#include "core/topk_intersection.h"
#include "core/topk_symdiff.h"
#include "model/builders.h"
#include "oracle/fold_oracles.h"
#include "oracle/kendall_oracles.h"
#include "oracle/table_generators.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

AndXorTree RandomDeepTree(uint64_t seed, int num_keys = 8) {
  Rng rng(seed);
  RandomTreeOptions opts;
  opts.num_keys = num_keys;
  opts.max_depth = 3;
  opts.max_alternatives = 2;
  auto tree = RandomAndXorTree(opts, &rng);
  EXPECT_TRUE(tree.ok());
  return *std::move(tree);
}

AndXorTree RandomBidTree(uint64_t seed, int num_keys = 10) {
  Rng rng(seed);
  RandomTreeOptions opts;
  opts.num_keys = num_keys;
  opts.max_alternatives = 3;
  auto tree = RandomBid(opts, &rng);
  EXPECT_TRUE(tree.ok());
  return *std::move(tree);
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexOnce) {
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    const int64_t n = 10000;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    pool.ParallelFor(n, [&](int64_t i) { hits[i].fetch_add(1); });
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ThreadPoolTest, AbsurdThreadCountIsClampedNotFatal) {
  ThreadPool pool(1000000);
  EXPECT_EQ(pool.num_threads(), ThreadPool::kMaxThreads);
  std::atomic<int> count{0};
  pool.ParallelFor(1000, [&](int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, ParallelForHandlesEmptyAndTinyRanges) {
  ThreadPool pool(4);
  pool.ParallelFor(0, [](int64_t) { FAIL() << "body called for n = 0"; });
  std::atomic<int> count{0};
  pool.ParallelFor(1, [&](int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, SubmitRunsEveryTask) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&] { count.fetch_add(1); });
    }
    // Destructor drains the queue before joining.
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.ParallelFor(8, [&](int64_t) {
    pool.ParallelFor(8, [&](int64_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 64);
}

// The outer index whose body this thread is running, or -1.
thread_local int64_t current_outer = -1;

// A caller waiting in ParallelFor runs only its own loop's indices: a
// thread inside outer body i never starts another outer body, and the inner
// bodies it runs are loop i's. (A waiting caller that ran queued tasks
// would run other loops' helpers with its own tag still set.)
TEST(ThreadPoolTest, WaitingCallerNeverRunsAnotherLoopsBody) {
  ThreadPool pool(4);
  std::atomic<int> foreign{0};
  std::atomic<int> inner_calls{0};
  pool.ParallelFor(32, [&](int64_t i) {
    if (current_outer != -1) foreign.fetch_add(1);
    current_outer = i;
    pool.ParallelFor(16, [&, i](int64_t) {
      if (current_outer != -1 && current_outer != i) foreign.fetch_add(1);
      inner_calls.fetch_add(1);
      // Uneven, slow enough that callers wait on one another's indices.
      std::this_thread::sleep_for(std::chrono::microseconds(20 + i % 3 * 20));
    });
    current_outer = -1;
  });
  EXPECT_EQ(foreign.load(), 0);
  EXPECT_EQ(inner_calls.load(), 32 * 16);
}

// A helper that starts after its loop returned claims nothing and leaves
// `body`, by then destroyed, alone. The one worker is blocked while the
// caller runs every index, so the loop's helper can only start late.
TEST(ThreadPoolTest, LateHelperOfReturnedLoopTouchesNothing) {
  ThreadPool pool(2);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  pool.Submit([released] { released.wait(); });
  std::atomic<int> calls{0};
  {
    auto body = std::make_unique<std::function<void(int64_t)>>(
        [&calls](int64_t) { calls.fetch_add(1); });
    pool.ParallelFor(8, *body);
    EXPECT_EQ(calls.load(), 8);
  }  // `body` is freed while the helper is still queued.
  release.set_value();
  // FIFO with one worker: this runs after the late helper.
  std::promise<void> drained;
  pool.Submit([&drained] { drained.set_value(); });
  drained.get_future().wait();
  EXPECT_EQ(calls.load(), 8);
}

// A loop runs on at most `width` threads, the caller among them; width 1
// runs every index on the calling thread.
TEST(ThreadPoolTest, ParallelForRunsOnAtMostWidthThreads) {
  ThreadPool pool(8);
  for (int width : {1, 2, 3}) {
    std::mutex mu;
    std::set<std::thread::id> seen;
    pool.ParallelFor(
        64,
        [&](int64_t) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          std::lock_guard<std::mutex> lock(mu);
          seen.insert(std::this_thread::get_id());
        },
        width);
    EXPECT_LE(static_cast<int>(seen.size()), width) << "width " << width;
    if (width == 1) {
      EXPECT_EQ(seen.count(std::this_thread::get_id()), 1u);
    }
  }
}

// An engine that borrows a pool runs at its width, clamped to the pool,
// and answers as an engine owning a pool of that size does.
TEST(EngineTest, BorrowedPoolRunsAtItsWidth) {
  ThreadPool pool(4);
  EXPECT_EQ(Engine(&pool, 0).num_threads(), 1);
  EXPECT_EQ(Engine(&pool, 2).num_threads(), 2);
  EXPECT_EQ(Engine(&pool, 9).num_threads(), 4);
  const Engine narrow(&pool, 1);
  std::set<std::thread::id> seen;
  narrow.ParallelFor(16, [&](int64_t) {
    seen.insert(std::this_thread::get_id());  // one thread: no race
  });
  EXPECT_EQ(seen, std::set<std::thread::id>{std::this_thread::get_id()});

  // Enough cells that the scan splits into chunks on the borrowed pool.
  const AndXorTree tree = RandomDeepTree(7, 40);
  ASSERT_GE(FanOutUnits(tree.NumLeaves(), tree.NumLeaves() * 30, 4), 2);
  const Engine wide(&pool, 4);
  const RankDistribution got = wide.ComputeRankDistribution(tree, 30);
  const RankDistribution want = ComputeRankDistribution(tree, 30);
  ASSERT_EQ(got.keys(), want.keys());
  for (KeyId key : want.keys()) {
    for (int i = 1; i <= 30; ++i) {
      ASSERT_EQ(got.PrRankEq(key, i), want.PrRankEq(key, i));
    }
  }
}

// ---------------------------------------------------------------------------
// Engine — determinism and parity of the exact paths
// ---------------------------------------------------------------------------

// The parallel rank distribution must match the sequential core function
// bitwise, for every thread count (the merge replays the same accumulation
// order).
TEST(EngineTest, RankDistributionBitwiseEqualAcrossThreadCounts) {
  const int k = 5;
  for (uint64_t seed : {1u, 2u, 3u}) {
    AndXorTree tree = RandomDeepTree(seed);
    RankDistribution expected = ComputeRankDistribution(tree, k);
    for (int threads : {1, 2, 4, 8}) {
      EngineOptions opts;
      opts.num_threads = threads;
      Engine engine(opts);
      RankDistribution dist = engine.ComputeRankDistribution(tree, k);
      ASSERT_EQ(dist.keys(), expected.keys());
      for (KeyId key : expected.keys()) {
        for (int i = 1; i <= k; ++i) {
          // Bitwise equality, not EXPECT_NEAR: the parallel path must be
          // indistinguishable from the sequential one.
          ASSERT_EQ(dist.PrRankEq(key, i), expected.PrRankEq(key, i))
              << "seed " << seed << " threads " << threads << " key " << key
              << " rank " << i;
          ASSERT_EQ(dist.PrRankLe(key, i), expected.PrRankLe(key, i));
        }
      }
    }
  }
}

TEST(EngineTest, RankDistributionOnBidTreeBitwiseEqualsPointerFold) {
  // BID trees take the general scan like every other tree, with default
  // options, so the pointer fold pins them bit for bit.
  const int k = 4;
  AndXorTree tree = RandomBidTree(7, 40);
  EngineOptions opts;
  opts.num_threads = 4;
  Engine engine(opts);
  RankDistribution dist = engine.ComputeRankDistribution(tree, k);
  RankDistribution reference = ComputeRankDistributionPointer(tree, k);
  ASSERT_EQ(dist.keys(), reference.keys());
  for (KeyId key : reference.keys()) {
    for (int i = 1; i <= k; ++i) {
      ASSERT_EQ(dist.PrRankEq(key, i), reference.PrRankEq(key, i))
          << "key " << key << " rank " << i;
    }
  }
}

TEST(EngineTest, NegativeKRankDistributionIsKZero) {
  // k < 0 reads as k = 0: every key, no ranks. It used to size the
  // per-key rows by k + 1 through size_t and throw std::length_error.
  AndXorTree tree = RandomDeepTree(13);
  Engine engine;
  for (int k : {-1, -2}) {
    RankDistribution dist = engine.ComputeRankDistribution(tree, k);
    EXPECT_EQ(dist.k(), 0);
    EXPECT_EQ(dist.keys(), tree.Keys());
    for (KeyId key : dist.keys()) {
      EXPECT_EQ(dist.PrTopK(key), 0.0);
      EXPECT_EQ(dist.PrRankEq(key, 1), 0.0);
    }
  }
}

TEST(EngineTest, ConsensusTopKMatchesDirectCoreCalls) {
  const int k = 3;
  AndXorTree tree = RandomDeepTree(13);
  RankDistribution dist = ComputeRankDistribution(tree, k);
  EngineOptions opts;
  opts.num_threads = 4;
  Engine engine(opts);

  auto mean_sym = engine.ConsensusTopK(tree, k, TopKMetric::kSymDiff);
  ASSERT_TRUE(mean_sym.ok());
  EXPECT_EQ(mean_sym->keys, MeanTopKSymDiff(dist).keys);

  auto median_sym =
      engine.ConsensusTopK(tree, k, TopKMetric::kSymDiff, TopKAnswer::kMedian);
  ASSERT_TRUE(median_sym.ok());
  auto median_direct = MedianTopKSymDiff(tree, dist);
  ASSERT_TRUE(median_direct.ok());
  EXPECT_EQ(median_sym->keys, median_direct->keys);

  auto mean_foot = engine.ConsensusTopK(tree, k, TopKMetric::kFootrule);
  ASSERT_TRUE(mean_foot.ok());
  auto foot_direct = MeanTopKFootrule(dist);
  ASSERT_TRUE(foot_direct.ok());
  EXPECT_EQ(mean_foot->keys, foot_direct->keys);

  auto approx_int = engine.ConsensusTopK(tree, k, TopKMetric::kIntersection,
                                         TopKAnswer::kMeanApprox);
  ASSERT_TRUE(approx_int.ok());
  EXPECT_EQ(approx_int->keys, MeanTopKIntersectionApprox(dist).keys);
}

// The engine's kendall path computes the footrule answer's q columns in
// parallel and re-scores it from them alone; the result must match the
// sequential evaluator bitwise for any thread count.
TEST(EngineTest, KendallConsensusMatchesSequentialEvaluator) {
  const int k = 3;
  AndXorTree tree = RandomDeepTree(41, 6);
  RankDistribution dist = ComputeRankDistribution(tree, k);
  KendallEvaluator evaluator(tree, k);
  auto direct = MeanTopKKendallViaFootrule(evaluator, dist);
  ASSERT_TRUE(direct.ok());
  for (int threads : {1, 2, 4, 8}) {
    EngineOptions opts;
    opts.num_threads = threads;
    Engine engine(opts);
    auto got = engine.ConsensusTopK(tree, k, TopKMetric::kKendall);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->keys, direct->keys) << "threads " << threads;
    EXPECT_EQ(got->expected_distance, direct->expected_distance);
  }
}

// The parallel Theorem 4 stratum search must reproduce the sequential
// MedianTopKSymDiff bitwise — same answer keys and same expected distance —
// for every thread count.
TEST(EngineTest, MedianSymDiffBitwiseAcrossThreadCounts) {
  const int k = 3;
  for (uint64_t seed : {3u, 43u, 47u}) {
    AndXorTree tree = RandomDeepTree(seed);
    RankDistribution dist = ComputeRankDistribution(tree, k);
    auto direct = MedianTopKSymDiff(tree, dist);
    ASSERT_TRUE(direct.ok());
    for (int threads : {1, 2, 4, 8}) {
      EngineOptions opts;
      opts.num_threads = threads;
      Engine engine(opts);
      auto got = engine.ConsensusTopK(tree, k, TopKMetric::kSymDiff,
                                      TopKAnswer::kMedian);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(got->keys, direct->keys)
          << "seed " << seed << " threads " << threads;
      ASSERT_EQ(got->expected_distance, direct->expected_distance);
    }
  }
}

// Footrule and intersection-exact fan per-candidate Hungarian cost/profit
// columns across the pool; both must match the sequential core bitwise for
// every thread count.
TEST(EngineTest, AssignmentMetricsBitwiseAcrossThreadCounts) {
  const int k = 3;
  for (uint64_t seed : {5u, 53u}) {
    AndXorTree tree = RandomDeepTree(seed);
    RankDistribution dist = ComputeRankDistribution(tree, k);
    auto foot_direct = MeanTopKFootrule(dist);
    auto int_direct = MeanTopKIntersectionExact(dist);
    ASSERT_TRUE(foot_direct.ok());
    ASSERT_TRUE(int_direct.ok());
    for (int threads : {1, 2, 4, 8}) {
      EngineOptions opts;
      opts.num_threads = threads;
      Engine engine(opts);
      auto foot = engine.ConsensusTopK(tree, k, TopKMetric::kFootrule);
      ASSERT_TRUE(foot.ok());
      ASSERT_EQ(foot->keys, foot_direct->keys)
          << "seed " << seed << " threads " << threads;
      ASSERT_EQ(foot->expected_distance, foot_direct->expected_distance);
      auto inter = engine.ConsensusTopK(tree, k, TopKMetric::kIntersection);
      ASSERT_TRUE(inter.ok());
      ASSERT_EQ(inter->keys, int_direct->keys)
          << "seed " << seed << " threads " << threads;
      ASSERT_EQ(inter->expected_distance, int_direct->expected_distance);
    }
  }
}

// ---------------------------------------------------------------------------
// Engine — the fan-out rule
// ---------------------------------------------------------------------------

// Deep random tree with a leaf count in [lo, hi].
AndXorTree DeepTreeWithLeaves(uint64_t seed, int num_keys, int depth, int lo,
                              int hi) {
  Rng rng(seed);
  RandomTreeOptions opts;
  opts.num_keys = num_keys;
  opts.max_depth = depth;
  opts.max_alternatives = 2;
  while (true) {
    Result<AndXorTree> tree = RandomAndXorTree(opts, &rng);
    EXPECT_TRUE(tree.ok());
    if (tree->NumLeaves() >= lo && tree->NumLeaves() <= hi) {
      return *std::move(tree);
    }
  }
}

// A scan's cells: L × min(k, L).
int64_t ScanCells(int64_t leaves, int64_t k) {
  return leaves * std::min(k, leaves);
}

TEST(FanOutUnitsTest, SizesUnitsByWorkNotByThreads) {
  // One thread never fans out, however large the loop.
  EXPECT_EQ(FanOutUnits(3000, ScanCells(3000, 10), 1), 1);
  EXPECT_EQ(FanOutUnits(1 << 20, int64_t{1} << 40, 1), 1);
  // The heavy_sharded shape (44 leaves, k 5) and the cold_batch wide shape
  // (163 leaves, k 8) fold on the calling thread at 4 threads.
  EXPECT_EQ(FanOutUnits(44, ScanCells(44, 5), 4), 1);
  EXPECT_EQ(FanOutUnits(163, ScanCells(163, 8), 4), 1);
  // Twelve k = 5 cost columns, the heavy_sharded assignment tails.
  EXPECT_EQ(FanOutUnits(12, 12 * 5 * 5, 4), 1);
  // Kendall q columns repeat no base fold: the heavy shape's twelve, and
  // the kendall mean's five, fan out; a lone column runs inline.
  EXPECT_EQ(FanOutUnits(12, 12 * ScanCells(44, 5), 4,
                        kMinQColumnCellsPerPoolUnit),
            4);
  EXPECT_EQ(FanOutUnits(5, 5 * ScanCells(44, 5), 4,
                        kMinQColumnCellsPerPoolUnit),
            4);
  EXPECT_EQ(FanOutUnits(1, ScanCells(44, 5), 4, kMinQColumnCellsPerPoolUnit),
            1);
  // A ~3,000-leaf tree at k 10 pays for the handoff.
  EXPECT_GT(FanOutUnits(3000, ScanCells(3000, 10), 4), 1);
  // Never more units than threads or than pieces, never fewer than 1.
  for (int threads : {1, 2, 3, 4, 8, 256}) {
    for (int64_t units : {1, 2, 3, 5, 64, 3000}) {
      for (int64_t cells : {int64_t{0}, int64_t{1}, int64_t{4095},
                            int64_t{4096}, int64_t{30000},
                            int64_t{1} << 40}) {
        const int got = FanOutUnits(units, cells, threads);
        EXPECT_GE(got, 1);
        EXPECT_LE(got, threads);
        EXPECT_LE(got, units);
      }
    }
  }
  EXPECT_EQ(FanOutUnits(0, 0, 4), 1);
}

// Above the threshold every fan-out splits across the pool; each must still
// be bitwise its 1-thread result.
TEST(EngineTest, FannedOutWorkBitwiseEqualsOneThread) {
  EngineOptions one_opts;
  one_opts.num_threads = 1;
  EngineOptions four_opts;
  four_opts.num_threads = 4;
  const Engine one(one_opts);
  const Engine four(four_opts);

  // A rank scan of ~3,000 leaves at k 10 splits into chunks.
  const AndXorTree large = DeepTreeWithLeaves(31, 320, 4, 2900, 3100);
  ASSERT_GT(FanOutUnits(large.NumLeaves(), ScanCells(large.NumLeaves(), 10),
                        4),
            1);
  const RankDistribution dist_one = one.ComputeRankDistribution(large, 10);
  const RankDistribution dist_four = four.ComputeRankDistribution(large, 10);
  ASSERT_EQ(dist_four.keys(), dist_one.keys());
  for (KeyId key : dist_one.keys()) {
    for (int i = 1; i <= 10; ++i) {
      ASSERT_EQ(dist_four.PrRankEq(key, i), dist_one.PrRankEq(key, i))
          << "key " << key << " rank " << i;
      ASSERT_EQ(dist_four.PrRankLe(key, i), dist_one.PrRankLe(key, i));
    }
  }

  // 128 cost columns of k² = 64 cells each.
  const AndXorTree bid = RandomBidTree(67, 128);
  const RankDistribution bid_dist = ComputeRankDistribution(bid, 8);
  ASSERT_GT(FanOutUnits(128, 128 * 8 * 8, 4), 1);
  for (TopKMetric metric : {TopKMetric::kFootrule, TopKMetric::kIntersection}) {
    auto got_one = one.ConsensusTopKWithDist(bid, bid_dist, metric);
    auto got_four = four.ConsensusTopKWithDist(bid, bid_dist, metric);
    ASSERT_TRUE(got_one.ok());
    ASSERT_TRUE(got_four.ok());
    ASSERT_EQ(got_four->keys, got_one->keys) << TopKMetricName(metric);
    ASSERT_EQ(got_four->expected_distance, got_one->expected_distance);
  }

  // The whole Kendall q matrix of a ~100-leaf tree at k 8, column by column.
  const AndXorTree mid = DeepTreeWithLeaves(71, 24, 4, 95, 115);
  const std::vector<KeyId> keys = mid.Keys();
  const int64_t n = static_cast<int64_t>(keys.size());
  ASSERT_GT(FanOutUnits(n, n * ScanCells(mid.NumLeaves(), 8), 4), 1);
  ASSERT_EQ(four.KendallQColumns(mid, 8, keys),
            one.KendallQColumns(mid, 8, keys));

  // A heavy-band shape's q columns, split by the q-column minimum, and
  // the kendall mean built on the columns of its answer's keys.
  const AndXorTree heavy = DeepTreeWithLeaves(12, 12, 3, 42, 45);
  const std::vector<KeyId> heavy_keys = heavy.Keys();
  const int64_t heavy_n = static_cast<int64_t>(heavy_keys.size());
  ASSERT_GT(FanOutUnits(heavy_n, heavy_n * ScanCells(heavy.NumLeaves(), 5),
                        4, kMinQColumnCellsPerPoolUnit),
            1);
  ASSERT_EQ(four.KendallQColumns(heavy, 5, heavy_keys),
            one.KendallQColumns(heavy, 5, heavy_keys));
  const RankDistribution heavy_dist = ComputeRankDistribution(heavy, 5);
  auto kendall_one = one.ConsensusTopKWithDist(heavy, heavy_dist,
                                               TopKMetric::kKendall);
  auto kendall_four = four.ConsensusTopKWithDist(heavy, heavy_dist,
                                                 TopKMetric::kKendall);
  ASSERT_TRUE(kendall_one.ok());
  ASSERT_TRUE(kendall_four.ok());
  ASSERT_EQ(kendall_four->keys, kendall_one->keys);
  ASSERT_EQ(kendall_four->expected_distance, kendall_one->expected_distance);
}

// The world entry point over the engine's leaf marginals: worlds and
// expected distances must match the sequential core bitwise for any thread
// count.
TEST(EngineTest, SetConsensusBitwiseAcrossThreadCounts) {
  for (uint64_t seed : {7u, 59u, 61u}) {
    AndXorTree tree = RandomDeepTree(seed);
    std::vector<NodeId> mean = MeanWorldSymDiff(tree);
    std::vector<NodeId> median = MedianWorldSymDiff(tree);
    double mean_expected = ExpectedSymDiffDistance(tree, mean);
    double median_expected = ExpectedSymDiffDistance(tree, median);
    for (int threads : {1, 2, 4, 8}) {
      EngineOptions opts;
      opts.num_threads = threads;
      Engine engine(opts);
      const std::vector<double> marginals = engine.LeafMarginals(tree);
      ASSERT_EQ(marginals, tree.LeafMarginals());
      auto mean_world = engine.ConsensusWorldWithMarginals(tree, marginals,
                                                           /*median=*/false);
      auto median_world = engine.ConsensusWorldWithMarginals(tree, marginals,
                                                             /*median=*/true);
      ASSERT_TRUE(mean_world.ok());
      ASSERT_TRUE(median_world.ok());
      ASSERT_EQ(mean_world->leaf_ids, mean)
          << "seed " << seed << " threads " << threads;
      ASSERT_EQ(mean_world->expected_distance, mean_expected);
      ASSERT_EQ(median_world->leaf_ids, median);
      ASSERT_EQ(median_world->expected_distance, median_expected);
    }
  }
}

// The cache-aware entry point: supplying the precomputed rank distribution
// must change nothing about the answer — bitwise — for every metric. This
// is the engine-level half of the serving layer's cache-parity guarantee.
TEST(EngineTest, ConsensusTopKWithDistMatchesFreshComputation) {
  const int k = 3;
  AndXorTree tree = RandomDeepTree(83);
  EngineOptions opts;
  opts.num_threads = 4;
  Engine engine(opts);
  RankDistribution dist = engine.ComputeRankDistribution(tree, k);
  for (TopKMetric metric :
       {TopKMetric::kSymDiff, TopKMetric::kIntersection, TopKMetric::kFootrule,
        TopKMetric::kKendall}) {
    auto fresh = engine.ConsensusTopK(tree, k, metric);
    auto cached = engine.ConsensusTopKWithDist(tree, dist, metric);
    ASSERT_TRUE(fresh.ok());
    ASSERT_TRUE(cached.ok());
    EXPECT_EQ(cached->keys, fresh->keys);
    EXPECT_EQ(cached->expected_distance, fresh->expected_distance);
  }
}

// A distribution computed for one tree must never be silently applied to
// another: the key sets differ, and the call fails instead of optimizing
// over the wrong statistics.
TEST(EngineTest, ConsensusTopKWithDistRejectsForeignDistribution) {
  AndXorTree tree = RandomDeepTree(91, 8);
  AndXorTree other = RandomDeepTree(93, 5);  // different key count
  EngineOptions opts;
  Engine engine(opts);
  RankDistribution foreign = engine.ComputeRankDistribution(other, 3);
  auto result =
      engine.ConsensusTopKWithDist(tree, foreign, TopKMetric::kSymDiff);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("different tree"),
            std::string::npos);
}

TEST(EngineTest, ConsensusTopKRejectsBadArguments) {
  AndXorTree tree = RandomDeepTree(17);
  Engine engine;
  EXPECT_FALSE(engine.ConsensusTopK(tree, 0, TopKMetric::kSymDiff).ok());
  EXPECT_FALSE(engine
                   .ConsensusTopK(tree, 3, TopKMetric::kFootrule,
                                  TopKAnswer::kMedian)
                   .ok());
  EXPECT_FALSE(engine
                   .ConsensusTopK(tree, 3, TopKMetric::kSymDiff,
                                  TopKAnswer::kMeanApprox)
                   .ok());
}

TEST(EngineTest, SetConsensusDelegatesToCore) {
  AndXorTree tree = RandomDeepTree(19);
  Engine engine;
  const std::vector<double> marginals = engine.LeafMarginals(tree);
  EXPECT_EQ(engine.ConsensusWorldWithMarginals(tree, marginals, false)
                ->leaf_ids,
            MeanWorldSymDiff(tree));
  EXPECT_EQ(engine.ConsensusWorldWithMarginals(tree, marginals, true)
                ->leaf_ids,
            MedianWorldSymDiff(tree));
}

}  // namespace
}  // namespace cpdb
