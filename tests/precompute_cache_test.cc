// Copyright 2026 The ConsensusDB Authors
//
// Tests for the PrecomputeCache — the serving layer's memo of the metric
// tails (kendall mean answers, symdiff median searches, expected ranks). The
// load-bearing property is the usual one for a cache of deterministic
// values: kendall mean, symdiff median and erank answers are bitwise the
// direct engine calls' under any budget, thread count, shard count,
// execution mode, cold or warm. Also pinned: single-flight (N
// concurrent identical Kendall requests compute once), the byte budget in
// every stats snapshot, a warm Kendall repeat served without folding, and
// the sharded scrape as the per-shard sum. Real threads throughout, so the
// TSan CI job watches the lock discipline.

#include "service/precompute_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "direct_answers.h"
#include "engine/engine.h"
#include "execute_alone.h"
#include "io/request_protocol.h"
#include "model/canonical.h"
#include "obs/metrics.h"
#include "service/op_registry.h"
#include "service/query_scheduler.h"
#include "service/sharded_scheduler.h"
#include "service/tree_catalog.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

AndXorTree CanonicalRandomTree(uint64_t seed, int num_keys) {
  Rng rng(seed);
  RandomTreeOptions opts;
  opts.num_keys = num_keys;
  opts.max_depth = 3;
  opts.max_alternatives = 2;
  auto tree = RandomAndXorTree(opts, &rng);
  EXPECT_TRUE(tree.ok());
  return *CanonicalizeTree(*tree);
}

ServiceRequest TopKRequest(const std::string& tree, int k, TopKMetric metric,
                           TopKAnswer answer) {
  ServiceRequest request;
  request.op = ServiceRequest::Op::kTopK;
  request.tree_name = tree;
  request.k = k;
  request.metric = metric;
  request.answer = answer;
  return request;
}

ServiceRequest ErankRequest(const std::string& tree, int k) {
  ServiceRequest request;
  request.op = ServiceRequest::Op::kBaseline;
  request.tree_name = tree;
  request.k = k;
  request.baseline_method = "erank";
  return request;
}

ServiceRequest KendallRequest(const std::string& tree, int k) {
  return TopKRequest(tree, k, TopKMetric::kKendall, TopKAnswer::kMean);
}

// Every tail request twice per tree (the second a warm hit within the
// batch), two k values for the median, and two erank cutoffs sharing one
// expected-rank entry.
std::vector<ServiceRequest> TailBatch(const std::vector<std::string>& names) {
  std::vector<ServiceRequest> batch;
  for (int repeat = 0; repeat < 2; ++repeat) {
    for (const std::string& name : names) {
      batch.push_back(KendallRequest(name, 3));
      batch.push_back(
          TopKRequest(name, 3, TopKMetric::kSymDiff, TopKAnswer::kMedian));
      batch.push_back(
          TopKRequest(name, 2, TopKMetric::kSymDiff, TopKAnswer::kMedian));
      batch.push_back(ErankRequest(name, 3));
      batch.push_back(ErankRequest(name, 2));
    }
  }
  return batch;
}

std::vector<std::string> Render(
    const std::vector<Result<ServiceResponse>>& results) {
  std::vector<std::string> lines;
  for (const Result<ServiceResponse>& result : results) {
    lines.push_back(result.ok() ? FormatResponseLine(ResponseToFields(*result))
                                : result.status().ToString());
  }
  return lines;
}

// One serve back end, single-engine or sharded, as CmdServe builds it.
class Backend {
 public:
  Backend(int shards, int threads, const SchedulerOptions& options) {
    EngineOptions engine_options;
    if (shards > 1) {
      engine_options.num_threads =
          ShardedScheduler::ThreadsPerShard(threads, shards);
      sharded_ = std::make_unique<ShardedScheduler>(shards, engine_options,
                                                    options);
      return;
    }
    engine_options.num_threads = threads;
    engine_ = std::make_unique<Engine>(engine_options);
    scheduler_ = std::make_unique<QueryScheduler>(engine_.get(), &catalog_,
                                                  options);
  }

  void Insert(const std::string& name, const AndXorTree& tree) {
    ASSERT_TRUE((sharded_ != nullptr ? sharded_->Insert(name, tree)
                                     : catalog_.Insert(name, tree))
                    .ok());
  }

  std::vector<Result<ServiceResponse>> Run(
      const std::vector<ServiceRequest>& batch, bool stream) {
    QueryScheduler& scheduler = sharded_ != nullptr ? *sharded_ : *scheduler_;
    if (!stream) return scheduler.ExecuteBatch(batch);
    std::vector<Result<ServiceResponse>> results;
    for (const ServiceRequest& request : batch) {
      results.push_back(ExecuteAlone(scheduler, request));
    }
    return results;
  }

  // Each shard's own scrape (one for the single-engine scheduler).
  std::vector<MetricsSnapshot> PerShardScrapes() const {
    if (sharded_ != nullptr) return sharded_->PerShardMetricsSnapshots();
    return {scheduler_->MetricsSnapshotNow()};
  }

 private:
  std::unique_ptr<Engine> engine_;
  TreeCatalog catalog_;
  std::unique_ptr<QueryScheduler> scheduler_;
  std::unique_ptr<ShardedScheduler> sharded_;
};

class PrecomputeCacheServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trees_ = {CanonicalRandomTree(11, 7), CanonicalRandomTree(22, 8),
              CanonicalRandomTree(33, 6)};
    names_ = {"a", "b", "c"};
  }

  void Seed(Backend* backend) {
    for (size_t i = 0; i < trees_.size(); ++i) {
      backend->Insert(names_[i], trees_[i]);
    }
  }

  std::vector<AndXorTree> trees_;
  std::vector<std::string> names_;
};

// The acceptance matrix: budget {0, 4096, unbounded} x threads {1, 4} x
// shards {1, 4} x batch/stream x cold/warm, every answer against direct
// single-thread engine calls — and the budget binding every shard's charged
// bytes afterwards.
TEST_F(PrecomputeCacheServeTest, TailAnswersBitwiseAcrossConfigurations) {
  const std::vector<ServiceRequest> batch = TailBatch(names_);
  TreeCatalog reference_catalog;
  for (size_t i = 0; i < trees_.size(); ++i) {
    ASSERT_TRUE(reference_catalog.Insert(names_[i], trees_[i]).ok());
  }
  const std::vector<std::string> reference =
      Render(DirectAnswers(reference_catalog, batch));
  for (const std::string& line : reference) {
    ASSERT_EQ(line.rfind("ok\t", 0), 0u) << line;
  }

  for (int64_t budget : {int64_t{0}, int64_t{4096}, kUnboundedCacheBytes}) {
    for (int threads : {1, 4}) {
      for (int shards : {1, 4}) {
        for (bool stream : {false, true}) {
          SCOPED_TRACE("budget=" + std::to_string(budget) +
                       " threads=" + std::to_string(threads) +
                       " shards=" + std::to_string(shards) +
                       " stream=" + std::to_string(stream));
          SchedulerOptions options;
          options.cache_budget_bytes = budget;
          Backend backend(shards, threads, options);
          Seed(&backend);
          EXPECT_EQ(Render(backend.Run(batch, stream)), reference) << "cold";
          EXPECT_EQ(Render(backend.Run(batch, stream)), reference) << "warm";
          if (budget == kUnboundedCacheBytes) continue;
          for (const MetricsSnapshot& scrape : backend.PerShardScrapes()) {
            EXPECT_LE(scrape.Find("cpdb_precompute_cache_bytes")->value,
                      budget);
          }
        }
      }
    }
  }
}

// Single-flight: N threads issuing one Kendall request at once compute its
// answer exactly once; everyone else hits or coalesces, and all answers
// agree to the byte.
TEST_F(PrecomputeCacheServeTest, ConcurrentIdenticalKendallRequestsMissOnce) {
  constexpr int kThreads = 8;
  EngineOptions engine_options;
  engine_options.num_threads = 2;
  Engine engine(engine_options);
  TreeCatalog catalog;
  ASSERT_TRUE(catalog.Insert("big", CanonicalRandomTree(44, 12)).ok());
  QueryScheduler scheduler(&engine, &catalog);

  std::atomic<bool> go{false};
  std::vector<std::string> lines(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      lines[static_cast<size_t>(t)] =
          Render({ExecuteAlone(scheduler, KendallRequest("big", 4))})[0];
    });
  }
  go.store(true);
  for (std::thread& worker : workers) worker.join();

  for (const std::string& line : lines) EXPECT_EQ(line, lines[0]);
  EXPECT_EQ(lines[0].rfind("ok\t", 0), 0u) << lines[0];
  const CacheStats stats = scheduler.precompute_stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits + stats.coalesced, kThreads - 1);
  EXPECT_EQ(stats.entries, 1);
}

// The budget binds in every snapshot while writers churn all three kinds
// and a reader samples the counters; every handle holds the value its
// key's compute produced.
TEST(PrecomputeCacheTest, BytesNeverExceedBudgetUnderChurn) {
  constexpr int64_t kBudget = 4096;
  PrecomputeCache cache(kBudget);
  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::atomic<int> wrong_values{0};
  std::thread watcher([&] {
    while (!done.load()) {
      if (cache.stats().bytes > kBudget) ++violations;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < 400; ++i) {
        const int key = static_cast<int>(rng.UniformInt(0, 31));
        const size_t n = static_cast<size_t>(key % 7 + 1);
        const double fill = static_cast<double>(key);
        switch (key % 3) {
          case 0: {
            auto mean = cache.KendallMean(StructKey(key), 3, [&] {
              TopKResult result;
              result.keys.assign(n * 2, key);
              result.expected_distance = fill;
              return Result<TopKResult>(result);
            });
            if (!mean->ok() || (*mean)->keys.size() != n * 2 ||
                (*mean)->expected_distance != fill) {
              ++wrong_values;
            }
            break;
          }
          case 1: {
            auto median = cache.SymDiffMedian(StructKey(key), 3, [&] {
              TopKResult result;
              result.keys.assign(n, key);
              result.expected_distance = fill;
              return Result<TopKResult>(result);
            });
            if (!median->ok() || (*median)->expected_distance != fill) {
              ++wrong_values;
            }
            break;
          }
          default: {
            auto ranks = cache.ExpectedRanks(StructKey(key), [&] {
              return std::vector<double>(n * 8, fill);
            });
            if (ranks->size() != n * 8 || (*ranks)[0] != fill) ++wrong_values;
            break;
          }
        }
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  done.store(true);
  watcher.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(wrong_values.load(), 0);
  const CacheStats stats = cache.stats();
  EXPECT_LE(stats.bytes, kBudget);
  EXPECT_GT(stats.evictions, 0);
  EXPECT_EQ(stats.hits + stats.misses + stats.coalesced, 4 * 400);
}

// The kinds share one key space without colliding: one (shape, k) holds a
// kendall mean and a median side by side, each its own answer although
// both are TopKResults, and erank's entry ignores k.
TEST(PrecomputeCacheTest, KindsAreDistinctEntriesOfOneShape) {
  PrecomputeCache cache;
  auto answer = [](KeyId key) {
    TopKResult result;
    result.keys = {key};
    return Result<TopKResult>(result);
  };
  cache.KendallMean(StructKey(7), 3, [&] { return answer(1); });
  cache.SymDiffMedian(StructKey(7), 3, [&] { return answer(2); });
  cache.ExpectedRanks(StructKey(7), [] { return std::vector<double>(3); });
  cache.ExpectedRanks(StructKey(7), [] { return std::vector<double>(3); });
  EXPECT_EQ(
      (*cache.KendallMean(StructKey(7), 3, [&] { return answer(3); }))->keys,
      std::vector<KeyId>{1});
  EXPECT_EQ(
      (*cache.SymDiffMedian(StructKey(7), 3, [&] { return answer(3); }))->keys,
      std::vector<KeyId>{2});
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 3);
  EXPECT_EQ(stats.misses, 3);
  EXPECT_EQ(stats.hits, 3);
}

// A failed kendall mean is the engine's deterministic output for its key,
// so it is cached like a success and not recomputed. Each answer is charged
// its Result plus its keys; a failure, no keys.
TEST(PrecomputeCacheTest, KendallMeanCachesFailuresAndChargesItsKeys) {
  PrecomputeCache cache;
  int computes = 0;
  auto fail = [&] {
    ++computes;
    return Result<TopKResult>(Status::InvalidArgument("no answer"));
  };
  cache.KendallMean(StructKey(1), 3, fail);
  auto failed = cache.KendallMean(StructKey(1), 3, fail);
  EXPECT_EQ(computes, 1);
  ASSERT_FALSE(failed->ok());
  EXPECT_EQ(failed->status().code(), StatusCode::kInvalidArgument);
  const int64_t result_bytes = sizeof(Result<TopKResult>);
  EXPECT_EQ(cache.stats().bytes, result_bytes);

  cache.KendallMean(StructKey(2), 3, [] {
    TopKResult result;
    result.keys = {4, 5, 6};
    return Result<TopKResult>(result);
  });
  EXPECT_EQ(cache.stats().bytes,
            2 * result_bytes + 3 * static_cast<int64_t>(sizeof(KeyId)));
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.hits, 1);
}

// A warm Kendall repeat pays no compile, footrule solve or q column: the
// precompute cache registers a hit, the engine's compile counter stays
// put, and the answer is the direct engine call's, bitwise — in a batch
// and one at a time alike.
TEST_F(PrecomputeCacheServeTest, WarmKendallRepeatHitsWithoutFolding) {
  Engine engine;
  TreeCatalog catalog;
  ASSERT_TRUE(catalog.Insert("a", trees_[0]).ok());
  QueryScheduler scheduler(&engine, &catalog);
  const ServiceRequest request = KendallRequest("a", 3);
  const std::vector<Result<ServiceResponse>> cold_responses =
      scheduler.ExecuteBatch({request});
  const std::vector<std::string> cold = Render(cold_responses);
  const CacheStats before = scheduler.precompute_stats();
  const int64_t compiles = engine.obs_counters().fold_compiles;
  EXPECT_EQ(before.misses, 1);

  EXPECT_EQ(Render(scheduler.ExecuteBatch({request})), cold);
  EXPECT_EQ(Render({ExecuteAlone(scheduler, request)}), cold);
  const CacheStats after = scheduler.precompute_stats();
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.hits, before.hits + 2);
  EXPECT_EQ(engine.obs_counters().fold_compiles, compiles);

  Result<TopKResult> direct =
      engine.ConsensusTopK(trees_[0], 3, TopKMetric::kKendall);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(cold_responses[0].ok());
  EXPECT_EQ(cold_responses[0]->keys, direct->keys);
  EXPECT_EQ(cold_responses[0]->expected_distance, direct->expected_distance);
}

// The sharded scrape's cpdb_precompute_cache_* samples are the per-shard
// sums, and the misses count each distinct (shape, kind, k) key once.
TEST_F(PrecomputeCacheServeTest, ShardedScrapeIsThePerShardSum) {
  ShardedScheduler sharded(4, EngineOptions());
  for (size_t i = 0; i < trees_.size(); ++i) {
    ASSERT_TRUE(sharded.Insert(names_[i], trees_[i]).ok());
  }
  for (const auto& result : sharded.ExecuteBatch(TailBatch(names_))) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  const MetricsSnapshot merged = sharded.MetricsSnapshotNow();
  const std::vector<MetricsSnapshot> per_shard =
      sharded.PerShardMetricsSnapshots();
  for (const char* field : {"hits_total", "misses_total", "coalesced_total",
                            "evictions_total", "entries", "bytes"}) {
    const std::string name = std::string("cpdb_precompute_cache_") + field;
    int64_t sum = 0;
    for (const MetricsSnapshot& snap : per_shard) {
      sum += snap.Find(name)->value;
    }
    EXPECT_EQ(merged.Find(name)->value, sum) << name;
  }
  // Per tree: one kendall mean, two medians (k = 3, 2), one rank vector.
  const int64_t keys = 4 * static_cast<int64_t>(trees_.size());
  EXPECT_EQ(merged.Find("cpdb_precompute_cache_misses_total")->value, keys);
  EXPECT_EQ(merged.Find("cpdb_precompute_cache_entries")->value, keys);
  EXPECT_EQ(merged.Find("cpdb_precompute_cache_hits_total")->value,
            static_cast<int64_t>(TailBatch(names_).size()) - keys);
}

}  // namespace
}  // namespace cpdb
