// Copyright 2026 The ConsensusDB Authors
//
// Tests for the sharded serving front-end. The load-bearing property is the
// differential one: a ShardedScheduler's answers must be bitwise identical
// to a single-engine QueryScheduler's for every op, metric, shard count,
// cache budget, and execution mode — partitioning by content fingerprint
// must be observable only in throughput and in the kStats per-shard
// breakdown. Also covered: deterministic routing, name-directory semantics
// (cross-shard rebind conflicts, idempotent re-loads), stats aggregation,
// the streaming interleaving contract, and concurrent ExecuteBatch calls
// (this suite runs in the TSan CI job).

#include "service/sharded_scheduler.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "direct_answers.h"
#include "io/request_protocol.h"
#include "io/table_io.h"
#include "io/tree_text.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

constexpr char kTreeText[] =
    "(and (xor 0.6 (leaf key=1 score=8) 0.3 (leaf key=1 score=5))"
    " (xor 0.7 (leaf key=2 score=9))"
    " (xor 0.5 (leaf key=3 score=7) 0.5 (leaf key=3 score=6)))";

constexpr char kOtherTreeText[] =
    "(and (xor 0.5 (leaf key=4 score=3)) (xor 0.25 (leaf key=5 score=1)))";

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

ServiceRequest TopKRequest(const std::string& tree, int k, TopKMetric metric,
                           TopKAnswer answer = TopKAnswer::kMean) {
  ServiceRequest request;
  request.op = ServiceRequest::Op::kTopK;
  request.tree_name = tree;
  request.k = k;
  request.metric = metric;
  request.answer = answer;
  return request;
}

ServiceRequest WorldRequest(const std::string& tree, bool median = false) {
  ServiceRequest request;
  request.op = ServiceRequest::Op::kWorld;
  request.tree_name = tree;
  request.median_world = median;
  return request;
}

ServiceRequest StatsRequest() {
  ServiceRequest request;
  request.op = ServiceRequest::Op::kStats;
  return request;
}

// The heterogeneous differential workload over `names`: every metric,
// mean/median/approx/any-size answers, both world flavors, an unknown tree,
// and an unsupported (metric, answer) pair, bracketed by stats probes.
std::vector<ServiceRequest> DifferentialBatch(
    const std::vector<std::string>& names) {
  std::vector<ServiceRequest> batch;
  batch.push_back(StatsRequest());
  for (const std::string& name : names) {
    batch.push_back(TopKRequest(name, 3, TopKMetric::kSymDiff));
    batch.push_back(TopKRequest(name, 3, TopKMetric::kIntersection));
    batch.push_back(TopKRequest(name, 2, TopKMetric::kFootrule));
    batch.push_back(TopKRequest(name, 2, TopKMetric::kKendall));
    batch.push_back(TopKRequest(name, 3, TopKMetric::kSymDiff,
                                TopKAnswer::kMedian));
    batch.push_back(TopKRequest(name, 3, TopKMetric::kSymDiff,
                                TopKAnswer::kMeanUnrestricted));
    batch.push_back(TopKRequest(name, 3, TopKMetric::kIntersection,
                                TopKAnswer::kMeanApprox));
    batch.push_back(WorldRequest(name));
    batch.push_back(WorldRequest(name, /*median=*/true));
  }
  batch.push_back(TopKRequest("no_such_tree", 2, TopKMetric::kSymDiff));
  batch.push_back(TopKRequest(names[0], 2, TopKMetric::kFootrule,
                              TopKAnswer::kMedian));  // NotImplemented
  batch.push_back(StatsRequest());
  return batch;
}

// Bitwise response comparison. `compare_stats` is off for budgeted runs:
// a finite budget applies to each shard's caches, so eviction-driven
// counters legitimately differ across shard counts while answers never do.
void ExpectSameResponses(const std::vector<Result<ServiceResponse>>& got,
                         const std::vector<Result<ServiceResponse>>& want,
                         bool compare_stats, const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(label + " slot " + std::to_string(i));
    ASSERT_EQ(got[i].ok(), want[i].ok())
        << (got[i].ok() ? want[i].status().ToString()
                        : got[i].status().ToString());
    if (!got[i].ok()) {
      // Error parity is part of the wire contract: same code, same text.
      EXPECT_EQ(got[i].status().code(), want[i].status().code());
      EXPECT_EQ(got[i].status().message(), want[i].status().message());
      continue;
    }
    EXPECT_EQ(got[i]->op, want[i]->op);
    if (got[i]->op == ServiceRequest::Op::kStats) {
      if (compare_stats) {
        EXPECT_EQ(got[i]->stats.hits, want[i]->stats.hits);
        EXPECT_EQ(got[i]->stats.misses, want[i]->stats.misses);
        EXPECT_EQ(got[i]->stats.entries, want[i]->stats.entries);
        EXPECT_EQ(got[i]->stats.bytes, want[i]->stats.bytes);
        EXPECT_EQ(got[i]->stats.evictions, want[i]->stats.evictions);
        EXPECT_EQ(got[i]->marginals_stats.hits, want[i]->marginals_stats.hits);
        EXPECT_EQ(got[i]->marginals_stats.misses,
                  want[i]->marginals_stats.misses);
        EXPECT_EQ(got[i]->marginals_stats.bytes,
                  want[i]->marginals_stats.bytes);
      }
      continue;
    }
    EXPECT_EQ(got[i]->tree_name, want[i]->tree_name);
    EXPECT_EQ(got[i]->fingerprint, want[i]->fingerprint);
    EXPECT_EQ(got[i]->k, want[i]->k);
    EXPECT_EQ(got[i]->metric, want[i]->metric);
    EXPECT_EQ(got[i]->answer, want[i]->answer);
    EXPECT_EQ(got[i]->keys, want[i]->keys);
    // Bitwise: EXPECT_EQ, never NEAR.
    EXPECT_EQ(got[i]->expected_distance, want[i]->expected_distance);
  }
}

EngineOptions ReferenceEngineOptions(int threads = 2) {
  EngineOptions options;
  options.num_threads = threads;
  return options;
}

class ShardedSchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trees_.push_back(*ParseTree(kTreeText));
    trees_.push_back(*ParseTree(kOtherTreeText));
    for (uint64_t seed : {11u, 23u, 47u, 91u, 130u, 177u}) {
      trees_.push_back(RandomDeepTree(seed));
    }
    for (size_t i = 0; i < trees_.size(); ++i) {
      names_.push_back("t" + std::to_string(i));
    }
  }

  // Seeds every tree into `sharded` and the reference catalog alike.
  void Seed(ShardedScheduler* sharded, TreeCatalog* catalog) const {
    for (size_t i = 0; i < trees_.size(); ++i) {
      if (sharded != nullptr) {
        ASSERT_TRUE(sharded->Insert(names_[i], trees_[i]).ok());
      }
      if (catalog != nullptr) {
        ASSERT_TRUE(catalog->Insert(names_[i], trees_[i]).ok());
      }
    }
  }

  std::vector<AndXorTree> trees_;
  std::vector<std::string> names_;
};

// ---------------------------------------------------------------------------
// Routing primitives
// ---------------------------------------------------------------------------

TEST(ShardRoutingTest, ShardOfKeyIsDeterministicAndInRange) {
  Rng rng(5);
  for (int shards : {1, 2, 3, 8, 64}) {
    std::vector<int> population(static_cast<size_t>(shards), 0);
    for (int i = 0; i < 4096; ++i) {
      const StructKey key(rng.Next());
      int shard = ShardedScheduler::ShardOfKey(key, shards);
      ASSERT_GE(shard, 0);
      ASSERT_LT(shard, shards);
      // Pure function of (key, shards).
      EXPECT_EQ(shard, ShardedScheduler::ShardOfKey(key, shards));
      ++population[static_cast<size_t>(shard)];
    }
    // The remix spreads random keys: no shard may be starved.
    for (int count : population) EXPECT_GT(count, 0) << shards << " shards";
  }
}

TEST(ShardRoutingTest, ThreadsPerShardSplitsTheBudget) {
  EXPECT_EQ(ShardedScheduler::ThreadsPerShard(8, 2), 4);
  EXPECT_EQ(ShardedScheduler::ThreadsPerShard(8, 3), 2);
  EXPECT_EQ(ShardedScheduler::ThreadsPerShard(2, 8), 1);  // never below 1
  EXPECT_EQ(ShardedScheduler::ThreadsPerShard(1, 1), 1);
  // total < 1 resolves to the hardware concurrency before splitting.
  EXPECT_GE(ShardedScheduler::ThreadsPerShard(0, 1), 1);
}

// The N-shard scheduler owns one pool of ThreadsPerShard(T, N) × N threads,
// the total its shard engines borrow; over a caller's engine it runs its
// one shard's dispatch on the calling thread.
TEST(ShardRoutingTest, PoolHoldsThreadsPerShardTimesShards) {
  for (const auto& [total, shards] : std::vector<std::pair<int, int>>{
           {1, 1}, {4, 1}, {4, 4}, {8, 2}, {8, 3}, {2, 8}}) {
    const int width = ShardedScheduler::ThreadsPerShard(total, shards);
    ShardedScheduler sharded(shards, ReferenceEngineOptions(width));
    EXPECT_EQ(sharded.pool()->num_threads(), width * shards)
        << total << " threads, " << shards << " shards";
  }
  Engine engine(ReferenceEngineOptions(2));
  TreeCatalog catalog;
  QueryScheduler borrowed(&engine, &catalog);
  EXPECT_EQ(borrowed.pool()->num_threads(), 1);
}

// ---------------------------------------------------------------------------
// The differential suite: sharded vs single-engine, bitwise
// ---------------------------------------------------------------------------

// Batch mode, cold and warm, across shard counts, unbounded budget:
// answers AND aggregated stats totals must match the single scheduler
// (every (fingerprint, k) key lives on one shard and sees the same request
// order, so even the hit/miss counters are preserved under the sum).
TEST_F(ShardedSchedulerTest, BatchParityAcrossShardCountsUnbounded) {
  std::vector<ServiceRequest> batch = DifferentialBatch(names_);

  Engine reference_engine(ReferenceEngineOptions());
  TreeCatalog reference_catalog;
  Seed(nullptr, &reference_catalog);
  QueryScheduler reference(&reference_engine, &reference_catalog);
  auto want_cold = reference.ExecuteBatch(batch);
  auto want_warm = reference.ExecuteBatch(batch);

  for (int shards : {1, 2, 4, 8}) {
    ShardedScheduler sharded(shards, ReferenceEngineOptions());
    Seed(&sharded, nullptr);
    auto got_cold = sharded.ExecuteBatch(batch);
    auto got_warm = sharded.ExecuteBatch(batch);
    ExpectSameResponses(got_cold, want_cold, /*compare_stats=*/true,
                        "cold shards=" + std::to_string(shards));
    ExpectSameResponses(got_warm, want_warm, /*compare_stats=*/true,
                        "warm shards=" + std::to_string(shards));
  }
}

// Budgeted caches (including a zero budget that retains nothing): answers
// stay bitwise identical; only counters may differ, since each shard's
// caches evict locally. The reference's answers are themselves direct
// single-thread engine answers in every slot but the stats probes (which
// describe a scheduler), errors included.
TEST_F(ShardedSchedulerTest, BatchParityUnderCacheBudgets) {
  std::vector<ServiceRequest> batch = DifferentialBatch(names_);

  Engine reference_engine(ReferenceEngineOptions());
  TreeCatalog reference_catalog;
  Seed(nullptr, &reference_catalog);
  QueryScheduler reference(&reference_engine, &reference_catalog);
  auto want = reference.ExecuteBatch(batch);
  auto want_warm = reference.ExecuteBatch(batch);
  ExpectSameResponses(want, DirectAnswers(reference_catalog, batch),
                      /*compare_stats=*/false, "direct");

  for (int shards : {1, 2, 4, 8}) {
    for (int64_t budget : {int64_t{0}, int64_t{700}, int64_t{1} << 20}) {
      SchedulerOptions options;
      options.cache_budget_bytes = budget;
      ShardedScheduler sharded(shards, ReferenceEngineOptions(), options);
      Seed(&sharded, nullptr);
      const std::string label = "shards=" + std::to_string(shards) +
                                " budget=" + std::to_string(budget);
      ExpectSameResponses(sharded.ExecuteBatch(batch), want,
                          /*compare_stats=*/false, label + " cold");
      ExpectSameResponses(sharded.ExecuteBatch(batch), want_warm,
                          /*compare_stats=*/false, label + " warm");
      // The budget invariant holds per shard, hence for the sum too.
      if (budget >= 0) {
        for (const ShardCacheStats& shard : sharded.PerShardStats()) {
          EXPECT_LE(shard.rank_dist.bytes, budget) << label;
          EXPECT_LE(shard.marginals.bytes, budget) << label;
        }
      }
    }
  }
}

// Per-shard engine thread counts must be invisible in answers, like every
// other thread count in the system.
TEST_F(ShardedSchedulerTest, AnswersIndependentOfShardThreadCounts) {
  std::vector<ServiceRequest> batch = DifferentialBatch(names_);
  std::vector<Result<ServiceResponse>> want;
  for (int threads : {1, 2, 4}) {
    ShardedScheduler sharded(3, ReferenceEngineOptions(threads));
    Seed(&sharded, nullptr);
    auto got = sharded.ExecuteBatch(batch);
    if (threads == 1) {
      want = std::move(got);
      continue;
    }
    ExpectSameResponses(got, want, /*compare_stats=*/true,
                        "threads=" + std::to_string(threads));
  }
}

// Streaming mode: same differential workload through ExecuteStreaming,
// compared slot-for-slot against the single scheduler's streaming path.
TEST_F(ShardedSchedulerTest, StreamingParityAcrossShardCounts) {
  std::vector<ServiceRequest> requests = DifferentialBatch(names_);
  auto stream_through = [&requests](auto* scheduler) {
    std::vector<Result<ServiceResponse>> responses;
    size_t cursor = 0;
    scheduler->ExecuteStreaming(
        [&](ServiceRequest* out) {
          if (cursor == requests.size()) return false;
          *out = requests[cursor++];
          return true;
        },
        [&](const Result<ServiceResponse>& response) {
          responses.push_back(response);
        });
    return responses;
  };

  Engine reference_engine(ReferenceEngineOptions());
  TreeCatalog reference_catalog;
  Seed(nullptr, &reference_catalog);
  QueryScheduler reference(&reference_engine, &reference_catalog);
  auto want = stream_through(&reference);

  for (int shards : {1, 2, 4, 8}) {
    ShardedScheduler sharded(shards, ReferenceEngineOptions());
    Seed(&sharded, nullptr);
    ExpectSameResponses(stream_through(&sharded), want,
                        /*compare_stats=*/true,
                        "streaming shards=" + std::to_string(shards));
  }
}

// The streaming interleaving contract survives sharding: response N is
// emitted before request N+1 is pulled, regardless of which shard answers.
TEST_F(ShardedSchedulerTest, StreamingEmitsEachResponseBeforeReadingNext) {
  ShardedScheduler sharded(4, ReferenceEngineOptions());
  Seed(&sharded, nullptr);
  std::vector<ServiceRequest> requests = {
      TopKRequest(names_[0], 2, TopKMetric::kSymDiff),
      TopKRequest(names_[1], 1, TopKMetric::kFootrule),
      WorldRequest(names_[2]),
  };
  std::vector<std::string> events;
  size_t cursor = 0;
  sharded.ExecuteStreaming(
      [&](ServiceRequest* out) {
        if (cursor == requests.size()) return false;
        events.push_back("read" + std::to_string(cursor));
        *out = requests[cursor++];
        return true;
      },
      [&](const Result<ServiceResponse>& response) {
        ASSERT_TRUE(response.ok()) << response.status().ToString();
        events.push_back("emit" + std::to_string(cursor - 1));
      });
  EXPECT_EQ(events, (std::vector<std::string>{"read0", "emit0", "read1",
                                              "emit1", "read2", "emit2"}));
}

// ---------------------------------------------------------------------------
// Stats aggregation
// ---------------------------------------------------------------------------

TEST_F(ShardedSchedulerTest, StatsAggregateSumsPerShardBreakdown) {
  ShardedScheduler sharded(4, ReferenceEngineOptions());
  Seed(&sharded, nullptr);
  auto responses = sharded.ExecuteBatch(DifferentialBatch(names_));
  const Result<ServiceResponse>& stats = responses.back();
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->shard_stats.size(), 4u);

  CacheStats rank_sum, marg_sum;
  int busy_shards = 0;
  for (const ShardCacheStats& shard : stats->shard_stats) {
    rank_sum.hits += shard.rank_dist.hits;
    rank_sum.misses += shard.rank_dist.misses;
    rank_sum.entries += shard.rank_dist.entries;
    rank_sum.bytes += shard.rank_dist.bytes;
    marg_sum.misses += shard.marginals.misses;
    marg_sum.bytes += shard.marginals.bytes;
    if (shard.rank_dist.misses + shard.marginals.misses > 0) ++busy_shards;
  }
  EXPECT_EQ(stats->stats.hits, rank_sum.hits);
  EXPECT_EQ(stats->stats.misses, rank_sum.misses);
  EXPECT_EQ(stats->stats.entries, rank_sum.entries);
  EXPECT_EQ(stats->stats.bytes, rank_sum.bytes);
  EXPECT_EQ(stats->marginals_stats.misses, marg_sum.misses);
  EXPECT_EQ(stats->marginals_stats.bytes, marg_sum.bytes);
  // Eight distinct trees over four shards: the fingerprint partition must
  // actually spread the work (deterministic for these fixed seeds).
  EXPECT_GT(busy_shards, 1);

  // The accessor view agrees with the in-band response.
  EXPECT_EQ(sharded.cache_stats().misses, stats->stats.misses);
  EXPECT_EQ(sharded.marginals_stats().misses, stats->marginals_stats.misses);
}

TEST_F(ShardedSchedulerTest, StatsResponseRendersShardBreakdownFields) {
  ShardedScheduler sharded(2, ReferenceEngineOptions());
  Seed(&sharded, nullptr);
  auto responses = sharded.ExecuteBatch(
      {TopKRequest(names_[0], 2, TopKMetric::kSymDiff), StatsRequest()});
  ASSERT_TRUE(responses[1].ok());
  std::string line = FormatResponseLine(ResponseToFields(*responses[1]));
  auto parsed = ParseResponseLine(line);
  ASSERT_TRUE(parsed.ok());
  ASSERT_NE(parsed->Find("shards"), nullptr);
  EXPECT_EQ(*parsed->Find("shards"), "2");
  // Aggregate fields lead; per-shard fields trail with s<i>_ prefixes.
  ASSERT_NE(parsed->Find("misses"), nullptr);
  ASSERT_NE(parsed->Find("s0_misses"), nullptr);
  ASSERT_NE(parsed->Find("s1_misses"), nullptr);
  ASSERT_NE(parsed->Find("s0_marg_misses"), nullptr);
  EXPECT_EQ(std::stoll(*parsed->Find("misses")),
            std::stoll(*parsed->Find("s0_misses")) +
                std::stoll(*parsed->Find("s1_misses")));
  // A one-shard scheduler's stats line carries no shard fields at all,
  // from either constructor — its wire output is byte-identical to the
  // pre-sharding protocol.
  Engine engine(ReferenceEngineOptions());
  TreeCatalog catalog;
  QueryScheduler borrowed(&engine, &catalog);
  QueryScheduler owned(1, ReferenceEngineOptions());
  for (QueryScheduler* single : {&borrowed, &owned}) {
    auto single_stats = single->ExecuteBatch({StatsRequest()});
    ASSERT_TRUE(single_stats[0].ok());
    EXPECT_TRUE(single_stats[0]->shard_stats.empty());
    std::string single_line =
        FormatResponseLine(ResponseToFields(*single_stats[0]));
    EXPECT_EQ(single_line.find("shards="), std::string::npos);
    EXPECT_EQ(single_line.find("s0_"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Loads, the name directory, and error parity
// ---------------------------------------------------------------------------

TEST_F(ShardedSchedulerTest, LoadsRouteByFingerprintAndApplyBeforeQueries) {
  std::string tree_path = ::testing::TempDir() + "/sharded_load.sexp";
  std::string bid_path = ::testing::TempDir() + "/sharded_load.bid";
  ASSERT_TRUE(WriteStringToFile(tree_path, kOtherTreeText).ok());
  ASSERT_TRUE(WriteStringToFile(bid_path, "1 0.6 8\n1 0.3 5\n2 0.7 9\n").ok());

  ServiceRequest load;
  load.op = ServiceRequest::Op::kLoad;
  load.load_name = "late";
  load.load_file = tree_path;
  ServiceRequest load_bid = load;
  load_bid.load_name = "late_bid";
  load_bid.load_file = bid_path;
  load_bid.load_format = "bid";
  ServiceRequest load_missing = load;
  load_missing.load_name = "missing_file";
  load_missing.load_file = ::testing::TempDir() + "/does_not_exist.sexp";

  ShardedScheduler sharded(4, ReferenceEngineOptions());
  // Batch semantics: the query references a tree loaded later in the batch.
  auto results = sharded.ExecuteBatch(
      {TopKRequest("late", 1, TopKMetric::kSymDiff), load, load_bid,
       load_missing, TopKRequest("late_bid", 1, TopKMetric::kSymDiff)});
  ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
  ASSERT_TRUE(results[1].ok());
  ASSERT_TRUE(results[2].ok());
  EXPECT_FALSE(results[3].ok());
  ASSERT_TRUE(results[4].ok());
  // The fingerprint on the wire is the catalog's content hash, identical
  // to what an unsharded load reports.
  EXPECT_EQ(results[1]->fingerprint,
            TreeCatalog::ComputeIdentity(*ParseTree(kOtherTreeText))
                ->content_fp);
}

TEST_F(ShardedSchedulerTest, DirectorySemanticsMatchTheSingleCatalog) {
  ShardedScheduler sharded(8, ReferenceEngineOptions());
  TreeCatalog single;

  // Insert, idempotent re-insert, rebind conflict: same statuses and the
  // same message text as the one-catalog path, whichever shards are hit.
  auto sharded_first = sharded.Insert("n", *ParseTree(kTreeText));
  auto single_first = single.Insert("n", *ParseTree(kTreeText));
  ASSERT_TRUE(sharded_first.ok());
  EXPECT_EQ(sharded_first->content_fp, single_first->content_fp);

  EXPECT_TRUE(sharded.Insert("n", *ParseTree(kTreeText)).ok());

  auto sharded_conflict = sharded.Insert("n", *ParseTree(kOtherTreeText));
  auto single_conflict = single.Insert("n", *ParseTree(kOtherTreeText));
  ASSERT_FALSE(sharded_conflict.ok());
  EXPECT_EQ(sharded_conflict.status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(sharded_conflict.status().message(),
            single_conflict.status().message());

  // Unknown names: the routing layer's NotFound is byte-identical to
  // TreeCatalog::Lookup's.
  auto sharded_missing =
      sharded.ExecuteOne(TopKRequest("ghost", 2, TopKMetric::kSymDiff));
  auto single_missing = single.Lookup("ghost");
  ASSERT_FALSE(sharded_missing.ok());
  EXPECT_EQ(sharded_missing.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(sharded_missing.status().message(),
            single_missing.status().message());

  // Empty names are rejected by the owning catalog, as ever.
  EXPECT_FALSE(sharded.Insert("", *ParseTree(kTreeText)).ok());
}

// Streaming order sensitivity carries over: a query before its load fails,
// the same query after it succeeds, stats are point-in-time.
TEST_F(ShardedSchedulerTest, StreamingIsOrderSensitive) {
  std::string tree_path = ::testing::TempDir() + "/sharded_stream.sexp";
  ASSERT_TRUE(WriteStringToFile(tree_path, kTreeText).ok());
  ServiceRequest load;
  load.op = ServiceRequest::Op::kLoad;
  load.load_name = "s";
  load.load_file = tree_path;
  std::vector<ServiceRequest> requests = {
      StatsRequest(), TopKRequest("s", 2, TopKMetric::kSymDiff), load,
      TopKRequest("s", 2, TopKMetric::kSymDiff)};

  ShardedScheduler sharded(2, ReferenceEngineOptions());
  std::vector<Result<ServiceResponse>> streamed;
  size_t cursor = 0;
  sharded.ExecuteStreaming(
      [&](ServiceRequest* out) {
        if (cursor == requests.size()) return false;
        *out = requests[cursor++];
        return true;
      },
      [&](const Result<ServiceResponse>& response) {
        streamed.push_back(response);
      });
  ASSERT_EQ(streamed.size(), 4u);
  ASSERT_TRUE(streamed[0].ok());
  EXPECT_EQ(streamed[0]->stats.misses, 0);
  ASSERT_FALSE(streamed[1].ok());
  EXPECT_EQ(streamed[1].status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(streamed[2].ok());
  ASSERT_TRUE(streamed[3].ok());
}

// ---------------------------------------------------------------------------
// Concurrency (the TSan target)
// ---------------------------------------------------------------------------

// Concurrent ExecuteBatch calls through one sharded front-end: every
// answer equals the single-threaded reference; TSan watches the directory
// mutex, the per-shard catalogs/caches, and the shard dispatch on the
// scheduler's one pool.
TEST_F(ShardedSchedulerTest, ConcurrentExecuteBatchCallsAgreeWithReference) {
  ShardedScheduler sharded(3, ReferenceEngineOptions());
  Seed(&sharded, nullptr);
  const std::vector<ServiceRequest> batch = {
      TopKRequest(names_[2], 3, TopKMetric::kSymDiff),
      TopKRequest(names_[3], 3, TopKMetric::kKendall),
      WorldRequest(names_[4]),
      TopKRequest(names_[5], 2, TopKMetric::kFootrule),
  };
  auto reference = sharded.ExecuteBatch(batch);
  for (const auto& slot : reference) ASSERT_TRUE(slot.ok());

  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<std::vector<Result<ServiceResponse>>> observed(
      kThreads * kRounds);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([this, &sharded, &batch, &observed, t] {
      for (int round = 0; round < kRounds; ++round) {
        // Idempotent re-inserts race with queries, as they may in a server.
        EXPECT_TRUE(sharded.Insert(names_[2], trees_[2]).ok());
        sharded.cache_stats();
        observed[t * kRounds + round] = sharded.ExecuteBatch(batch);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (const auto& results : observed) {
    ExpectSameResponses(results, reference, /*compare_stats=*/false,
                        "concurrent");
  }
}

// Concurrent batches over trees whose rank scans split across the pool.
// Every batch asks for the same shapes under a budget that retains nothing,
// so a fetch often waits on another batch's in-flight fold of the same key
// while that fold's chunks run on the shared pool. A thread waiting inside
// a fold must never pick up another batch's dispatch for the same shard:
// that dispatch would wait on the fold lower on its own stack. So the test
// must finish, with the one-thread answers.
TEST(ShardedConcurrencyTest, ConcurrentBatchesOverSplitScansFinish) {
  constexpr int kK = 41;
  std::vector<AndXorTree> trees;
  for (uint64_t seed = 1; trees.size() < 4; ++seed) {
    Rng rng(seed);
    RandomTreeOptions opts;
    opts.num_keys = 50;
    opts.max_alternatives = 3;
    AndXorTree tree = *RandomBid(opts, &rng);
    if (tree.NumLeaves() >= 100) trees.push_back(std::move(tree));
  }
  std::vector<ServiceRequest> batch;
  for (size_t i = 0; i < trees.size(); ++i) {
    // At least 4,096 cells: a 2-wide engine splits the scan in two.
    ASSERT_EQ(FanOutUnits(trees[i].NumLeaves(), trees[i].NumLeaves() * kK, 2),
              2);
    const std::string name = "big" + std::to_string(i);
    batch.push_back(TopKRequest(name, kK, TopKMetric::kSymDiff));
    batch.push_back(TopKRequest(name, 20, TopKMetric::kSymDiff,
                                TopKAnswer::kMedian));
    batch.push_back(WorldRequest(name));
  }
  auto seed = [&trees](ShardedScheduler* scheduler) {
    for (size_t i = 0; i < trees.size(); ++i) {
      ASSERT_TRUE(
          scheduler->Insert("big" + std::to_string(i), trees[i]).ok());
    }
  };
  ShardedScheduler one_thread(1, ReferenceEngineOptions(1));
  seed(&one_thread);
  const auto reference = one_thread.ExecuteBatch(batch);
  for (const auto& slot : reference) ASSERT_TRUE(slot.ok());

  SchedulerOptions options;
  options.cache_budget_bytes = 0;
  ShardedScheduler sharded(2, ReferenceEngineOptions(2), options);
  ASSERT_EQ(sharded.pool()->num_threads(), 4);
  seed(&sharded);
  constexpr int kCallers = 4;
  constexpr int kRounds = 16;
  std::vector<std::vector<Result<ServiceResponse>>> observed(kCallers *
                                                            kRounds);
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&sharded, &batch, &observed, t] {
      for (int round = 0; round < kRounds; ++round) {
        observed[t * kRounds + round] = sharded.ExecuteBatch(batch);
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (const auto& results : observed) {
    ExpectSameResponses(results, reference, /*compare_stats=*/false,
                        "concurrent split scans");
  }
}

// ---------------------------------------------------------------------------
// Metrics: sharded scrapes vs the single scheduler
// ---------------------------------------------------------------------------

ServiceRequest MetricsRequest(const std::string& format = "kv") {
  ServiceRequest request;
  request.op = ServiceRequest::Op::kMetrics;
  request.metrics_format = format;
  return request;
}

// The scrape as a name -> value map, with the per-engine arena high-water
// gauge dropped: it measures each engine's private scratch memory, so a
// single 2-thread engine and four 2-thread shard engines legitimately
// report different peaks. Every other sample is layout-independent.
std::map<std::string, std::string> ComparableKv(const MetricsSnapshot& snap) {
  std::map<std::string, std::string> map;
  for (const auto& [name, value] : MetricsToKvPairs(snap)) {
    if (name.rfind("cpdb_poly_arena", 0) == 0) continue;
    map[name] = value;
  }
  return map;
}

// With a *fixed* FakeClock every recorded duration is exactly 0, so the
// scrape — counters, error counts, histogram counts and values — must be
// value-identical between the single scheduler and any shard count: the
// sharded front-end attributes each request to exactly one shard's
// registry, and the merged scrape is what one scheduler would have
// recorded.
TEST_F(ShardedSchedulerTest, MetricsScrapeParityAcrossShardCounts) {
  FakeClock clock(1000);  // never advanced: all durations are 0
  SchedulerOptions options;
  options.clock = &clock;

  std::vector<ServiceRequest> batch = DifferentialBatch(names_);
  batch.push_back(MetricsRequest());

  Engine engine(ReferenceEngineOptions());
  TreeCatalog catalog;
  Seed(nullptr, &catalog);
  QueryScheduler reference(&engine, &catalog, options);
  auto want_responses = reference.ExecuteBatch(batch);
  const auto want = ComparableKv(reference.MetricsSnapshotNow());

  for (int shards : {1, 2, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedScheduler sharded(shards, ReferenceEngineOptions(), options);
    Seed(&sharded, nullptr);
    auto got_responses = sharded.ExecuteBatch(batch);
    // Aggregate stats counters match under an unbounded budget; the
    // scrape comparison below is the real point.
    ExpectSameResponses(got_responses, want_responses, /*compare_stats=*/true,
                        "metrics parity");
    const auto got = ComparableKv(sharded.MetricsSnapshotNow());
    EXPECT_EQ(got, want);
  }
}

// The merged scrape is exactly the bucket-wise sum of the per-shard
// scrapes — in any merge order.
TEST_F(ShardedSchedulerTest, MergedScrapeEqualsBucketwiseSumOfPerShard) {
  ShardedScheduler sharded(3, ReferenceEngineOptions());
  Seed(&sharded, nullptr);
  auto results = sharded.ExecuteBatch(DifferentialBatch(names_));
  ASSERT_FALSE(results.empty());

  const std::vector<MetricsSnapshot> per_shard =
      sharded.PerShardMetricsSnapshots();
  ASSERT_EQ(per_shard.size(), 3u);
  const MetricsSnapshot merged = sharded.MetricsSnapshotNow();

  MetricsSnapshot forward = per_shard[0];
  forward.MergeFrom(per_shard[1]);
  forward.MergeFrom(per_shard[2]);
  MetricsSnapshot reversed = per_shard[2];
  reversed.MergeFrom(per_shard[1]);
  reversed.MergeFrom(per_shard[0]);

  for (const MetricsSnapshot* manual : {&forward, &reversed}) {
    ASSERT_EQ(manual->samples.size(), merged.samples.size());
    for (size_t i = 0; i < merged.samples.size(); ++i) {
      SCOPED_TRACE(merged.samples[i].name);
      EXPECT_EQ(manual->samples[i].name, merged.samples[i].name);
      EXPECT_EQ(manual->samples[i].kind, merged.samples[i].kind);
      EXPECT_EQ(manual->samples[i].value, merged.samples[i].value);
      EXPECT_EQ(manual->samples[i].hist, merged.samples[i].hist);
    }
  }

  // Spot-check the sum structurally: every request the batch carried is
  // counted on exactly one shard.
  int64_t per_shard_requests = 0;
  for (const MetricsSnapshot& snap : per_shard) {
    const MetricSample* sample = snap.Find("cpdb_requests_total");
    ASSERT_NE(sample, nullptr);
    per_shard_requests += sample->value;
  }
  EXPECT_EQ(per_shard_requests,
            merged.Find("cpdb_requests_total")->value);
  EXPECT_EQ(per_shard_requests,
            static_cast<int64_t>(DifferentialBatch(names_).size()));
}

// The tentpole contract, pinned with the *real* clock: answer bytes are
// identical whether metrics are on, off, traced, or the batch is served
// by 1, 2, or 4 shards. Timing rides strictly side-band (trace_* fields),
// so stripping those fields must recover the reference bytes exactly.
TEST_F(ShardedSchedulerTest, WireBytesIdenticalAcrossMetricsTraceAndShards) {
  const std::vector<ServiceRequest> batch = DifferentialBatch(names_);
  std::vector<ServiceRequest> traced = batch;
  for (ServiceRequest& request : traced) request.trace = true;

  // Renders each slot the way serve does, with the two *declared*
  // divergences stripped: trace_* fields (the side band under test) and
  // the kStats per-shard breakdown (pinned separately by
  // StatsResponseRendersShardBreakdownFields) — everything else must be
  // bitwise stable.
  auto render = [](const std::vector<Result<ServiceResponse>>& results) {
    std::vector<std::string> lines;
    for (size_t i = 0; i < results.size(); ++i) {
      if (!results[i].ok()) {
        lines.push_back(FormatErrorLine(i + 1, results[i].status()));
        continue;
      }
      std::string line = FormatResponseLine(ResponseToFields(*results[i]));
      for (const char* side_band : {"\ttrace_", "\tshards="}) {
        const size_t cut = line.find(side_band);
        if (cut != std::string::npos) line = line.substr(0, cut) + "\n";
      }
      lines.push_back(line);
    }
    return lines;
  };

  Engine engine(ReferenceEngineOptions());
  TreeCatalog catalog;
  Seed(nullptr, &catalog);
  QueryScheduler reference(&engine, &catalog, SchedulerOptions());
  const std::vector<std::string> want = render(reference.ExecuteBatch(batch));

  {
    SCOPED_TRACE("metrics off");
    Engine off_engine(ReferenceEngineOptions());
    TreeCatalog off_catalog;
    Seed(nullptr, &off_catalog);
    SchedulerOptions off;
    off.enable_metrics = false;
    QueryScheduler scheduler(&off_engine, &off_catalog, off);
    EXPECT_EQ(render(scheduler.ExecuteBatch(batch)), want);
  }
  {
    SCOPED_TRACE("trace on");
    Engine traced_engine(ReferenceEngineOptions());
    TreeCatalog traced_catalog;
    Seed(nullptr, &traced_catalog);
    QueryScheduler scheduler(&traced_engine, &traced_catalog,
                             SchedulerOptions());
    EXPECT_EQ(render(scheduler.ExecuteBatch(traced)), want);
  }
  for (int shards : {1, 2, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    // Fresh front-ends per run: op=stats reports cumulative counters, so
    // a second batch on a warm instance would legitimately differ.
    ShardedScheduler sharded(shards, ReferenceEngineOptions());
    Seed(&sharded, nullptr);
    EXPECT_EQ(render(sharded.ExecuteBatch(batch)), want);
    ShardedScheduler resharded(shards, ReferenceEngineOptions());
    Seed(&resharded, nullptr);
    EXPECT_EQ(render(resharded.ExecuteBatch(traced)), want);
  }
}

// op=metrics speaks both formats through the sharded front-end, refuses
// identically to the single scheduler when metrics are off, and the prom
// body renders the merged scrape.
TEST_F(ShardedSchedulerTest, MetricsOpFormatsAndDisabledRefusal) {
  ShardedScheduler sharded(2, ReferenceEngineOptions());
  Seed(&sharded, nullptr);
  auto kv = sharded.ExecuteOne(MetricsRequest("kv"));
  ASSERT_TRUE(kv.ok());
  EXPECT_EQ(kv->metrics_format, "kv");
  EXPECT_NE(kv->metrics.Find("cpdb_requests_total"), nullptr);

  auto prom = sharded.ExecuteOne(MetricsRequest("prom"));
  ASSERT_TRUE(prom.ok());
  EXPECT_EQ(prom->metrics_format, "prom");
  const std::string body = MetricsToPrometheusText(prom->metrics);
  EXPECT_EQ(body.rfind("# HELP ", 0), 0u);

  SchedulerOptions off;
  off.enable_metrics = false;
  ShardedScheduler disabled(2, ReferenceEngineOptions(), off);
  auto refused = disabled.ExecuteOne(MetricsRequest());
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);

  Engine engine(ReferenceEngineOptions());
  TreeCatalog catalog;
  QueryScheduler single(&engine, &catalog, off);
  auto single_refused = single.ExecuteOne(MetricsRequest());
  ASSERT_FALSE(single_refused.ok());
  // Refusal parity is wire parity: same code, same message.
  EXPECT_EQ(single_refused.status().code(), refused.status().code());
  EXPECT_EQ(single_refused.status().message(), refused.status().message());
}

}  // namespace
}  // namespace cpdb
