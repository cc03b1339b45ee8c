// Copyright 2026 The ConsensusDB Authors
//
// Tests for the serving layer: TreeCatalog fingerprint stability and
// content deduplication, RankDistCache hit/miss accounting, and — the load-
// bearing property — bitwise parity between cached and uncached consensus
// answers for all four Top-k metrics, across cold/warm caches and thread
// counts. The cache stores a value the engine computes deterministically,
// so memoization must be observable only in the CacheStats counters.

#include "service/query_scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "core/set_consensus.h"
#include "direct_answers.h"
#include "execute_alone.h"
#include "io/table_io.h"
#include "io/tree_text.h"
#include "model/canonical.h"
#include "model/possible_worlds.h"
#include "service/catalog_snapshot.h"
#include "service/rank_dist_cache.h"
#include "service/tree_catalog.h"
#include "temp_path.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

constexpr char kTreeText[] =
    "(and (xor 0.6 (leaf key=1 score=8) 0.3 (leaf key=1 score=5))"
    " (xor 0.7 (leaf key=2 score=9))"
    " (xor 0.5 (leaf key=3 score=7) 0.5 (leaf key=3 score=6)))";

// The same tree with different whitespace: canonical fingerprints must
// collide on purpose.
constexpr char kTreeTextReformatted[] =
    "(and\n  (xor 0.6 (leaf key=1 score=8)\n       0.3 (leaf key=1 score=5))\n"
    "  (xor 0.7 (leaf key=2 score=9))\n"
    "  (xor 0.5 (leaf key=3 score=7) 0.5 (leaf key=3 score=6)))\n";

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

// ---------------------------------------------------------------------------
// TreeCatalog
// ---------------------------------------------------------------------------

TEST(TreeCatalogTest, FingerprintIsStableAcrossLoadOrderAndFormatting) {
  TreeCatalog forward;
  ASSERT_TRUE(forward.InsertFromText("a", kTreeText).ok());
  ASSERT_TRUE(forward.InsertFromText("b", kOtherTreeText).ok());

  TreeCatalog backward;
  ASSERT_TRUE(backward.InsertFromText("b", kOtherTreeText).ok());
  ASSERT_TRUE(backward.InsertFromText("a", kTreeTextReformatted).ok());

  // Same content, regardless of insertion order or input formatting.
  EXPECT_EQ(forward.Lookup("a")->content_fp, backward.Lookup("a")->content_fp);
  EXPECT_EQ(forward.Lookup("b")->content_fp, backward.Lookup("b")->content_fp);
  EXPECT_NE(forward.Lookup("a")->content_fp, forward.Lookup("b")->content_fp);
}

TEST(TreeCatalogTest, IdenticalContentUnderTwoNamesSharesOneTree) {
  TreeCatalog catalog;
  auto first = catalog.InsertFromText("original", kTreeText);
  auto alias = catalog.InsertFromText("alias", kTreeTextReformatted);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(alias.ok());
  EXPECT_EQ(first->content_fp, alias->content_fp);
  // Shared immutable handle: the same allocation, not an equal copy.
  EXPECT_EQ(first->tree.get(), alias->tree.get());
  EXPECT_EQ(catalog.size(), 2u);
}

TEST(TreeCatalogTest, ReinsertIsIdempotentButConflictErrors) {
  TreeCatalog catalog;
  ASSERT_TRUE(catalog.InsertFromText("t", kTreeText).ok());
  // Identical content again: fine (idempotent re-load).
  EXPECT_TRUE(catalog.InsertFromText("t", kTreeTextReformatted).ok());
  // Different content under a served name: rejected, not replaced.
  auto conflict = catalog.InsertFromText("t", kOtherTreeText);
  ASSERT_FALSE(conflict.ok());
  EXPECT_EQ(conflict.status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(catalog.size(), 1u);
}

TEST(TreeCatalogTest, LookupAndValidationErrors) {
  TreeCatalog catalog;
  auto missing = catalog.Lookup("nope");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(catalog.InsertFromText("", kTreeText).ok());
  EXPECT_FALSE(catalog.InsertFromText("bad", "(xor 2.0 (leaf key=1))").ok());
}

// The catalog's thread-safety contract, exercised with real threads (this
// is what the TSan CI job watches): concurrent inserts racing on a shared
// name, private names with identical content, and lookups, all interleaved.
TEST(TreeCatalogTest, ConcurrentInsertsAndLookupsShareOneTree) {
  TreeCatalog catalog;
  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&catalog, t] {
      // Everyone races to bind the shared name; first insert wins and the
      // rest are idempotent re-loads of identical content.
      auto shared = catalog.InsertFromText("shared", kTreeText);
      EXPECT_TRUE(shared.ok());
      auto mine = catalog.InsertFromText("worker" + std::to_string(t),
                                         kTreeTextReformatted);
      EXPECT_TRUE(mine.ok());
      if (shared.ok() && mine.ok()) {
        EXPECT_EQ(mine->content_fp, shared->content_fp);
      }
      EXPECT_TRUE(catalog.Lookup("shared").ok());
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(catalog.size(), static_cast<size_t>(kThreads) + 1);
  // One content fingerprint -> one shared allocation across every name.
  const AndXorTree* tree = catalog.Lookup("shared")->tree.get();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(catalog.Lookup("worker" + std::to_string(t))->tree.get(), tree);
  }
}

TEST(TreeCatalogTest, ContentFpHashesTheSingleLineSerialization) {
  auto tree = ParseTree(kTreeText);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(TreeCatalog::ComputeIdentity(*tree)->content_fp,
            ContentFp(Fnv1a64(FormatTree(*tree, /*indent=*/false))));
}

// ---------------------------------------------------------------------------
// RankDistCache
// ---------------------------------------------------------------------------

TEST(RankDistCacheTest, CountsHitsAndMissesPerKey) {
  AndXorTree tree = *ParseTree(kTreeText);
  RankDistCache cache;
  int computes = 0;
  auto compute = [&] {
    ++computes;
    return ComputeRankDistribution(tree, 2);
  };
  auto a = cache.GetOrCompute(StructKey(1), 2, compute);
  auto b = cache.GetOrCompute(StructKey(1), 2, compute);
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(a.get(), b.get());  // shared handle, not a copy
  // Different k and different fingerprint are distinct entries.
  cache.GetOrCompute(StructKey(1), 3,
                     [&] { return ComputeRankDistribution(tree, 3); });
  cache.GetOrCompute(StructKey(2), 2, compute);
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 3);
  EXPECT_EQ(stats.coalesced, 0);
  EXPECT_EQ(stats.entries, 3);
  // Unbounded by default: entries are charged but never evicted.
  EXPECT_EQ(cache.byte_budget(), kUnboundedCacheBytes);
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_EQ(stats.bytes, a->ApproxBytes() +
                             cache.Peek(StructKey(1), 3)->ApproxBytes() +
                             cache.Peek(StructKey(2), 2)->ApproxBytes());
}

TEST(RankDistCacheTest, PeekDoesNotCountAndClearResets) {
  AndXorTree tree = *ParseTree(kTreeText);
  RankDistCache cache;
  EXPECT_EQ(cache.Peek(StructKey(1), 2), nullptr);
  auto handle =
      cache.GetOrCompute(StructKey(1), 2,
                         [&] { return ComputeRankDistribution(tree, 2); });
  EXPECT_EQ(cache.Peek(StructKey(1), 2).get(), handle.get());
  CacheStats before = cache.stats();
  EXPECT_EQ(before.hits, 0);
  EXPECT_EQ(before.misses, 1);
  cache.Clear();
  CacheStats after = cache.stats();
  EXPECT_EQ(after.misses, 0);
  EXPECT_EQ(after.entries, 0);
  EXPECT_EQ(cache.Peek(StructKey(1), 2), nullptr);
  // Handles outlive Clear (shared ownership).
  EXPECT_EQ(handle->k(), 2);
}

// The single-flight contract: several threads missing one key fold ONCE —
// the first caller computes, the rest block on the in-flight computation
// and share its allocation. Run with real threads so TSan sees the lock
// hand-offs; the compute counter is atomic so the "exactly once" claim is
// itself race-free.
TEST(RankDistCacheTest, ConcurrentGetOrComputeFoldsOncePerKey) {
  AndXorTree tree = *ParseTree(kTreeText);
  RankDistCache cache;
  constexpr int kThreads = 8;
  std::atomic<int> computes{0};
  std::vector<std::shared_ptr<const RankDistribution>> handles(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, &tree, &handles, &computes, t] {
      handles[t] = cache.GetOrCompute(StructKey(7), 2, [&] {
        ++computes;
        // Widen the race window so coalescing actually happens under TSan.
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        return ComputeRankDistribution(tree, 2);
      });
      cache.Peek(StructKey(7), 2);
      cache.stats();
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(computes.load(), 1);  // single-flight: one fold, ever
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(handles[t].get(), handles[0].get()) << "thread " << t;
  }
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1);
  // Each call counts exactly once: one miss (the computing caller), and
  // every other caller either coalesced on the flight or hit the retained
  // entry, depending on arrival time.
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits + stats.coalesced, kThreads - 1);
}

// ---------------------------------------------------------------------------
// ServiceRequestFromLine — the strict semantic mapping
// ---------------------------------------------------------------------------

Result<ServiceRequest> MapLine(const std::string& text) {
  auto line = ParseRequestLine(text);
  if (!line.ok()) return line.status();
  return ServiceRequestFromLine(*line);
}

TEST(ServiceRequestTest, MapsEveryOp) {
  auto load = MapLine("op=load name=t file=/tmp/x.sexp format=bid");
  ASSERT_TRUE(load.ok());
  EXPECT_EQ(load->op, ServiceRequest::Op::kLoad);
  EXPECT_EQ(load->load_name, "t");
  EXPECT_EQ(load->load_format, "bid");

  auto topk = MapLine("op=topk tree=t k=3 metric=kendall answer=mean");
  ASSERT_TRUE(topk.ok());
  EXPECT_EQ(topk->op, ServiceRequest::Op::kTopK);
  EXPECT_EQ(topk->k, 3);
  EXPECT_EQ(topk->metric, TopKMetric::kKendall);
  EXPECT_EQ(topk->answer, TopKAnswer::kMean);

  auto world = MapLine("op=world tree=t answer=median");
  ASSERT_TRUE(world.ok());
  EXPECT_EQ(world->op, ServiceRequest::Op::kWorld);
  EXPECT_TRUE(world->median_world);

  auto stats = MapLine("op=stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->op, ServiceRequest::Op::kStats);
}

TEST(ServiceRequestTest, GarbageNeverBecomesADefault) {
  // Strictness matches the PR 2 CLI convention: every one of these is an
  // error, not a silently defaulted request.
  for (const char* bad : {
           "tree=t k=2",                       // missing op
           "op=bogus",                         // unknown op
           "op=topk tree=t",                   // missing k
           "op=topk k=2",                      // missing tree
           "op=topk tree=t k=1o",              // garbage int
           "op=topk tree=t k=0",               // out of range
           "op=topk tree=t k=-3",              // out of range
           "op=topk tree=t k=9999999",         // out of range
           "op=topk tree=t k=1048577",         // one past the k ceiling
           "op=topk tree=t k=2 metric=nope",   // unknown metric
           "op=topk tree=t k=2 answer=nope",   // unknown answer
           "op=topk tree=t k=2 metrc=kendall", // typo'd field name
           "op=world tree=t metric=jaccard",   // unsupported metric
           "op=world tree=t answer=approx",    // unknown answer for world
           "op=load name=t file=f format=xml", // unknown format
           "op=load name=t",                   // missing file
           "op=stats tree=t",                  // field stats does not take
       }) {
    EXPECT_FALSE(MapLine(bad).ok()) << "'" << bad << "' was accepted";
  }
}

// ---------------------------------------------------------------------------
// QueryScheduler — parity and dedup
// ---------------------------------------------------------------------------

class QuerySchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_.InsertFromText("t", kTreeText).ok());
    // The serving path folds over the canonical orientation, so the
    // fixture pre-canonicalizes its reference tree: direct engine calls on
    // deep_ are then bitwise comparable with scheduler answers.
    deep_ = *CanonicalizeTree(RandomDeepTree(101));
    ASSERT_TRUE(catalog_.Insert("deep", deep_).ok());
  }

  static ServiceRequest TopKRequest(const std::string& tree, int k,
                                    TopKMetric metric,
                                    TopKAnswer answer = TopKAnswer::kMean) {
    ServiceRequest request;
    request.op = ServiceRequest::Op::kTopK;
    request.tree_name = tree;
    request.k = k;
    request.metric = metric;
    request.answer = answer;
    return request;
  }

  TreeCatalog catalog_;
  AndXorTree deep_;
};

// The acceptance-criteria test: for all four metrics on one catalog tree,
// answers must be bitwise identical with the cache cold and warm — and
// equal to direct one-at-a-time single-thread engine calls.
TEST_F(QuerySchedulerTest, CachedAnswersAreBitwiseDirectEngineAnswers) {
  const int k = 3;
  const TopKMetric kMetrics[] = {TopKMetric::kSymDiff,
                                 TopKMetric::kIntersection,
                                 TopKMetric::kFootrule, TopKMetric::kKendall};
  std::vector<ServiceRequest> batch;
  for (TopKMetric metric : kMetrics) {
    batch.push_back(TopKRequest("deep", k, metric));
  }

  EngineOptions engine_options;
  engine_options.num_threads = 4;
  Engine engine(engine_options);

  QueryScheduler cached(&engine, &catalog_);
  EngineOptions direct_options;
  direct_options.num_threads = 1;
  Engine direct_engine(direct_options);

  auto cold = cached.ExecuteBatch(batch);   // cache cold: all misses
  auto warm = cached.ExecuteBatch(batch);   // cache warm: all hits
  ASSERT_EQ(cold.size(), batch.size());

  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(cold[i].ok()) << "slot " << i << ": "
                              << cold[i].status().ToString();
    ASSERT_TRUE(warm[i].ok());
    auto engine_answer = direct_engine.ConsensusTopK(
        deep_, k, batch[i].metric, batch[i].answer);
    ASSERT_TRUE(engine_answer.ok());
    // Bitwise: same keys, and EXPECT_EQ (not NEAR) on the distance.
    EXPECT_EQ(cold[i]->keys, engine_answer->keys) << "slot " << i;
    EXPECT_EQ(cold[i]->expected_distance, engine_answer->expected_distance);
    EXPECT_EQ(warm[i]->keys, cold[i]->keys);
    EXPECT_EQ(warm[i]->expected_distance, cold[i]->expected_distance);
  }

  // The counters tell the sharing story: 4 queries on one (tree, k) cost
  // one fold cold (1 miss + 3 hits), zero folds warm (4 more hits).
  CacheStats stats = cached.cache_stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 7);
  EXPECT_EQ(stats.entries, 1);
}

// A heterogeneous batch (two trees, mixed k / metric / answer, an unknown
// tree, a bad k) must return per-slot exactly what one-at-a-time engine
// calls return, failures isolated to their slot.
TEST_F(QuerySchedulerTest, BatchMatchesOneAtATimeEngineAnswers) {
  std::vector<ServiceRequest> batch = {
      TopKRequest("t", 2, TopKMetric::kSymDiff),
      TopKRequest("deep", 3, TopKMetric::kSymDiff, TopKAnswer::kMedian),
      TopKRequest("deep", 2, TopKMetric::kIntersection,
                  TopKAnswer::kMeanApprox),
      TopKRequest("missing", 2, TopKMetric::kSymDiff),  // unknown tree
      TopKRequest("t", 1, TopKMetric::kKendall),
      TopKRequest("deep", 2, TopKMetric::kFootrule, TopKAnswer::kMedian),
      TopKRequest("deep", 4, TopKMetric::kFootrule),
  };
  EngineOptions engine_options;
  engine_options.num_threads = 4;
  Engine engine(engine_options);
  QueryScheduler scheduler(&engine, &catalog_);
  auto results = scheduler.ExecuteBatch(batch);
  ASSERT_EQ(results.size(), batch.size());

  for (size_t i = 0; i < batch.size(); ++i) {
    auto entry = catalog_.Lookup(batch[i].tree_name);
    if (!entry.ok()) {
      EXPECT_FALSE(results[i].ok()) << "slot " << i;
      continue;
    }
    auto expected = engine.ConsensusTopK(*entry->tree, batch[i].k,
                                         batch[i].metric, batch[i].answer);
    if (!expected.ok()) {
      EXPECT_FALSE(results[i].ok()) << "slot " << i;
      continue;
    }
    ASSERT_TRUE(results[i].ok())
        << "slot " << i << ": " << results[i].status().ToString();
    EXPECT_EQ(results[i]->keys, expected->keys) << "slot " << i;
    EXPECT_EQ(results[i]->expected_distance, expected->expected_distance);
  }
}

TEST_F(QuerySchedulerTest, WorldRequestsMatchEngineSetConsensus) {
  ServiceRequest mean;
  mean.op = ServiceRequest::Op::kWorld;
  mean.tree_name = "deep";
  ServiceRequest median = mean;
  median.median_world = true;
  Engine engine;
  QueryScheduler scheduler(&engine, &catalog_);
  auto results = scheduler.ExecuteBatch({mean, median});
  ASSERT_TRUE(results[0].ok());
  ASSERT_TRUE(results[1].ok());

  std::vector<double> marginal = engine.LeafMarginals(deep_);
  std::vector<NodeId> mean_world =
      MeanWorldSymDiffFromMarginals(deep_, marginal);
  std::vector<KeyId> mean_keys;
  for (const TupleAlternative& t : WorldTuples(deep_, mean_world)) {
    mean_keys.push_back(t.key);
  }
  EXPECT_EQ(results[0]->keys, mean_keys);
  EXPECT_EQ(results[0]->expected_distance,
            ExpectedSymDiffDistanceFromMarginals(deep_, marginal, mean_world));
  std::vector<NodeId> median_world =
      MedianWorldSymDiffFromMarginals(deep_, marginal);
  std::vector<KeyId> median_keys;
  for (const TupleAlternative& t : WorldTuples(deep_, median_world)) {
    median_keys.push_back(t.key);
  }
  EXPECT_EQ(results[1]->keys, median_keys);
}

// Scheduler answers must be bitwise identical for any engine thread count —
// the serving layer adds no scheduling dependence of its own.
TEST_F(QuerySchedulerTest, AnswersBitwiseIdenticalAcrossThreadCounts) {
  std::vector<ServiceRequest> batch = {
      TopKRequest("deep", 3, TopKMetric::kSymDiff),
      TopKRequest("deep", 3, TopKMetric::kKendall),
      TopKRequest("deep", 3, TopKMetric::kFootrule),
      TopKRequest("deep", 3, TopKMetric::kIntersection),
      TopKRequest("deep", 3, TopKMetric::kSymDiff, TopKAnswer::kMedian),
  };
  std::vector<Result<ServiceResponse>> reference;
  for (int threads : {1, 2, 4, 8}) {
    EngineOptions engine_options;
    engine_options.num_threads = threads;
    Engine engine(engine_options);
    QueryScheduler scheduler(&engine, &catalog_);
    auto results = scheduler.ExecuteBatch(batch);
    if (threads == 1) {
      reference = std::move(results);
      continue;
    }
    ASSERT_EQ(results.size(), reference.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok());
      ASSERT_EQ(results[i]->keys, reference[i]->keys)
          << "slot " << i << " threads " << threads;
      ASSERT_EQ(results[i]->expected_distance,
                reference[i]->expected_distance);
    }
  }
}

// The scheduler's own concurrency claim — "concurrent ExecuteBatch calls
// are safe" — run for real: several threads fire batches through one
// scheduler (one shared engine, catalog, and cache) interleaved with
// idempotent catalog re-inserts and stats probes. Every answer must equal
// the single-threaded reference; TSan watches the lock discipline.
TEST_F(QuerySchedulerTest, ConcurrentExecuteBatchCallsAgreeWithReference) {
  EngineOptions engine_options;
  engine_options.num_threads = 2;
  Engine engine(engine_options);
  QueryScheduler scheduler(&engine, &catalog_);
  const std::vector<ServiceRequest> batch = {
      TopKRequest("deep", 3, TopKMetric::kSymDiff),
      TopKRequest("deep", 3, TopKMetric::kKendall),
      TopKRequest("t", 2, TopKMetric::kFootrule),
  };
  auto reference = scheduler.ExecuteBatch(batch);
  for (const auto& slot : reference) ASSERT_TRUE(slot.ok());

  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<std::vector<Result<ServiceResponse>>> observed(
      kThreads * kRounds,
      std::vector<Result<ServiceResponse>>());
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([this, &scheduler, &batch, &observed, t] {
      for (int round = 0; round < kRounds; ++round) {
        EXPECT_TRUE(catalog_.InsertFromText("t", kTreeText).ok());
        scheduler.cache_stats();
        observed[t * kRounds + round] = scheduler.ExecuteBatch(batch);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (const auto& results : observed) {
    ASSERT_EQ(results.size(), reference.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
      EXPECT_EQ(results[i]->keys, reference[i]->keys) << "slot " << i;
      EXPECT_EQ(results[i]->expected_distance,
                reference[i]->expected_distance);
    }
  }
  // All traffic shared the two (tree, k) folds: exactly 2 misses (single-
  // flight makes that deterministic even under the race), every other call
  // a hit or a coalesced wait, total accounted.
  CacheStats stats = scheduler.cache_stats();
  EXPECT_EQ(stats.entries, 2);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.hits + stats.misses + stats.coalesced,
            3 * (kThreads * kRounds + 1));
}

// ---------------------------------------------------------------------------
// QueryScheduler — the per-batch fold plan
// ---------------------------------------------------------------------------

ServiceRequest BaselineRequest(const std::string& tree, int k,
                               const std::string& method) {
  ServiceRequest request;
  request.op = ServiceRequest::Op::kBaseline;
  request.tree_name = tree;
  request.k = k;
  request.baseline_method = method;
  return request;
}

// Every shape read at two cutoffs in one batch: topk k=4, topk k=8,
// baseline global k=8 and prf k=4.
std::vector<ServiceRequest> MixedKRequests(
    const std::vector<std::string>& trees) {
  std::vector<ServiceRequest> requests;
  for (const std::string& tree : trees) {
    ServiceRequest small;
    small.op = ServiceRequest::Op::kTopK;
    small.tree_name = tree;
    small.k = 4;
    small.metric = TopKMetric::kSymDiff;
    requests.push_back(small);
    ServiceRequest large = small;
    large.k = 8;
    large.metric = TopKMetric::kFootrule;
    requests.push_back(large);
    requests.push_back(BaselineRequest(tree, 8, "global"));
    requests.push_back(BaselineRequest(tree, 4, "prf"));
  }
  return requests;
}

// The response as its wire line.
std::string WireLine(const Result<ServiceResponse>& response) {
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  if (!response.ok()) return "";
  return FormatResponseLine(ResponseToFields(*response));
}

int64_t RankFolds(const QueryScheduler& scheduler) {
  return scheduler.MetricsSnapshotNow().Find("cpdb_rank_folds_total")->value;
}

// A batch folds each shape once, at its largest k, and serves the smaller
// k a bitwise prefix: the answers and the stats line equal those of the
// same requests sent one per batch, which fold once per (shape, k).
TEST(FoldPlanTest, OneFoldPerShapePerBatchAtItsLargestK) {
  std::vector<std::string> names;
  std::vector<AndXorTree> trees;
  for (int t = 0; t < 6; ++t) {
    names.push_back("s" + std::to_string(t));
    trees.push_back(RandomDeepTree(700 + static_cast<uint64_t>(t), 10));
  }
  std::vector<ServiceRequest> batch = MixedKRequests(names);
  batch.emplace_back();
  batch.back().op = ServiceRequest::Op::kStats;
  for (int shards : {1, 4}) {
    EngineOptions engine_options;
    engine_options.num_threads = 2;
    QueryScheduler batched(shards, engine_options);
    QueryScheduler one_by_one(shards, engine_options);
    for (size_t t = 0; t < trees.size(); ++t) {
      ASSERT_TRUE(batched.Insert(names[t], trees[t]).ok());
      ASSERT_TRUE(one_by_one.Insert(names[t], trees[t]).ok());
    }
    const auto together = batched.ExecuteBatch(batch);
    EXPECT_EQ(RankFolds(batched), static_cast<int64_t>(trees.size()))
        << shards << " shards";

    std::vector<Result<ServiceResponse>> apart;
    for (const ServiceRequest& request : batch) {
      apart.push_back(ExecuteAlone(one_by_one, request));
    }
    EXPECT_EQ(RankFolds(one_by_one), 2 * static_cast<int64_t>(trees.size()))
        << shards << " shards";
    ASSERT_EQ(together.size(), apart.size());
    for (size_t i = 0; i < together.size(); ++i) {
      EXPECT_EQ(WireLine(together[i]), WireLine(apart[i]))
          << shards << " shards, slot " << i;
    }
  }
}

// A warm batch whose (shape, 8) entry is resident serves k=4 from it: a
// cache miss at 4, answered by a prefix of the resident entry, no fold.
TEST_F(QuerySchedulerTest, ResidentLargerKServesASmallerKWithoutAFold) {
  Engine engine;
  QueryScheduler scheduler(&engine, &catalog_);
  const std::vector<ServiceRequest> warm = {
      TopKRequest("deep", 8, TopKMetric::kSymDiff)};
  ASSERT_TRUE(scheduler.ExecuteBatch(warm)[0].ok());
  ASSERT_EQ(RankFolds(scheduler), 1);

  const std::vector<ServiceRequest> batch = {
      TopKRequest("deep", 4, TopKMetric::kIntersection),
      TopKRequest("deep", 8, TopKMetric::kFootrule),
      BaselineRequest("deep", 3, "prf")};
  const auto served = scheduler.ExecuteBatch(batch);
  EXPECT_EQ(RankFolds(scheduler), 1);
  const CacheStats stats = scheduler.cache_stats();
  EXPECT_EQ(stats.misses, 3);  // 8 cold, then 4 and 3 warm
  EXPECT_EQ(stats.hits, 1);
  const auto reference = DirectAnswers(catalog_, batch);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(WireLine(served[i]), WireLine(reference[i])) << "slot " << i;
  }
}

// The plan and its stash live in each ExecuteSlots call, not on the shard:
// two threads batch over overlapping shapes at mixed k through one
// scheduler, each from a cold cache, and every answer must be bitwise the
// sequential reference's. TSan watches the plan's state.
TEST_F(QuerySchedulerTest, ConcurrentBatchesPlanTheirOwnFolds) {
  std::vector<std::string> names;
  for (int t = 0; t < 5; ++t) {
    names.push_back("p" + std::to_string(t));
    ASSERT_TRUE(
        catalog_.Insert(names.back(), RandomDeepTree(900 + t, 9)).ok());
  }
  // Thread 0 reads p0..p3, thread 1 p1..p4, each at 4 and 8 and in its
  // own order.
  std::vector<std::vector<ServiceRequest>> batches(2);
  batches[0] = MixedKRequests({names[0], names[1], names[2], names[3]});
  batches[1] = MixedKRequests({names[4], names[3], names[2], names[1]});
  std::reverse(batches[1].begin(), batches[1].end());

  std::vector<std::vector<std::string>> reference(2);
  for (size_t b = 0; b < batches.size(); ++b) {
    for (const auto& response : DirectAnswers(catalog_, batches[b])) {
      reference[b].push_back(WireLine(response));
    }
  }

  EngineOptions engine_options;
  engine_options.num_threads = 2;
  Engine shared_engine(engine_options);
  for (int round = 0; round < 4; ++round) {
    QueryScheduler scheduler(&shared_engine, &catalog_);
    std::vector<std::vector<Result<ServiceResponse>>> observed(2);
    std::vector<std::thread> workers;
    for (size_t b = 0; b < batches.size(); ++b) {
      workers.emplace_back([&, b] {
        observed[b] = scheduler.ExecuteBatch(batches[b]);
      });
    }
    for (std::thread& worker : workers) worker.join();
    for (size_t b = 0; b < batches.size(); ++b) {
      ASSERT_EQ(observed[b].size(), reference[b].size());
      for (size_t i = 0; i < observed[b].size(); ++i) {
        EXPECT_EQ(WireLine(observed[b][i]), reference[b][i])
            << "round " << round << " batch " << b << " slot " << i;
      }
    }
  }
}

// Loads apply before queries in the same batch, both input formats work,
// and a load failure stays in its slot.
TEST_F(QuerySchedulerTest, LoadsApplyBeforeQueriesInTheSameBatch) {
  std::string tree_path = TempPath("service_load.sexp");
  std::string bid_path = TempPath("service_load.bid");
  ASSERT_TRUE(WriteStringToFile(tree_path, kOtherTreeText).ok());
  ASSERT_TRUE(WriteStringToFile(bid_path,
                                "1 0.6 8\n1 0.3 5\n2 0.7 9\n")
                  .ok());
  ServiceRequest query = TopKRequest("late", 1, TopKMetric::kSymDiff);
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

  Engine engine;
  QueryScheduler scheduler(&engine, &catalog_);
  // The query references a tree loaded *later* in the batch.
  auto results =
      scheduler.ExecuteBatch({query, load, load_bid, load_missing});
  ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
  ASSERT_TRUE(results[1].ok());
  EXPECT_NE(results[1]->fingerprint.value(), 0u);
  ASSERT_TRUE(results[2].ok());
  EXPECT_FALSE(results[3].ok());
  EXPECT_EQ(catalog_.size(), 4u);  // t, deep, late, late_bid
}

TEST_F(QuerySchedulerTest, StatsRequestReportsCacheCounters) {
  Engine engine;
  QueryScheduler scheduler(&engine, &catalog_);
  ServiceRequest stats;
  stats.op = ServiceRequest::Op::kStats;
  ServiceRequest world;
  world.op = ServiceRequest::Op::kWorld;
  world.tree_name = "t";
  // Stats report the post-batch state even when the line precedes queries.
  auto results = scheduler.ExecuteBatch(
      {stats, TopKRequest("t", 2, TopKMetric::kSymDiff),
       TopKRequest("t", 2, TopKMetric::kFootrule), world, world});
  ASSERT_TRUE(results[0].ok());
  EXPECT_EQ(results[0]->stats.misses, 1);
  EXPECT_EQ(results[0]->stats.hits, 1);
  // The sibling cache: two world queries on one fingerprint, one marginal
  // fold.
  EXPECT_EQ(results[0]->marginals_stats.misses, 1);
  EXPECT_EQ(results[0]->marginals_stats.hits, 1);
  EXPECT_EQ(results[0]->marginals_stats.entries, 1);
  EXPECT_GT(results[0]->marginals_stats.bytes, 0);
}

// World queries share one marginal fold per content fingerprint — across
// batches, across mean/median, and in agreement with direct engine calls.
TEST_F(QuerySchedulerTest, MarginalsCacheDeduplicatesWorldFolds) {
  ServiceRequest mean;
  mean.op = ServiceRequest::Op::kWorld;
  mean.tree_name = "deep";
  ServiceRequest median = mean;
  median.median_world = true;

  EngineOptions engine_options;
  engine_options.num_threads = 2;
  Engine engine(engine_options);
  QueryScheduler cached(&engine, &catalog_);

  auto first = cached.ExecuteBatch({mean, median});
  auto second = cached.ExecuteBatch({median, mean});
  auto direct = DirectAnswers(catalog_, {mean, median});
  for (auto* results : {&first, &second, &direct}) {
    for (auto& slot : *results) ASSERT_TRUE(slot.ok());
  }
  // Bitwise parity cached/warm/direct, mean and median alike.
  EXPECT_EQ(first[0]->keys, direct[0]->keys);
  EXPECT_EQ(first[0]->expected_distance, direct[0]->expected_distance);
  EXPECT_EQ(first[1]->keys, direct[1]->keys);
  EXPECT_EQ(first[1]->expected_distance, direct[1]->expected_distance);
  EXPECT_EQ(second[1]->keys, first[0]->keys);
  EXPECT_EQ(second[1]->expected_distance, first[0]->expected_distance);
  // Four world queries, one fingerprint, one fold.
  CacheStats stats = cached.marginals_stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 3);
  EXPECT_EQ(stats.entries, 1);
}

// ---------------------------------------------------------------------------
// Streamed execution: each request its own one-request batch (ExecuteAlone)
// ---------------------------------------------------------------------------

// Streamed answers are bitwise the batch answers, and the folds still share
// the caches (the second symdiff k=2 request hits the entry the first one
// computed).
TEST_F(QuerySchedulerTest, StreamingAnswersMatchBatchBitwise) {
  EngineOptions engine_options;
  engine_options.num_threads = 2;
  Engine engine(engine_options);
  ServiceRequest world;
  world.op = ServiceRequest::Op::kWorld;
  world.tree_name = "deep";
  std::vector<ServiceRequest> requests = {
      TopKRequest("deep", 3, TopKMetric::kSymDiff),
      TopKRequest("deep", 3, TopKMetric::kKendall),
      TopKRequest("deep", 3, TopKMetric::kSymDiff),
      world,
      world,
  };
  QueryScheduler batch_scheduler(&engine, &catalog_);
  auto batch = batch_scheduler.ExecuteBatch(requests);

  QueryScheduler stream_scheduler(&engine, &catalog_);
  std::vector<Result<ServiceResponse>> streamed;
  for (const ServiceRequest& request : requests) {
    streamed.push_back(ExecuteAlone(stream_scheduler, request));
  }
  ASSERT_EQ(streamed.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(batch[i].ok());
    ASSERT_TRUE(streamed[i].ok()) << streamed[i].status().ToString();
    EXPECT_EQ(streamed[i]->keys, batch[i]->keys) << "slot " << i;
    EXPECT_EQ(streamed[i]->expected_distance, batch[i]->expected_distance);
  }
  // Fold sharing carried over: one rank-distribution fold (two k=3 symdiff
  // queries share it; kendall reuses the same (fingerprint, k) entry), one
  // marginal fold for the two world queries.
  CacheStats stats = stream_scheduler.cache_stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 2);
  CacheStats marginals = stream_scheduler.marginals_stats();
  EXPECT_EQ(marginals.misses, 1);
  EXPECT_EQ(marginals.hits, 1);
}

// Streaming executes strictly in input order: unlike a batch, a query may
// not reference a tree loaded later in the stream, and stats report their
// point in the stream, not the post-input state.
TEST_F(QuerySchedulerTest, StreamingIsOrderSensitiveWhereBatchIsNot) {
  std::string tree_path = TempPath("stream_late.sexp");
  ASSERT_TRUE(WriteStringToFile(tree_path, kOtherTreeText).ok());
  ServiceRequest query = TopKRequest("stream_late", 1, TopKMetric::kSymDiff);
  ServiceRequest load;
  load.op = ServiceRequest::Op::kLoad;
  load.load_name = "stream_late";
  load.load_file = tree_path;
  ServiceRequest stats;
  stats.op = ServiceRequest::Op::kStats;
  std::vector<ServiceRequest> requests = {stats, query, load, query};

  Engine engine;
  // Private catalogs: the point is what each mode does with a name bound
  // mid-input, so the name must not leak from one scheduler to the other.
  TreeCatalog batch_catalog;
  TreeCatalog stream_catalog;
  // The same input as a batch: the load applies first, both queries answer,
  // and the leading stats line reports the post-batch counters.
  QueryScheduler batch_scheduler(&engine, &batch_catalog);
  auto batch = batch_scheduler.ExecuteBatch(requests);
  EXPECT_TRUE(batch[1].ok());
  EXPECT_TRUE(batch[3].ok());
  EXPECT_EQ(batch[0]->stats.misses, 1);

  QueryScheduler stream_scheduler(&engine, &stream_catalog);
  std::vector<Result<ServiceResponse>> streamed;
  for (const ServiceRequest& request : requests) {
    streamed.push_back(ExecuteAlone(stream_scheduler, request));
  }
  ASSERT_EQ(streamed.size(), 4u);
  // Point-in-time stats: nothing had executed yet.
  ASSERT_TRUE(streamed[0].ok());
  EXPECT_EQ(streamed[0]->stats.misses, 0);
  // The query preceding its load fails; the one after it succeeds, with
  // answers equal to the batch's.
  EXPECT_FALSE(streamed[1].ok());
  EXPECT_EQ(streamed[1].status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(streamed[3].ok());
  EXPECT_EQ(streamed[3]->keys, batch[3]->keys);
  EXPECT_EQ(streamed[3]->expected_distance, batch[3]->expected_distance);
}

// ResponseToFields renders every op into protocol fields.
TEST_F(QuerySchedulerTest, ResponsesRenderToProtocolFields) {
  Engine engine;
  QueryScheduler scheduler(&engine, &catalog_);
  auto results =
      scheduler.ExecuteBatch({TopKRequest("t", 2, TopKMetric::kSymDiff)});
  ASSERT_TRUE(results[0].ok());
  std::string line = FormatResponseLine(ResponseToFields(*results[0]));
  EXPECT_EQ(line.find("ok\top=topk\ttree=t\tmetric=symdiff"), 0u);
  EXPECT_NE(line.find("keys="), std::string::npos);
  EXPECT_NE(line.find("expected="), std::string::npos);
}

// ---------------------------------------------------------------------------
// Metrics registry surfaces
// ---------------------------------------------------------------------------

// The golden-name test: the cache-counter re-export names are wire
// contract (dashboards and scrape configs key on them), so the exact set
// for each prefix is pinned here. A rename must show up as a deliberate
// edit to this list.
TEST(CacheStatsMetricsTest, ExportedNamesAreGolden) {
  for (const std::string& prefix :
       {std::string("cpdb_rankdist_cache_"),
        std::string("cpdb_marginals_cache_"),
        std::string("cpdb_precompute_cache_")}) {
    CacheStats stats;
    stats.hits = 1;
    stats.misses = 2;
    stats.coalesced = 3;
    stats.entries = 4;
    stats.evictions = 5;
    stats.bytes = 6;

    MetricsSnapshot snapshot;
    AppendCacheStatsMetrics(stats, prefix, &snapshot);
    std::vector<std::pair<std::string, MetricSample::Kind>> got;
    for (const MetricSample& sample : snapshot.samples) {
      got.emplace_back(sample.name, sample.kind);
    }
    const std::vector<std::pair<std::string, MetricSample::Kind>> want = {
        {prefix + "hits_total", MetricSample::Kind::kCounter},
        {prefix + "misses_total", MetricSample::Kind::kCounter},
        {prefix + "coalesced_total", MetricSample::Kind::kCounter},
        {prefix + "evictions_total", MetricSample::Kind::kCounter},
        {prefix + "entries", MetricSample::Kind::kGauge},
        {prefix + "bytes", MetricSample::Kind::kGauge},
    };
    EXPECT_EQ(got, want) << prefix;
  }
}

// op=stats and op=metrics read the same CacheStats structs; the values
// they report must agree exactly.
TEST_F(QuerySchedulerTest, MetricsScrapeAgreesWithStatsOp) {
  Engine engine;
  QueryScheduler scheduler(&engine, &catalog_);
  std::vector<ServiceRequest> batch = {
      TopKRequest("deep", 3, TopKMetric::kSymDiff),
      TopKRequest("deep", 3, TopKMetric::kSymDiff),  // warm hit
      TopKRequest("t", 2, TopKMetric::kKendall),
  };
  ServiceRequest world;
  world.op = ServiceRequest::Op::kWorld;
  world.tree_name = "deep";
  batch.push_back(world);
  ServiceRequest stats;
  stats.op = ServiceRequest::Op::kStats;
  batch.push_back(stats);
  ServiceRequest metrics;
  metrics.op = ServiceRequest::Op::kMetrics;
  batch.push_back(metrics);

  auto results = scheduler.ExecuteBatch(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (const auto& result : results) ASSERT_TRUE(result.ok());

  const ServiceResponse& stats_response = *results[4];
  const MetricsSnapshot& scrape = results[5]->metrics;
  EXPECT_EQ(scrape.Find("cpdb_rankdist_cache_hits_total")->value,
            stats_response.stats.hits);
  EXPECT_EQ(scrape.Find("cpdb_rankdist_cache_misses_total")->value,
            stats_response.stats.misses);
  EXPECT_EQ(scrape.Find("cpdb_rankdist_cache_entries")->value,
            stats_response.stats.entries);
  EXPECT_EQ(scrape.Find("cpdb_rankdist_cache_bytes")->value,
            stats_response.stats.bytes);
  EXPECT_EQ(scrape.Find("cpdb_marginals_cache_hits_total")->value,
            stats_response.marginals_stats.hits);
  EXPECT_EQ(scrape.Find("cpdb_marginals_cache_misses_total")->value,
            stats_response.marginals_stats.misses);

  // The request counters describe this batch, metrics op included.
  EXPECT_EQ(scrape.Find("cpdb_requests_total")->value, 6);
  EXPECT_EQ(scrape.Find("cpdb_topk_requests_total")->value, 3);
  EXPECT_EQ(scrape.Find("cpdb_world_requests_total")->value, 1);
  EXPECT_EQ(scrape.Find("cpdb_stats_requests_total")->value, 1);
  EXPECT_EQ(scrape.Find("cpdb_metrics_requests_total")->value, 1);
  EXPECT_EQ(scrape.Find("cpdb_request_errors_total")->value, 0);
  // The engine compiled at least one flat fold to answer the queries.
  EXPECT_GT(scrape.Find("cpdb_fold_compiles_total")->value, 0);
  // The kendall query's mean answer is the precompute cache's one entry.
  EXPECT_EQ(scrape.Find("cpdb_precompute_cache_misses_total")->value,
            scheduler.precompute_stats().misses);
  EXPECT_EQ(scrape.Find("cpdb_precompute_cache_entries")->value, 1);
}

// Every slot's solve is timed by its own fold span — no batch-wide split:
// with one engine thread and an auto-advancing FakeClock each solve spans
// exactly one clock step, the fold histogram records one sample per slot,
// and no request's spans exceed its total.
TEST_F(QuerySchedulerTest, EachSlotRecordsItsOwnFoldSpan) {
  constexpr int64_t kStep = 7;
  FakeClock clock(1000);
  clock.set_auto_advance(kStep);
  EngineOptions engine_options;
  engine_options.num_threads = 1;
  Engine engine(engine_options);
  SchedulerOptions options;
  options.clock = &clock;
  QueryScheduler scheduler(&engine, &catalog_, options);

  auto results = scheduler.ExecuteBatch(
      {TopKRequest("deep", 3, TopKMetric::kSymDiff),
       TopKRequest("deep", 3, TopKMetric::kFootrule),
       TopKRequest("t", 2, TopKMetric::kKendall)});
  std::vector<int64_t> folds;
  for (const auto& result : results) {
    ASSERT_TRUE(result.ok());
    int64_t spans = 0;
    for (const auto& [stage, nanos] : result->timing.spans) {
      spans += nanos;
      if (stage == "fold") folds.push_back(nanos);
    }
    EXPECT_LE(spans, result->timing.total_ns);
  }
  EXPECT_EQ(folds, (std::vector<int64_t>{kStep, kStep, kStep}));
  const MetricsSnapshot scrape = scheduler.MetricsSnapshotNow();
  const MetricSample* fold = scrape.Find("cpdb_stage_fold_latency_nanoseconds");
  ASSERT_NE(fold, nullptr);
  EXPECT_EQ(fold->hist.count, 3);
  EXPECT_EQ(fold->hist.sum_nanos, 3 * kStep);
}

// trace_* fields appear exactly when the request said trace=on — never
// on a plain request, even with metrics recording enabled.
TEST_F(QuerySchedulerTest, TraceFieldsGatedByRequest) {
  Engine engine;
  QueryScheduler scheduler(&engine, &catalog_);
  ServiceRequest plain = TopKRequest("deep", 3, TopKMetric::kSymDiff);
  ServiceRequest traced = plain;
  traced.trace = true;

  auto results = scheduler.ExecuteBatch({plain, traced});
  ASSERT_TRUE(results[0].ok());
  ASSERT_TRUE(results[1].ok());
  const std::string plain_line =
      FormatResponseLine(ResponseToFields(*results[0]));
  const std::string traced_line =
      FormatResponseLine(ResponseToFields(*results[1]));
  EXPECT_EQ(plain_line.find("trace_"), std::string::npos);
  EXPECT_NE(traced_line.find("\ttrace_total_ns="), std::string::npos);
  // The answer prefix is byte-identical; trace fields are a pure suffix.
  EXPECT_EQ(traced_line.substr(0, traced_line.find("\ttrace_")),
            plain_line.substr(0, plain_line.size() - 1));
}

// With one shard there is nothing to route: the scheduler over a borrowed
// catalog serves whatever that catalog holds — trees inserted straight
// into it before or after construction, and trees installed through
// InstallCatalogSnapshot — and an unknown name gets the catalog's own
// NotFound bytes.
TEST_F(QuerySchedulerTest, BorrowedCatalogServesEveryWayATreeArrives) {
  Engine engine;
  QueryScheduler scheduler(&engine, &catalog_);  // "t", "deep" inserted
  ASSERT_TRUE(catalog_.InsertFromText("later", kOtherTreeText).ok());
  TreeCatalog source;
  ASSERT_TRUE(source.Insert("installed", RandomDeepTree(7)).ok());
  ASSERT_TRUE(InstallCatalogSnapshot(BuildCatalogSnapshot(source, nullptr),
                                     &catalog_, &scheduler)
                  .ok());

  // The reference: an owned one-shard scheduler fed the same trees.
  QueryScheduler reference(1, EngineOptions());
  for (const char* name : {"t", "deep", "later"}) {
    ASSERT_TRUE(reference.Insert(name, *catalog_.Lookup(name)->tree).ok());
  }
  ASSERT_TRUE(reference.Insert("installed", RandomDeepTree(7)).ok());

  for (const char* name : {"t", "deep", "later", "installed"}) {
    SCOPED_TRACE(name);
    const ServiceRequest request = TopKRequest(name, 2, TopKMetric::kSymDiff);
    const Result<ServiceResponse> want = ExecuteAlone(reference, request);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    // The first pass computes cold; the second answers from the warm cache.
    for (int pass = 0; pass < 2; ++pass) {
      SCOPED_TRACE("pass " + std::to_string(pass));
      const Result<ServiceResponse> got = ExecuteAlone(scheduler, request);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->keys, want->keys);
      EXPECT_EQ(got->expected_distance, want->expected_distance);
    }
  }

  const ServiceRequest ghost = TopKRequest("ghost", 2, TopKMetric::kSymDiff);
  const Status unknown = TreeCatalog::UnknownTreeError("ghost");
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE("ghost pass " + std::to_string(pass));
    const Result<ServiceResponse> got = ExecuteAlone(scheduler, ghost);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), unknown.code());
    EXPECT_EQ(got.status().message(), unknown.message());
  }
}

// An unknown name leaves exactly one set of metric records, whether the
// shard's catalog (one shard) or the front end's directory (N > 1)
// reports it.
TEST_F(QuerySchedulerTest, UnknownTreeLeavesOneSetOfMetricRecords) {
  Engine engine;
  QueryScheduler borrowed(&engine, &catalog_);
  QueryScheduler sharded(4, EngineOptions());
  const ServiceRequest ghost = TopKRequest("ghost", 2, TopKMetric::kSymDiff);
  for (QueryScheduler* scheduler : {&borrowed, &sharded}) {
    // A repeat of the same unknown name leaves one more set, not two.
    for (int pass = 0; pass < 2; ++pass) {
      SCOPED_TRACE("shards=" + std::to_string(scheduler->num_shards()) +
                   " pass " + std::to_string(pass));
      const MetricsSnapshot before = scheduler->MetricsSnapshotNow();
      ASSERT_FALSE(ExecuteAlone(*scheduler, ghost).ok());
      const MetricsSnapshot after = scheduler->MetricsSnapshotNow();
      for (const char* counter :
           {"cpdb_request_errors_total", "cpdb_topk_requests_total",
            "cpdb_requests_total"}) {
        EXPECT_EQ(after.Find(counter)->value, before.Find(counter)->value + 1)
            << counter;
      }
      for (const char* histogram : {"cpdb_topk_latency_nanoseconds",
                                    "cpdb_stage_catalog_latency_nanoseconds"}) {
        EXPECT_EQ(after.Find(histogram)->hist.count,
                  before.Find(histogram)->hist.count + 1)
            << histogram;
      }
    }
  }
}

}  // namespace
}  // namespace cpdb
