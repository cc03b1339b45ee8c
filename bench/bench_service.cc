// Copyright 2026 The ConsensusDB Authors
//
// Serving-layer benchmarks: what the cross-query rank-distribution cache
// buys on batches that share (tree fingerprint, k). The acceptance scenario
// is a batch of 8+ queries against one catalog tree with one k — with the
// cache on, the O(L^2 k) fold runs once per (tree, k) instead of once per
// query. Three points on the curve:
//
//   BM_ServeBatchUncached — a cache budget of 0 bytes: nothing is
//       retained, so every query pays the fold.
//   BM_ServeBatchColdCache — fresh scheduler per iteration: the first
//       query of each (tree, k) pays, the rest hit (the within-batch win).
//   BM_ServeBatchWarmCache — one long-lived scheduler: all queries hit
//       (the steady-state serving win).
//
// Answers are bitwise identical in all three modes (tests/service_test.cc);
// only the fold count changes.
//
//   BM_ServeColdMixedK — fresh scheduler per iteration, 16 shapes each
//       asked for k = 4 then k = 8 in one batch: the batch's fold plan
//       folds each shape once, at k = 8, and serves k = 4 its prefix
//       (rank_folds counts the folds per iteration: 16, not 32).
//
// Plus the long-lived-server scenarios the eviction PR added:
//
//   BM_ServeChurnBudgeted — a churn workload (requests cycling through many
//       distinct (tree, k) keys) against a byte budget, from tiny to
//       unbounded. The cache_bytes counter reports the retained footprint:
//       bounded by the budget under churn (tests/cache_eviction_test.cc
//       pins bytes <= budget in *every* snapshot, and warm-hit answers
//       bitwise identical to direct engine calls), while the unbounded arm
//       shows the memory an immortal cache would accrete. evictions counts
//       the churn.
//   BM_ServeStreamingChurn — the same request stream executed the way
//       serve --stream does, each request its own one-request batch
//       (ExecuteAlone), caches still shared across the stream. Each
//       response exists before the next request runs — streaming latency
//       is per-request, not per-input.
//
// And the sharding PR's scaling scenario:
//
//   BM_ServeSharded — a shard-disjoint batch (32 distinct trees, so the
//       fingerprint partition spreads requests across every shard) through
//       a ShardedScheduler of 1/2/4/8 single-threaded shards, caches that
//       retain nothing (budget 0) so every iteration pays its folds. Throughput should scale near-
//       linearly with the shard count: the shards share no state at all,
//       which is the whole premise of partitioning by fingerprint. Answers
//       are bitwise identical at every point on the curve
//       (tests/sharded_service_test.cc).
//
// And the two-level-identity PR's dedup scenario:
//
//   BM_ServeDedupedCatalog — the BM_ServeTraceReplay request mix against a
//       catalog of 8·D names holding commutative shuffles of 8 shapes.
//       Structural keys collapse the duplicates to one compiled fold and
//       one retained distribution per shape, so throughput stays flat as
//       D grows (perfbench measures the same effect end to end as
//       service.catalog.dedup_ratio and engine.fold_compiles).
//
// And the load path every start-up pays:
//
//   BM_TreeLoad — ParseTree + TreeCatalog::ComputeIdentity of one tree's
//       text: arg 0 is a cold_batch deep shape (~100 leaves), arg 1 a
//       heavy_sharded shape (~44 leaves), arg 2 a cold_batch wide shape
//       (64 keys, depth 2, ~165 leaves). Each load validates once,
//       serializes once and canonicalizes in one walk.
//   BM_SnapshotDecode — DecodeCatalogSnapshot of 256 heavy_sharded-shaped
//       tree records, each shape with its k = 5 rank distribution as in
//       heavy_sharded's snapshot: the bulk of `serve --catalog` set-up.
//       The arg is the size of the pool the records decode on, built
//       outside the timed loop, as serve's scheduler pool is (real time).

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "engine/engine.h"
#include "execute_alone.h"
#include "io/tree_text.h"
#include "model/and_xor_tree.h"
#include "service/catalog_snapshot.h"
#include "service/query_scheduler.h"
#include "service/sharded_scheduler.h"
#include "service/tree_catalog.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

constexpr int kK = 5;

AndXorTree MakeServingTree(int num_keys) {
  Rng rng(31);
  RandomTreeOptions opts;
  opts.num_keys = num_keys;
  opts.max_depth = 3;
  opts.max_alternatives = 2;
  return *RandomAndXorTree(opts, &rng);
}

ServiceRequest TopKRequest(TopKMetric metric,
                           TopKAnswer answer = TopKAnswer::kMean) {
  ServiceRequest request;
  request.op = ServiceRequest::Op::kTopK;
  request.tree_name = "serving";
  request.k = kK;
  request.metric = metric;
  request.answer = answer;
  return request;
}

// A batch of 8 queries sharing one (tree, k) whose cost is dominated by the
// rank-distribution fold — symdiff, footrule, and intersection mean answers
// plus repeats, the shape a ranking dashboard sends per refresh. This is
// the acceptance scenario: with the cache, the fold runs once instead of 8
// times, so cached throughput approaches 8x the uncached path.
std::vector<ServiceRequest> SharedBatch() {
  return {
      TopKRequest(TopKMetric::kSymDiff),
      TopKRequest(TopKMetric::kSymDiff, TopKAnswer::kMeanUnrestricted),
      TopKRequest(TopKMetric::kIntersection),
      TopKRequest(TopKMetric::kIntersection, TopKAnswer::kMeanApprox),
      TopKRequest(TopKMetric::kFootrule),
      TopKRequest(TopKMetric::kSymDiff),       // repeats, as real traffic has
      TopKRequest(TopKMetric::kFootrule),
      TopKRequest(TopKMetric::kIntersection),
  };
}

// The same 8 plus a kendall mean and a symdiff median: those two carry
// per-query tails (the O(n^2) q-matrix folds, the per-score stratum DPs)
// that no rank-distribution cache can elide, so the speedup shrinks toward
// the tail cost. Kept as the honest upper-bound-of-traffic contrast.
std::vector<ServiceRequest> HeavyTailBatch() {
  std::vector<ServiceRequest> batch = SharedBatch();
  batch.push_back(TopKRequest(TopKMetric::kKendall));
  batch.push_back(TopKRequest(TopKMetric::kSymDiff, TopKAnswer::kMedian));
  return batch;
}

struct ServiceFixture {
  explicit ServiceFixture(int num_keys, int threads) {
    EngineOptions engine_options;
    engine_options.num_threads = threads;
    engine = std::make_unique<Engine>(engine_options);
    catalog.Insert("serving", MakeServingTree(num_keys)).ValueOrDie();
  }
  std::unique_ptr<Engine> engine;
  TreeCatalog catalog;
};

void BM_ServeBatchUncached(benchmark::State& state) {
  ServiceFixture fixture(static_cast<int>(state.range(0)),
                         static_cast<int>(state.range(1)));
  SchedulerOptions options;
  options.cache_budget_bytes = 0;
  QueryScheduler scheduler(fixture.engine.get(), &fixture.catalog, options);
  std::vector<ServiceRequest> batch = SharedBatch();
  for (auto _ : state) {
    auto results = scheduler.ExecuteBatch(batch);
    benchmark::DoNotOptimize(results);
  }
}
BENCHMARK(BM_ServeBatchUncached)->Args({40, 1})->Args({40, 4})->Args({80, 4});

void BM_ServeBatchColdCache(benchmark::State& state) {
  ServiceFixture fixture(static_cast<int>(state.range(0)),
                         static_cast<int>(state.range(1)));
  std::vector<ServiceRequest> batch = SharedBatch();
  for (auto _ : state) {
    // A fresh scheduler per iteration: only within-batch sharing counts.
    QueryScheduler scheduler(fixture.engine.get(), &fixture.catalog);
    auto results = scheduler.ExecuteBatch(batch);
    benchmark::DoNotOptimize(results);
  }
}
BENCHMARK(BM_ServeBatchColdCache)->Args({40, 1})->Args({40, 4})->Args({80, 4});

void BM_ServeBatchWarmCache(benchmark::State& state) {
  ServiceFixture fixture(static_cast<int>(state.range(0)),
                         static_cast<int>(state.range(1)));
  QueryScheduler scheduler(fixture.engine.get(), &fixture.catalog);
  std::vector<ServiceRequest> batch = SharedBatch();
  scheduler.ExecuteBatch(batch);  // warm the (tree, k) entry
  for (auto _ : state) {
    auto results = scheduler.ExecuteBatch(batch);
    benchmark::DoNotOptimize(results);
  }
}
BENCHMARK(BM_ServeBatchWarmCache)->Args({40, 1})->Args({40, 4})->Args({80, 4});

void BM_ServeColdMixedK(benchmark::State& state) {
  constexpr int kShapes = 16;
  EngineOptions engine_options;
  engine_options.num_threads = 4;
  Engine engine(engine_options);
  TreeCatalog catalog;
  Rng rng(404);
  RandomTreeOptions tree_options;
  tree_options.num_keys = 24;
  tree_options.max_depth = 4;
  tree_options.max_alternatives = 3;
  std::vector<ServiceRequest> batch;
  for (int t = 0; t < kShapes; ++t) {
    const std::string name = "mixed" + std::to_string(t);
    catalog.Insert(name, *RandomAndXorTree(tree_options, &rng)).ValueOrDie();
    for (int k : {4, 8}) {
      ServiceRequest request = TopKRequest(TopKMetric::kSymDiff);
      request.tree_name = name;
      request.k = k;
      batch.push_back(request);
    }
  }
  const int64_t folds_before = engine.obs_counters().rank_folds;
  for (auto _ : state) {
    // A fresh scheduler per iteration: every shape folds cold.
    QueryScheduler scheduler(&engine, &catalog);
    auto results = scheduler.ExecuteBatch(batch);
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size()));
  state.counters["rank_folds"] = benchmark::Counter(
      static_cast<double>(engine.obs_counters().rank_folds - folds_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ServeColdMixedK)->UseRealTime();

// A catalog of many distinct small trees plus a request stream that cycles
// through (tree, k) combinations — the key-churn traffic shape a long-lived
// server sees, where an immortal cache grows without bound.
struct ChurnFixture {
  static constexpr int kTrees = 24;

  explicit ChurnFixture(int threads) {
    EngineOptions engine_options;
    engine_options.num_threads = threads;
    engine = std::make_unique<Engine>(engine_options);
    Rng rng(97);
    for (int i = 0; i < kTrees; ++i) {
      RandomTreeOptions opts;
      opts.num_keys = 24;
      opts.max_depth = 3;
      opts.max_alternatives = 2;
      catalog.Insert("churn" + std::to_string(i), *RandomAndXorTree(opts, &rng))
          .ValueOrDie();
    }
  }

  std::vector<ServiceRequest> Stream() const {
    std::vector<ServiceRequest> requests;
    // 48 distinct (tree, k) keys over 72 requests: every key recurs a round
    // later, so a cache large enough to span a round's working set turns
    // the third round warm, while a tiny budget keeps evicting the keys it
    // is about to need — the honest worst case for LRU under churn.
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < kTrees; ++i) {
        ServiceRequest request;
        request.op = ServiceRequest::Op::kTopK;
        request.tree_name = "churn" + std::to_string(i);
        request.k = 3 + (i + round) % 2;
        request.metric = TopKMetric::kSymDiff;
        requests.push_back(request);
      }
    }
    return requests;
  }

  std::unique_ptr<Engine> engine;
  TreeCatalog catalog;
};

void BM_ServeChurnBudgeted(benchmark::State& state) {
  ChurnFixture fixture(/*threads=*/4);
  SchedulerOptions options;
  options.cache_budget_bytes = state.range(0);
  QueryScheduler scheduler(fixture.engine.get(), &fixture.catalog, options);
  std::vector<ServiceRequest> stream = fixture.Stream();
  for (auto _ : state) {
    auto results = scheduler.ExecuteBatch(stream);
    benchmark::DoNotOptimize(results);
  }
  CacheStats stats = scheduler.cache_stats();
  state.counters["cache_bytes"] =
      static_cast<double>(stats.bytes + scheduler.marginals_stats().bytes);
  state.counters["evictions"] = static_cast<double>(stats.evictions);
  state.counters["hit_rate"] =
      stats.hits + stats.misses == 0
          ? 0.0
          : static_cast<double>(stats.hits) /
                static_cast<double>(stats.hits + stats.misses);
}
// 16 KiB holds a handful of the ~2 KiB entries (heavy eviction); 256 KiB
// holds the whole working set (eviction-free steady state); -1 is the
// immortal-cache contrast.
BENCHMARK(BM_ServeChurnBudgeted)
    ->Arg(16 << 10)
    ->Arg(256 << 10)
    ->Arg(kUnboundedCacheBytes);

void BM_ServeStreamingChurn(benchmark::State& state) {
  ChurnFixture fixture(/*threads=*/4);
  SchedulerOptions options;
  options.cache_budget_bytes = state.range(0);
  QueryScheduler scheduler(fixture.engine.get(), &fixture.catalog, options);
  std::vector<ServiceRequest> stream = fixture.Stream();
  int64_t emitted = 0;
  for (auto _ : state) {
    for (const ServiceRequest& request : stream) {
      Result<ServiceResponse> response = ExecuteAlone(scheduler, request);
      ++emitted;
      benchmark::DoNotOptimize(response);
    }
  }
  // Per-iteration, not accumulated: the value must describe the workload
  // (72 responses per stream) regardless of how many iterations ran.
  state.counters["responses"] = benchmark::Counter(
      static_cast<double>(emitted), benchmark::Counter::kAvgIterations);
  state.counters["cache_bytes"] =
      static_cast<double>(scheduler.cache_stats().bytes);
}
BENCHMARK(BM_ServeStreamingChurn)->Arg(16 << 10)->Arg(kUnboundedCacheBytes);

// Shard scaling on shard-disjoint traffic: one Top-k request per distinct
// tree, caches that retain nothing so each iteration measures fold
// throughput, one thread per shard engine so parallelism comes only from
// the shard fan-out.
void BM_ServeSharded(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  constexpr int kTrees = 32;
  EngineOptions engine_options;
  engine_options.num_threads = 1;
  SchedulerOptions options;
  options.cache_budget_bytes = 0;
  ShardedScheduler sharded(shards, engine_options, options);

  Rng rng(53);
  std::vector<ServiceRequest> batch;
  for (int i = 0; i < kTrees; ++i) {
    RandomTreeOptions tree_options;
    tree_options.num_keys = 32;
    tree_options.max_depth = 3;
    tree_options.max_alternatives = 2;
    std::string name = "disjoint" + std::to_string(i);
    sharded.Insert(name, *RandomAndXorTree(tree_options, &rng)).ValueOrDie();
    ServiceRequest request;
    request.op = ServiceRequest::Op::kTopK;
    request.tree_name = name;
    request.k = kK;
    request.metric = TopKMetric::kSymDiff;
    batch.push_back(request);
  }

  for (auto _ : state) {
    auto results = sharded.ExecuteBatch(batch);
    benchmark::DoNotOptimize(results);
  }
  // Real time, not CPU time: the work happens on the scheduler's pool,
  // so the main thread's CPU clock under-reports by design. Requests/sec
  // then scales with min(shards, cores) — near-linear wherever the
  // hardware has the cores to back the shard count.
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size()));
}
BENCHMARK(BM_ServeSharded)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime()->MeasureProcessCPUTime();

void BM_ServeHeavyTailUncached(benchmark::State& state) {
  ServiceFixture fixture(static_cast<int>(state.range(0)),
                         static_cast<int>(state.range(1)));
  SchedulerOptions options;
  options.cache_budget_bytes = 0;
  QueryScheduler scheduler(fixture.engine.get(), &fixture.catalog, options);
  std::vector<ServiceRequest> batch = HeavyTailBatch();
  for (auto _ : state) {
    auto results = scheduler.ExecuteBatch(batch);
    benchmark::DoNotOptimize(results);
  }
}
BENCHMARK(BM_ServeHeavyTailUncached)->Args({40, 4});

void BM_ServeHeavyTailWarmCache(benchmark::State& state) {
  ServiceFixture fixture(static_cast<int>(state.range(0)),
                         static_cast<int>(state.range(1)));
  QueryScheduler scheduler(fixture.engine.get(), &fixture.catalog);
  std::vector<ServiceRequest> batch = HeavyTailBatch();
  scheduler.ExecuteBatch(batch);
  for (auto _ : state) {
    auto results = scheduler.ExecuteBatch(batch);
    benchmark::DoNotOptimize(results);
  }
}
BENCHMARK(BM_ServeHeavyTailWarmCache)->Args({40, 4});

// Warm restart (the snapshot PR's trajectory): how fast a restarted
// replica reaches its first served response, three ways.
//
//   arm 0 (cold)       — parse every catalog tree from text and insert it
//                        line-by-line, then serve; the first batch pays
//                        every rank-distribution fold.
//   arm 1 (snap)       — decode + install a trees-only snapshot (one
//                        contiguous buffer instead of N files); the first
//                        batch still pays its folds.
//   arm 2 (snap+dists) — decode + install a snapshot carrying the saved
//                        rank distributions; the first batch hits the
//                        seeded cache and re-folds nothing.
//
// Each iteration is a full restart: fresh catalog + scheduler, load, then
// the first batch. The time_to_first_response counter isolates
// startup + first answer — the latency a load balancer waits before
// routing traffic to the replica. Answers are bitwise identical across all
// three arms (tests/catalog_warm_restart_test.cc).
void BM_ServeWarmRestart(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  constexpr int kTrees = 16;
  EngineOptions engine_options;
  engine_options.num_threads = 4;
  Engine engine(engine_options);

  // The catalog source of truth, as serve sees it: canonical text.
  Rng rng(67);
  std::vector<std::string> names;
  std::vector<std::string> texts;
  std::vector<ServiceRequest> batch;
  for (int i = 0; i < kTrees; ++i) {
    RandomTreeOptions opts;
    opts.num_keys = 40;
    opts.max_depth = 3;
    opts.max_alternatives = 2;
    names.push_back("restart" + std::to_string(i));
    texts.push_back(FormatTree(*RandomAndXorTree(opts, &rng), false));
    ServiceRequest request;
    request.op = ServiceRequest::Op::kTopK;
    request.tree_name = names.back();
    request.k = kK;
    request.metric = TopKMetric::kSymDiff;
    batch.push_back(request);
  }

  // Produce both snapshot flavors from a reference replica warmed on the
  // exact batch the restarted replica will serve.
  std::string snapshot_bytes;
  {
    TreeCatalog catalog;
    QueryScheduler scheduler(&engine, &catalog);
    for (int i = 0; i < kTrees; ++i) {
      catalog.Insert(names[i], *ParseTree(texts[i])).ValueOrDie();
    }
    scheduler.ExecuteBatch(batch);
    snapshot_bytes = EncodeCatalogSnapshot(BuildCatalogSnapshot(
        catalog, mode == 2 ? &scheduler : nullptr));
  }

  double first_response_seconds = 0.0;
  for (auto _ : state) {
    TreeCatalog catalog;
    QueryScheduler scheduler(&engine, &catalog);
    const auto start = std::chrono::steady_clock::now();
    if (mode == 0) {
      for (int i = 0; i < kTrees; ++i) {
        catalog.Insert(names[i], *ParseTree(texts[i])).ValueOrDie();
      }
    } else {
      CatalogSnapshot snapshot =
          DecodeCatalogSnapshot(snapshot_bytes.data(), snapshot_bytes.size())
              .ValueOrDie();
      if (!InstallCatalogSnapshot(snapshot, &catalog, &scheduler).ok()) {
        state.SkipWithError("snapshot install failed");
        return;
      }
    }
    auto first = ExecuteAlone(scheduler, batch[0]);
    first_response_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    benchmark::DoNotOptimize(first);
    auto results = scheduler.ExecuteBatch(batch);
    benchmark::DoNotOptimize(results);
  }
  state.counters["time_to_first_response"] = benchmark::Counter(
      first_response_seconds, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ServeWarmRestart)
    ->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// The observability acceptance benchmark: a deterministic mixed request
// trace — Top-k across metrics and answers, worlds, periodic stats probes,
// cycling over 8 trees — replayed through one long-lived scheduler.
// Args: {metrics, trace}. (0,0) is the uninstrumented baseline (zero clock
// reads on the serve path); (1,0) is production serving with the registry
// recording every request; (1,1) additionally asks for trace=on output on
// every request. Recording is a handful of relaxed atomics and two
// steady-clock reads per span, nothing allocated, nothing locked;
// perfbench's --trace 1 run reports the end-to-end cost as
// trace.overhead_ratio.
std::vector<ServiceRequest> MixedTrace(int num_trees, bool traced) {
  std::vector<ServiceRequest> trace;
  constexpr TopKMetric kMetricCycle[] = {TopKMetric::kSymDiff,
                                         TopKMetric::kIntersection,
                                         TopKMetric::kFootrule};
  // The registry's analytics ops ride the production mix at roughly the
  // rate sidecar analytics ride real traffic: of every 16 requests, one
  // is marginals, one aggregate, one baseline, and every 32nd a hardness
  // probe — the rest stays the historical topk/world/stats blend, so
  // per-request numbers remain comparable with pre-registry baselines
  // modulo the (reported) mix change.
  constexpr const char* kBaselineCycle[] = {"escore", "erank", "global",
                                            "prf"};
  for (int i = 0; i < 64; ++i) {
    ServiceRequest request;
    if (i % 16 == 15) {
      request.op = ServiceRequest::Op::kStats;
    } else if (i % 16 == 1) {
      request.op = ServiceRequest::Op::kMarginals;
      request.tree_name = "trace" + std::to_string(i % num_trees);
    } else if (i % 16 == 2) {
      request.op = ServiceRequest::Op::kAggregate;
      request.tree_name = "trace" + std::to_string(i % num_trees);
    } else if (i % 16 == 5) {
      request.op = ServiceRequest::Op::kBaseline;
      request.tree_name = "trace" + std::to_string(i % num_trees);
      request.k = 5 + (i % 3);
      request.baseline_method = kBaselineCycle[(i / 16) % 4];
    } else if (i % 32 == 10) {
      request.op = ServiceRequest::Op::kHardness;
      request.tree_name = "trace" + std::to_string(i % num_trees);
    } else if (i % 4 == 3) {
      request.op = ServiceRequest::Op::kWorld;
      request.tree_name = "trace" + std::to_string(i % num_trees);
      request.median_world = (i % 8) == 3;
    } else {
      request.op = ServiceRequest::Op::kTopK;
      request.tree_name = "trace" + std::to_string(i % num_trees);
      request.k = 5 + (i % 3);
      request.metric = kMetricCycle[i % 3];
      request.answer =
          (i % 12) == 6 ? TopKAnswer::kMeanUnrestricted : TopKAnswer::kMean;
    }
    request.trace = traced;
    trace.push_back(request);
  }
  return trace;
}

void BM_ServeTraceReplay(benchmark::State& state) {
  const bool metrics_on = state.range(0) != 0;
  const bool traced = state.range(1) != 0;
  constexpr int kTraceTrees = 8;

  // One engine thread: the comparison is instrumented vs uninstrumented
  // serving, and thread-pool scheduling noise (especially on small CI
  // machines) would otherwise swamp the sub-2% effect being measured.
  EngineOptions engine_options;
  engine_options.num_threads = 1;
  Engine engine(engine_options);
  TreeCatalog catalog;
  // Serving-sized trees: per-request work must dwarf the instruments'
  // constant cost (a few hundred ns of atomics and clock reads) the way
  // it does in production, or the comparison measures nothing real.
  Rng rng(77);
  RandomTreeOptions tree_options;
  tree_options.num_keys = 48;
  tree_options.max_depth = 3;
  tree_options.max_alternatives = 2;
  for (int t = 0; t < kTraceTrees; ++t) {
    catalog
        .Insert("trace" + std::to_string(t),
                *RandomAndXorTree(tree_options, &rng))
        .ValueOrDie();
  }

  SchedulerOptions options;
  options.enable_metrics = metrics_on;
  QueryScheduler scheduler(&engine, &catalog, options);
  const std::vector<ServiceRequest> trace = MixedTrace(kTraceTrees, traced);
  scheduler.ExecuteBatch(trace);  // warm the caches: steady-state serving

  for (auto _ : state) {
    auto results = scheduler.ExecuteBatch(trace);
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(trace.size()));
}
BENCHMARK(BM_ServeTraceReplay)
    ->Args({0, 0})->Args({1, 0})->Args({1, 1})
    ->UseRealTime();

// The analytics-serving acceptance benchmark: op=marginals replayed
// against a long-lived scheduler. Arg 1 is an unbounded cache budget —
// steady state pays only the per-key summation over the cached
// leaf-marginal vector (the same vector op=world and op=aggregate read);
// arg 0 a budget of 0 bytes, so every request re-folds the tree. Answers are bitwise identical in
// both arms (tests/op_registry_test.cc pins them against the offline
// `marginals` command).
void BM_ServeMarginalsCached(benchmark::State& state) {
  constexpr int kTrees = 8;
  EngineOptions engine_options;
  engine_options.num_threads = 1;
  Engine engine(engine_options);

  // The BM_ServeTraceReplay shapes (same generator seed): serving-sized
  // trees, so the fold-vs-sum gap is the production one.
  Rng rng(77);
  RandomTreeOptions tree_options;
  tree_options.num_keys = 48;
  tree_options.max_depth = 3;
  tree_options.max_alternatives = 2;
  TreeCatalog catalog;
  for (int t = 0; t < kTrees; ++t) {
    catalog
        .Insert("trace" + std::to_string(t),
                *RandomAndXorTree(tree_options, &rng))
        .ValueOrDie();
  }

  SchedulerOptions options;
  if (state.range(0) == 0) options.cache_budget_bytes = 0;
  QueryScheduler scheduler(&engine, &catalog, options);
  std::vector<ServiceRequest> batch;
  for (int i = 0; i < 32; ++i) {
    ServiceRequest request;
    request.op = ServiceRequest::Op::kMarginals;
    request.tree_name = "trace" + std::to_string(i % kTrees);
    batch.push_back(request);
  }
  scheduler.ExecuteBatch(batch);  // warm: steady-state serving

  for (auto _ : state) {
    auto results = scheduler.ExecuteBatch(batch);
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size()));
  state.counters["marg_entries"] =
      static_cast<double>(scheduler.marginals_stats().entries);
}
BENCHMARK(BM_ServeMarginalsCached)->Arg(1)->Arg(0)->UseRealTime();

// Rebuilds `id`'s subtree with every inner node's children in a random
// order — a commutative shuffle: a different wire identity, the same
// structural key.
NodeId RebuildShuffledNode(const AndXorTree& in, NodeId id, Rng* rng,
                           AndXorTree* out) {
  const TreeNode& n = in.node(id);
  if (n.kind == NodeKind::kLeaf) return out->AddLeaf(n.leaf);
  std::vector<size_t> order(n.children.size());
  std::iota(order.begin(), order.end(), 0u);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng->Next() % i]);
  }
  std::vector<NodeId> children;
  std::vector<double> probs;
  children.reserve(order.size());
  for (size_t idx : order) {
    children.push_back(RebuildShuffledNode(in, n.children[idx], rng, out));
    if (n.kind == NodeKind::kXor) probs.push_back(n.edge_probs[idx]);
  }
  return n.kind == NodeKind::kAnd
             ? out->AddAnd(std::move(children))
             : out->AddXor(std::move(children), std::move(probs));
}

AndXorTree ShuffledCopy(const AndXorTree& tree, Rng* rng) {
  AndXorTree out;
  out.SetRoot(RebuildShuffledNode(tree, tree.root(), rng, &out));
  return out;
}

// The two-level-identity acceptance benchmark: the mixed trace above,
// replayed against a catalog of shuffled duplicates. Arg is the duplicate
// factor D — the catalog binds 8·D names, where name i holds a random
// commutative shuffle of shape i mod 8, and the 64-request trace cycles
// over all 8·D names. Structural canonicalization keys every fold, cache
// line, and compiled FlatTree by *shape*, so the counters pin the dedup
// (shapes=8 and fold_compiles=8 at every D) and per-request throughput
// stays flat as duplicates multiply: D=4 serves 32 names for the cost of 8
// (perfbench: service.catalog.dedup_ratio, engine.fold_compiles). Without
// the structural level every duplicate would pay its own fold and its own
// retained distribution.
void BM_ServeDedupedCatalog(benchmark::State& state) {
  const int dups = static_cast<int>(state.range(0));
  constexpr int kShapes = 8;

  EngineOptions engine_options;
  engine_options.num_threads = 1;
  Engine engine(engine_options);

  // The same serving-sized shapes as BM_ServeTraceReplay (same generator
  // seed), so the two benchmarks' per-request numbers are comparable.
  Rng rng(77);
  RandomTreeOptions tree_options;
  tree_options.num_keys = 48;
  tree_options.max_depth = 3;
  tree_options.max_alternatives = 2;
  std::vector<AndXorTree> shapes;
  shapes.reserve(kShapes);
  for (int t = 0; t < kShapes; ++t) {
    shapes.push_back(*RandomAndXorTree(tree_options, &rng));
  }

  TreeCatalog catalog;
  Rng shuffle_rng(123);
  const int num_names = kShapes * dups;
  for (int i = 0; i < num_names; ++i) {
    AndXorTree tree = dups == 1
                          ? shapes[static_cast<size_t>(i % kShapes)]
                          : ShuffledCopy(shapes[static_cast<size_t>(i % kShapes)],
                                         &shuffle_rng);
    catalog.Insert("trace" + std::to_string(i), std::move(tree)).ValueOrDie();
  }

  QueryScheduler scheduler(&engine, &catalog);
  const std::vector<ServiceRequest> trace = MixedTrace(num_names, false);
  scheduler.ExecuteBatch(trace);  // warm: steady-state serving

  for (auto _ : state) {
    auto results = scheduler.ExecuteBatch(trace);
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(trace.size()));
  const CatalogCounts counts = catalog.Counts();
  state.counters["names"] = static_cast<double>(counts.names);
  state.counters["shapes"] = static_cast<double>(counts.shapes);
  state.counters["fold_compiles"] = static_cast<double>(catalog.fold_compiles());
  state.counters["rankdist_entries"] =
      static_cast<double>(scheduler.cache_stats().entries);
}
BENCHMARK(BM_ServeDedupedCatalog)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// A random tree with a leaf count in [min_leaves, max_leaves], drawn like
// perfbench's workload shapes: arg 0 = cold_batch deep, 1 = heavy_sharded,
// 2 = cold_batch wide.
AndXorTree LoadShape(int shape, Rng* rng) {
  struct Shape {
    int num_keys, max_depth, max_alternatives, min_leaves, max_leaves;
  };
  constexpr Shape kShapes[] = {
      {24, 5, 2, 100, 110}, {12, 3, 2, 42, 45}, {64, 2, 3, 160, 170}};
  const Shape& s = kShapes[shape];
  RandomTreeOptions opts;
  opts.num_keys = s.num_keys;
  opts.max_depth = s.max_depth;
  opts.max_alternatives = s.max_alternatives;
  while (true) {
    AndXorTree tree = *RandomAndXorTree(opts, rng);
    if (tree.NumLeaves() >= s.min_leaves && tree.NumLeaves() <= s.max_leaves) {
      return tree;
    }
  }
}

void BM_TreeLoad(benchmark::State& state) {
  Rng rng(71);
  const std::string text =
      FormatTree(LoadShape(static_cast<int>(state.range(0)), &rng));
  for (auto _ : state) {
    // The parsed tree moves into ComputeIdentity, as on serve's load path.
    TreeIdentity identity =
        TreeCatalog::ComputeIdentity(ParseTree(text).ValueOrDie())
            .ValueOrDie();
    benchmark::DoNotOptimize(identity);
  }
  state.counters["bytes"] = static_cast<double>(text.size());
}
BENCHMARK(BM_TreeLoad)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

void BM_SnapshotDecode(benchmark::State& state) {
  constexpr int kRecords = 256;
  constexpr int kK = 5;
  Rng rng(73);
  TreeCatalog catalog;
  for (int i = 0; i < kRecords; ++i) {
    catalog.Insert("h" + std::to_string(i), LoadShape(1, &rng)).ValueOrDie();
  }
  CatalogSnapshot source = BuildCatalogSnapshot(catalog, nullptr);
  const Engine engine;
  std::set<StructKey> shapes;
  for (const SnapshotTree& tree : source.trees) {
    if (!shapes.insert(tree.struct_key).second) continue;
    SnapshotDistribution dist;
    dist.struct_key = tree.struct_key;
    dist.k = kK;
    dist.dist = std::make_shared<const RankDistribution>(
        engine.ComputeRankDistribution(*tree.canonical_tree, kK));
    source.distributions.push_back(std::move(dist));
  }
  const std::string bytes = EncodeCatalogSnapshot(source);
  ThreadPool pool(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    CatalogSnapshot snapshot =
        DecodeCatalogSnapshot(bytes.data(), bytes.size(), &pool).ValueOrDie();
    benchmark::DoNotOptimize(snapshot);
  }
  state.counters["bytes"] = static_cast<double>(bytes.size());
}
BENCHMARK(BM_SnapshotDecode)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cpdb

BENCHMARK_MAIN();
