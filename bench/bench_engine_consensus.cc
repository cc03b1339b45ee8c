// Copyright 2026 The ConsensusDB Authors
//
// Thread scaling of the engine's newly parallelized consensus paths: the
// MedianTopKSymDiff stratum search, the footrule / intersection Hungarian
// cost-column builds, set consensus with chunked marginal folds, whole
// queries fanned across the pool, and the heavy tail kernels (Kendall q
// columns and mean answer, median search, expected ranks) one tree at a
// time. Every path is schedule-deterministic, so these runs
// double as a determinism smoke check: thread count changes wall-clock only
// (on multi-core hosts; a 1-core container shows flat curves).

#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "common/rng.h"
#include "engine/engine.h"
#include "model/flat_tree.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

AndXorTree MakeDeepTree(int num_keys) {
  Rng rng(29);
  RandomTreeOptions opts;
  opts.num_keys = num_keys;
  opts.max_depth = 3;
  opts.max_alternatives = 2;
  return *RandomAndXorTree(opts, &rng);
}

Engine MakeEngine(int threads) {
  EngineOptions opts;
  opts.num_threads = threads;
  return Engine(opts);
}

// The stratum-parallel Theorem 4 search (one DP per distinct score).
void BM_EngineMedianSymDiff(benchmark::State& state) {
  AndXorTree tree = MakeDeepTree(static_cast<int>(state.range(0)));
  Engine engine = MakeEngine(static_cast<int>(state.range(1)));
  const int k = 8;
  for (auto _ : state) {
    auto result = engine.ConsensusTopK(tree, k, TopKMetric::kSymDiff,
                                       TopKAnswer::kMedian);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_EngineMedianSymDiff)
    ->Args({40, 1})
    ->Args({40, 2})
    ->Args({40, 4})
    ->Args({40, 8});

// Per-candidate cost columns + Hungarian solve.
void BM_EngineFootrule(benchmark::State& state) {
  AndXorTree tree = MakeDeepTree(static_cast<int>(state.range(0)));
  Engine engine = MakeEngine(static_cast<int>(state.range(1)));
  const int k = 10;
  for (auto _ : state) {
    auto result = engine.ConsensusTopK(tree, k, TopKMetric::kFootrule);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_EngineFootrule)
    ->Args({60, 1})
    ->Args({60, 2})
    ->Args({60, 4})
    ->Args({60, 8});

// Footrule columns + the answer keys' q columns + d_K re-score.
void BM_EngineKendall(benchmark::State& state) {
  AndXorTree tree = MakeDeepTree(20);
  Engine engine = MakeEngine(static_cast<int>(state.range(0)));
  const int k = 5;
  for (auto _ : state) {
    auto result = engine.ConsensusTopK(tree, k, TopKMetric::kKendall);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_EngineKendall)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// The leaf marginals of one compile pass feeding the sequential min-cost
// DP, through the engine's world entry point.
void BM_EngineSetConsensus(benchmark::State& state) {
  AndXorTree tree = MakeDeepTree(200);
  Engine engine = MakeEngine(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto world = engine.ConsensusWorldWithMarginals(
        tree, engine.LeafMarginals(tree), /*median=*/true);
    benchmark::DoNotOptimize(world);
  }
}
BENCHMARK(BM_EngineSetConsensus)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// The solves of the serve benchmark's heavy_sharded workload one at a
// time, over the trees it draws: 12 keys, depth 3, 42-45 leaves, k = 5.
// Each iteration runs one tree's solve, cycling through 32 trees, so the
// time per iteration is the per-tree kernel cost. kendall_q is every key's
// q column (the whole matrix); kendall_mean is the answer serve computes
// on a cache miss, over the cached rank distribution: the footrule solve
// plus its answer keys' columns. median is the Theorem 4 scan, erank the
// expected-rank scan, and footrule_mean / intersection_mean the Hungarian
// solves over their cost / profit columns.
enum class HeavyTail {
  kKendallQ,
  kKendallMean,
  kMedian,
  kErank,
  kFootruleMean,
  kIntersectionMean
};

void BM_EngineHeavyTails(benchmark::State& state, HeavyTail tail) {
  constexpr int kK = 5;
  Rng rng(12);
  RandomTreeOptions opts;
  opts.num_keys = 12;
  opts.max_depth = 3;
  opts.max_alternatives = 2;
  std::vector<AndXorTree> trees;
  while (trees.size() < 32) {
    AndXorTree tree = *RandomAndXorTree(opts, &rng);
    if (tree.NumLeaves() >= 42 && tree.NumLeaves() <= 45) {
      trees.push_back(std::move(tree));
    }
  }
  Engine engine = MakeEngine(static_cast<int>(state.range(0)));
  std::vector<FlatTree> programs;
  std::vector<RankDistribution> dists;
  for (const AndXorTree& tree : trees) {
    programs.push_back(FlatTree::Compile(tree));
    dists.push_back(engine.ComputeRankDistribution(tree, kK));
  }
  size_t i = 0;
  for (auto _ : state) {
    const size_t t = i++ % trees.size();
    switch (tail) {
      case HeavyTail::kKendallQ:
        benchmark::DoNotOptimize(engine.KendallQColumns(
            trees[t], kK, dists[t].keys(), &programs[t]));
        break;
      case HeavyTail::kKendallMean:
        benchmark::DoNotOptimize(engine.ConsensusTopKWithDist(
            trees[t], dists[t], TopKMetric::kKendall, TopKAnswer::kMean,
            &programs[t]));
        break;
      case HeavyTail::kMedian:
        benchmark::DoNotOptimize(
            engine.MedianSymDiffSearch(trees[t], dists[t]));
        break;
      case HeavyTail::kErank:
        benchmark::DoNotOptimize(engine.ExpectedRanks(trees[t]));
        break;
      case HeavyTail::kFootruleMean:
        benchmark::DoNotOptimize(engine.ConsensusTopKWithDist(
            trees[t], dists[t], TopKMetric::kFootrule, TopKAnswer::kMean,
            &programs[t]));
        break;
      case HeavyTail::kIntersectionMean:
        benchmark::DoNotOptimize(engine.ConsensusTopKWithDist(
            trees[t], dists[t], TopKMetric::kIntersection, TopKAnswer::kMean,
            &programs[t]));
        break;
    }
  }
}
BENCHMARK_CAPTURE(BM_EngineHeavyTails, kendall_q, HeavyTail::kKendallQ)
    ->Arg(1)
    ->Arg(4);
BENCHMARK_CAPTURE(BM_EngineHeavyTails, kendall_mean, HeavyTail::kKendallMean)
    ->Arg(1)
    ->Arg(4);
BENCHMARK_CAPTURE(BM_EngineHeavyTails, median, HeavyTail::kMedian)
    ->Arg(1)
    ->Arg(4);
BENCHMARK_CAPTURE(BM_EngineHeavyTails, erank, HeavyTail::kErank)
    ->Arg(1)
    ->Arg(4);
BENCHMARK_CAPTURE(BM_EngineHeavyTails, footrule_mean, HeavyTail::kFootruleMean)
    ->Arg(1)
    ->Arg(4);
BENCHMARK_CAPTURE(BM_EngineHeavyTails, intersection_mean,
                  HeavyTail::kIntersectionMean)
    ->Arg(1)
    ->Arg(4);

// Whole-query fan-out: all four metrics x several k, one ConsensusTopK per
// query fanned across the engine's own pool (the serving layer's solve
// fan-out shape).
void BM_EngineConsensusBatch(benchmark::State& state) {
  AndXorTree tree = MakeDeepTree(30);
  Engine engine = MakeEngine(static_cast<int>(state.range(0)));
  std::vector<std::pair<int, TopKMetric>> queries;
  for (int k : {2, 4, 8}) {
    for (TopKMetric metric :
         {TopKMetric::kSymDiff, TopKMetric::kIntersection,
          TopKMetric::kFootrule, TopKMetric::kKendall}) {
      queries.emplace_back(k, metric);
    }
  }
  std::vector<Result<TopKResult>> results(
      queries.size(), Result<TopKResult>(Status::Internal("not run")));
  for (auto _ : state) {
    engine.ParallelFor(static_cast<int64_t>(queries.size()), [&](int64_t i) {
      const auto& [k, metric] = queries[static_cast<size_t>(i)];
      results[static_cast<size_t>(i)] = engine.ConsensusTopK(tree, k, metric);
    });
    benchmark::DoNotOptimize(results);
  }
}
BENCHMARK(BM_EngineConsensusBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace
}  // namespace cpdb

BENCHMARK_MAIN();
