// Copyright 2026 The ConsensusDB Authors
//
// Scaling of the parallel evaluation engine: rank distributions at 1/2/4/8
// threads, against the sequential core function as the 1-thread baseline.
// The engine splits a scan only when its cells pay for the handoff
// (FanOutUnits), so the small trees' curves are flat by design and the
// ~3,000-leaf arm is the one that measures the split.
// Because every engine path is schedule-deterministic, these runs also
// double as a determinism smoke check: all thread counts produce the same
// answers, only the wall-clock changes (on multi-core hosts; a 1-core
// container shows flat curves). BM_CoreMonteCarlo times the sequential
// world-sampling oracle the tests check closed forms against.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/rank_distribution.h"
#include "engine/engine.h"
#include "model/flat_tree.h"
#include "oracle/world_estimators.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

AndXorTree MakeTree(int num_keys) {
  Rng rng(17);
  RandomTreeOptions opts;
  opts.num_keys = num_keys;
  opts.max_depth = 3;
  opts.max_alternatives = 2;
  return *RandomAndXorTree(opts, &rng);
}

// 320 keys at depth 4, drawn until the tree has 2,900-3,100 leaves: a scan
// large enough that the engine still splits it across the pool.
AndXorTree MakeLargeTree() {
  Rng rng(31);
  RandomTreeOptions opts;
  opts.num_keys = 320;
  opts.max_depth = 4;
  opts.max_alternatives = 2;
  while (true) {
    AndXorTree tree = *RandomAndXorTree(opts, &rng);
    if (tree.NumLeaves() >= 2900 && tree.NumLeaves() <= 3100) return tree;
  }
}

void BM_CoreRankDist(benchmark::State& state) {
  AndXorTree tree = MakeTree(static_cast<int>(state.range(0)));
  const int k = 10;
  for (auto _ : state) {
    RankDistribution dist = ComputeRankDistribution(tree, k);
    benchmark::DoNotOptimize(dist);
  }
}
BENCHMARK(BM_CoreRankDist)->Arg(40)->Arg(80);

// Args: {keys, threads}; 320 keys is MakeLargeTree, the others MakeTree.
void BM_EngineRankDist(benchmark::State& state) {
  const int num_keys = static_cast<int>(state.range(0));
  AndXorTree tree = num_keys == 320 ? MakeLargeTree() : MakeTree(num_keys);
  const int k = 10;
  EngineOptions opts;
  opts.num_threads = static_cast<int>(state.range(1));
  Engine engine(opts);
  state.counters["leaves"] = tree.NumLeaves();
  for (auto _ : state) {
    RankDistribution dist = engine.ComputeRankDistribution(tree, k);
    benchmark::DoNotOptimize(dist);
  }
}
BENCHMARK(BM_EngineRankDist)
    ->Args({40, 1})
    ->Args({40, 2})
    ->Args({40, 4})
    ->Args({40, 8})
    ->Args({80, 1})
    ->Args({80, 2})
    ->Args({80, 4})
    ->Args({80, 8})
    ->Args({320, 1})
    ->Args({320, 4});

// The two tree shapes perfbench's cold_batch workload loads: deep (24
// keys, depth 5, 100-110 leaves) and wide (64 keys, depth 2, 160-170
// leaves), drawn until the leaf count lands in the band.
AndXorTree ColdBatchShape(bool wide) {
  Rng rng(wide ? 29 : 23);
  RandomTreeOptions opts;
  opts.num_keys = wide ? 64 : 24;
  opts.max_depth = wide ? 2 : 5;
  opts.max_alternatives = wide ? 3 : 2;
  const int min_leaves = wide ? 160 : 100;
  const int max_leaves = wide ? 170 : 110;
  while (true) {
    AndXorTree tree = *RandomAndXorTree(opts, &rng);
    if (tree.NumLeaves() >= min_leaves && tree.NumLeaves() <= max_leaves) {
      return tree;
    }
  }
}

// Args: {shape (0 deep, 1 wide), k, threads}. The general-path fold a
// cold_batch miss pays, with the program compiled once as the catalog does.
void BM_EngineRankDistColdShapes(benchmark::State& state) {
  const AndXorTree tree = ColdBatchShape(state.range(0) == 1);
  const FlatTree program = FlatTree::Compile(tree);
  const int k = static_cast<int>(state.range(1));
  EngineOptions opts;
  opts.num_threads = static_cast<int>(state.range(2));
  Engine engine(opts);
  state.counters["leaves"] = tree.NumLeaves();
  for (auto _ : state) {
    RankDistribution dist = engine.ComputeRankDistribution(tree, k, &program);
    benchmark::DoNotOptimize(dist);
  }
}
BENCHMARK(BM_EngineRankDistColdShapes)->ArgsProduct({{0, 1}, {4, 8}, {1, 4}});

void BM_CoreMonteCarlo(benchmark::State& state) {
  AndXorTree tree = MakeTree(60);
  const int samples = static_cast<int>(state.range(0));
  Rng rng(5);
  for (auto _ : state) {
    McEstimate e = EstimateOverWorlds(
        tree, samples, &rng, [](const std::vector<NodeId>& world) {
          return static_cast<double>(world.size());
        });
    benchmark::DoNotOptimize(e);
  }
}
BENCHMARK(BM_CoreMonteCarlo)->Arg(10000);

}  // namespace
}  // namespace cpdb

BENCHMARK_MAIN();
