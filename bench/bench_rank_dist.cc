// Copyright 2026 The ConsensusDB Authors
//
// Experiment E4: the rank-distribution engine (Example 3 machinery) that
// powers every Section 5 algorithm: the rank scan's scaling over n and k,
// on BID and deep and/xor inputs.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/rank_distribution.h"
#include "oracle/fold_oracles.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

// The rank scan on BID trees, where each leaf's root path crosses its
// block's XOR and O(log n) balanced AND products: O(L (k^2 log n + k a))
// for L alternatives, a per block.
void BM_RankDistBid(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  int k = static_cast<int>(state.range(1));
  Rng rng(17);
  RandomTreeOptions opts;
  opts.num_keys = n;
  opts.max_alternatives = 2;
  auto tree = RandomBid(opts, &rng);
  for (auto _ : state) {
    RankDistribution dist = ComputeRankDistribution(*tree, k);
    benchmark::DoNotOptimize(dist);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_RankDistBid)
    ->ArgsProduct({{32, 64, 128, 256, 512, 1024, 2048}, {10}})
    ->ArgsProduct({{128}, {5, 10, 20, 40}})
    ->Complexity(benchmark::oNLogN);

// Pointer-tree reference for BM_RankDistBid (identical inputs, identical
// bits out): the per-leaf EvalGeneratingFunction walk that allocates one
// Poly2 per node visit. The gap between the two at large n is the
// flatten+arena+vectorize win; perfbench's engine.fold.rankdist_ns times
// the flat fold inside serve.
void BM_RankDistBidPointer(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  int k = static_cast<int>(state.range(1));
  Rng rng(17);
  RandomTreeOptions opts;
  opts.num_keys = n;
  opts.max_alternatives = 2;
  auto tree = RandomBid(opts, &rng);
  for (auto _ : state) {
    RankDistribution dist = ComputeRankDistributionPointer(*tree, k);
    benchmark::DoNotOptimize(dist);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_RankDistBidPointer)
    ->ArgsProduct({{32, 64, 128, 256, 512}, {10}})
    ->ArgsProduct({{128}, {5, 10, 20, 40}})
    ->Complexity(benchmark::oNSquared);

void BM_RankDistDeepAndXor(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  int k = static_cast<int>(state.range(1));
  Rng rng(19);
  RandomTreeOptions opts;
  opts.num_keys = n;
  opts.max_depth = 4;
  opts.max_alternatives = 2;
  auto tree = RandomAndXorTree(opts, &rng);
  state.counters["leaves"] = tree->NumLeaves();
  for (auto _ : state) {
    RankDistribution dist = ComputeRankDistribution(*tree, k);
    benchmark::DoNotOptimize(dist);
  }
}
BENCHMARK(BM_RankDistDeepAndXor)->ArgsProduct({{16, 32, 64, 128}, {10}});

}  // namespace
}  // namespace cpdb

BENCHMARK_MAIN();
