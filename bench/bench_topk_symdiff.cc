// Copyright 2026 The ConsensusDB Authors
//
// Experiments E5 and E6: mean Top-k (Theorem 3; PT-k with calibrated
// threshold) and the median Top-k threshold DP (Theorem 4) under d_Delta.
// The quality table compares the mean and median expected distances — the
// median pays a premium for realizability, which shrinks as correlations
// weaken.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "common/rng.h"
#include "core/topk_symdiff.h"
#include "oracle/table_generators.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

void BM_MeanTopKGivenRankDist(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(29);
  RandomTreeOptions opts;
  opts.num_keys = n;
  opts.max_alternatives = 2;
  auto tree = RandomBid(opts, &rng);
  RankDistribution dist = ComputeRankDistribution(*tree, 10);
  for (auto _ : state) {
    TopKResult mean = MeanTopKSymDiff(dist);
    benchmark::DoNotOptimize(mean);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_MeanTopKGivenRankDist)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Complexity();

void BM_MeanTopKEndToEnd(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  int k = static_cast<int>(state.range(1));
  Rng rng(29);
  RandomTreeOptions opts;
  opts.num_keys = n;
  opts.max_alternatives = 2;
  auto tree = RandomBid(opts, &rng);
  for (auto _ : state) {
    RankDistribution dist = ComputeRankDistribution(*tree, k);
    TopKResult mean = MeanTopKSymDiff(dist);
    benchmark::DoNotOptimize(mean);
  }
}
BENCHMARK(BM_MeanTopKEndToEnd)->ArgsProduct({{64, 128, 256}, {5, 10, 20}});

void BM_MedianTopKDp(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  int k = static_cast<int>(state.range(1));
  Rng rng(31);
  RandomTreeOptions opts;
  opts.num_keys = n;
  opts.max_depth = 4;
  opts.max_alternatives = 2;
  auto tree = RandomAndXorTree(opts, &rng);
  RankDistribution dist = ComputeRankDistribution(*tree, k);
  state.counters["leaves"] = tree->NumLeaves();
  for (auto _ : state) {
    auto median = MedianTopKSymDiff(*tree, dist);
    benchmark::DoNotOptimize(median);
  }
}
BENCHMARK(BM_MedianTopKDp)
    ->ArgsProduct({{16, 32, 64, 128}, {5}})
    ->ArgsProduct({{64}, {2, 5, 10, 20}});

void PrintQualityTable() {
  std::printf("\n## E5/E6: Top-k answer quality under d_Delta (k = 5)\n\n");
  std::printf("| model | n | E[d] mean (size k, Thm 3) | E[d] mean (any size) "
              "| |mean any size| | E[d] median | median realizability "
              "premium |\n");
  std::printf("|---|---|---|---|---|---|---|\n");
  auto row = [](const char* model, int n, const AndXorTree& tree) {
    RankDistribution dist = ComputeRankDistribution(tree, 5);
    TopKResult mean_k = MeanTopKSymDiff(dist);
    TopKResult mean_any = MeanTopKSymDiffUnrestricted(dist);
    auto median = MedianTopKSymDiff(tree, dist);
    double premium = median->expected_distance - mean_any.expected_distance;
    std::printf("| %s | %d | %.4f | %.4f | %zu | %.4f | %.4f |\n", model, n,
                mean_k.expected_distance, mean_any.expected_distance,
                mean_any.keys.size(), median->expected_distance, premium);
  };
  for (int n : {16, 32, 64}) {
    Rng rng(31);
    RandomTreeOptions opts;
    opts.num_keys = n;
    opts.max_depth = 4;
    opts.max_alternatives = 2;
    auto tree = RandomAndXorTree(opts, &rng);
    row("deep and/xor", n, *tree);
  }
  for (int n : {32, 128}) {
    Rng rng(37);
    RandomTreeOptions opts;
    opts.num_keys = n;
    opts.max_alternatives = 3;
    auto tree = RandomBid(opts, &rng);
    row("BID", n, *tree);
  }
  std::printf("\n(The \"any size\" mean is the Theorem-2-style set "
              "{t : Pr(r(t)<=k) > 1/2}; the median premium is the cost of "
              "realizability relative to it.)\n\n");
}

}  // namespace
}  // namespace cpdb

int main(int argc, char** argv) {
  cpdb::PrintQualityTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
