// Copyright 2026 The ConsensusDB Authors
//
// Experiment E2: mean/median worlds under symmetric difference (Theorem 2 /
// Corollary 1) are near-linear after marginal computation, on all model
// classes; the quality table confirms median == mean away from ties and
// reports both expected distances.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "common/rng.h"
#include "core/set_consensus.h"
#include "oracle/table_generators.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

void BM_MeanWorldBid(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(11);
  RandomTreeOptions opts;
  opts.num_keys = n;
  opts.max_alternatives = 3;
  auto tree = RandomBid(opts, &rng);
  for (auto _ : state) {
    auto world = MeanWorldSymDiff(*tree);
    benchmark::DoNotOptimize(world);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_MeanWorldBid)->RangeMultiplier(4)->Range(64, 16384)->Complexity();

void BM_MedianWorldBid(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(11);
  RandomTreeOptions opts;
  opts.num_keys = n;
  opts.max_alternatives = 3;
  auto tree = RandomBid(opts, &rng);
  for (auto _ : state) {
    auto world = MedianWorldSymDiff(*tree);
    benchmark::DoNotOptimize(world);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_MedianWorldBid)->RangeMultiplier(4)->Range(64, 16384)->Complexity();

void BM_MedianWorldDeepAndXor(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(13);
  RandomTreeOptions opts;
  opts.num_keys = n;
  opts.max_depth = 5;
  opts.max_alternatives = 2;
  auto tree = RandomAndXorTree(opts, &rng);
  state.counters["leaves"] = tree->NumLeaves();
  for (auto _ : state) {
    auto world = MedianWorldSymDiff(*tree);
    benchmark::DoNotOptimize(world);
  }
}
BENCHMARK(BM_MedianWorldDeepAndXor)->RangeMultiplier(4)->Range(16, 1024);

void PrintQualityTable() {
  std::printf("\n## E2: mean vs median world under d_Delta\n\n");
  std::printf(
      "| model | n | E[d] mean world | E[d] median world | identical? |\n");
  std::printf("|---|---|---|---|---|\n");
  for (int n : {64, 256, 1024}) {
    Rng rng(11);
    RandomTreeOptions opts;
    opts.num_keys = n;
    opts.max_alternatives = 3;
    auto tree = RandomBid(opts, &rng);
    auto mean = MeanWorldSymDiff(*tree);
    auto median = MedianWorldSymDiff(*tree);
    std::printf("| BID | %d | %.4f | %.4f | %s |\n", n,
                ExpectedSymDiffDistance(*tree, mean),
                ExpectedSymDiffDistance(*tree, median),
                mean == median ? "yes" : "no");
  }
  for (int n : {32, 128, 512}) {
    Rng rng(13);
    RandomTreeOptions opts;
    opts.num_keys = n;
    opts.max_depth = 5;
    opts.max_alternatives = 2;
    auto tree = RandomAndXorTree(opts, &rng);
    auto mean = MeanWorldSymDiff(*tree);
    auto median = MedianWorldSymDiff(*tree);
    std::printf("| deep and/xor | %d | %.4f | %.4f | %s |\n", n,
                ExpectedSymDiffDistance(*tree, mean),
                ExpectedSymDiffDistance(*tree, median),
                mean == median ? "yes" : "no");
  }
  std::printf("\n");
}

}  // namespace
}  // namespace cpdb

int main(int argc, char** argv) {
  cpdb::PrintQualityTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
