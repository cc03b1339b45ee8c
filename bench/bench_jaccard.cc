// Copyright 2026 The ConsensusDB Authors
//
// Experiment E3: Jaccard-distance consensus (Lemmas 1-2). Times a single
// Lemma 1 evaluation (O(n^3)) and the full prefix-scan mean-world search
// (O(n^4)), and reports how the mean world's size tracks the probability
// profile.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "common/rng.h"
#include "core/jaccard.h"
#include "oracle/table_generators.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

void BM_ExpectedJaccardSingleEval(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(3);
  auto tree = RandomTupleIndependent(n, &rng);
  std::vector<NodeId> world(tree->LeafIds().begin(),
                            tree->LeafIds().begin() + n / 2);
  for (auto _ : state) {
    double d = ExpectedJaccardDistance(*tree, world);
    benchmark::DoNotOptimize(d);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_ExpectedJaccardSingleEval)
    ->RangeMultiplier(2)
    ->Range(16, 256)
    ->Complexity(benchmark::oNCubed);

void BM_MeanWorldJaccard(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(5);
  auto tree = RandomTupleIndependent(n, &rng);
  for (auto _ : state) {
    auto world = MeanWorldJaccard(*tree);
    benchmark::DoNotOptimize(world);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_MeanWorldJaccard)->RangeMultiplier(2)->Range(8, 128)->Complexity();

void BM_MedianWorldJaccardBid(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(7);
  RandomTreeOptions opts;
  opts.num_keys = n;
  opts.max_alternatives = 3;
  auto tree = RandomBid(opts, &rng);
  for (auto _ : state) {
    auto world = MedianWorldJaccardBid(*tree);
    benchmark::DoNotOptimize(world);
  }
}
BENCHMARK(BM_MedianWorldJaccardBid)->RangeMultiplier(2)->Range(8, 64);

void PrintQualityTable() {
  std::printf("\n## E3: Jaccard mean world composition\n\n");
  std::printf("| n | mean-world size | E[d_J] of mean world | E[d_J] of "
              "empty world | E[d_J] of full set |\n");
  std::printf("|---|---|---|---|---|\n");
  for (int n : {8, 16, 32, 64}) {
    Rng rng(5);
    auto tree = RandomTupleIndependent(n, &rng);
    auto mean = MeanWorldJaccard(*tree);
    std::vector<NodeId> all = tree->LeafIds();
    std::printf("| %d | %zu | %.4f | %.4f | %.4f |\n", n, mean->size(),
                ExpectedJaccardDistance(*tree, *mean),
                ExpectedJaccardDistance(*tree, {}),
                ExpectedJaccardDistance(*tree, all));
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
