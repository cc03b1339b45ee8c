// Copyright 2026 The ConsensusDB Authors
//
// Experiment E11: consensus clustering (Section 6.2). Times the w_ij
// precomputation (closed-form on BID vs generating functions on correlated
// trees) and the pivot algorithm, and compares pivot / pivot+local-search /
// best-of-sampled-worlds against the exact optimum on small instances.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>

#include "common/rng.h"
#include "core/clustering.h"
#include "model/builders.h"
#include "oracle/references.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

Result<AndXorTree> LabeledInstance(int n, int labels, Rng* rng) {
  std::vector<std::vector<double>> probs(
      static_cast<size_t>(n), std::vector<double>(static_cast<size_t>(labels), 0.0));
  for (auto& row : probs) {
    double mass = rng->Uniform(0.6, 1.0);
    int support = static_cast<int>(rng->UniformInt(1, std::min(3, labels)));
    for (int s = 0; s < support; ++s) {
      row[static_cast<size_t>(rng->UniformInt(0, labels - 1))] += mass / support;
    }
  }
  return MakeAttributeUncertain(probs);
}

void BM_CoClusterClosedForm(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(83);
  auto tree = LabeledInstance(n, 8, &rng);
  for (auto _ : state) {
    auto problem = ClusteringProblem::FromTree(*tree);
    benchmark::DoNotOptimize(problem);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_CoClusterClosedForm)
    ->RangeMultiplier(2)
    ->Range(16, 512)
    ->Complexity();

void BM_CoClusterGeneratingFunction(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(89);
  RandomTreeOptions opts;
  opts.num_keys = n;
  opts.max_depth = 3;
  opts.max_alternatives = 2;
  auto tree = RandomAndXorTree(opts, &rng);
  for (auto _ : state) {
    auto problem = ClusteringProblem::FromTree(*tree);
    benchmark::DoNotOptimize(problem);
  }
}
BENCHMARK(BM_CoClusterGeneratingFunction)->RangeMultiplier(2)->Range(8, 64);

void BM_PivotClustering(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(97);
  auto tree = LabeledInstance(n, 8, &rng);
  auto problem = ClusteringProblem::FromTree(*tree);
  for (auto _ : state) {
    ClusteringAnswer answer = PivotClustering(*problem, &rng);
    benchmark::DoNotOptimize(answer);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_PivotClustering)->RangeMultiplier(2)->Range(16, 512)->Complexity();

void PrintQualityTable() {
  std::printf("\n## E11: clustering objective across algorithms\n\n");
  std::printf("| seed | n | exact | pivot | pivot+LS | best-of-64-worlds |\n");
  std::printf("|---|---|---|---|---|---|\n");
  for (int seed = 0; seed < 8; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 101 + 5);
    int n = 8;
    auto tree = LabeledInstance(n, 4, &rng);
    auto problem = ClusteringProblem::FromTree(*tree);
    auto exact = ExactClustering(*problem);
    ClusteringAnswer pivot = PivotClustering(*problem, &rng);
    ClusteringAnswer ls = LocalSearchClustering(*problem, pivot);
    ClusteringAnswer worlds = BestOfWorldsClustering(*tree, *problem, 64, &rng);
    std::printf("| %d | %d | %.4f | %.4f | %.4f | %.4f |\n", seed, n,
                problem->Expected(*exact), problem->Expected(pivot),
                problem->Expected(ls), problem->Expected(worlds));
  }
  std::printf("\n## E11b: larger instances (no exact baseline)\n\n");
  std::printf("| n | pivot | pivot+LS | best-of-128-worlds |\n");
  std::printf("|---|---|---|---|\n");
  for (int n : {32, 128, 512}) {
    Rng rng(107);
    auto tree = LabeledInstance(n, 8, &rng);
    auto problem = ClusteringProblem::FromTree(*tree);
    ClusteringAnswer pivot = PivotClustering(*problem, &rng);
    ClusteringAnswer ls = LocalSearchClustering(*problem, pivot);
    ClusteringAnswer worlds =
        BestOfWorldsClustering(*tree, *problem, 128, &rng);
    std::printf("| %d | %.1f | %.1f | %.1f |\n", n, problem->Expected(pivot),
                problem->Expected(ls), problem->Expected(worlds));
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
