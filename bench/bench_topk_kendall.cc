// Copyright 2026 The ConsensusDB Authors
//
// Experiment E9: Kendall-tau consensus Top-k. Exact optimization is NP-hard;
// the paper offers constant-factor approximations. We measure the footrule
// aggregation against the exact subset-DP optimum (the ratios should sit far
// below the proven factor 2) and time the pairwise statistic precomputation
// that drives everything.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>

#include "common/rng.h"
#include "oracle/kendall_oracles.h"
#include "oracle/table_generators.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

void BM_KendallEvaluatorPrecompute(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(59);
  RandomTreeOptions opts;
  opts.num_keys = n;
  opts.max_alternatives = 2;
  auto tree = RandomBid(opts, &rng);
  for (auto _ : state) {
    KendallEvaluator evaluator(*tree, 5);
    benchmark::DoNotOptimize(evaluator);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_KendallEvaluatorPrecompute)
    ->RangeMultiplier(2)
    ->Range(8, 64)
    ->Complexity();

void PrintQualityTable() {
  std::printf("\n## E9: Kendall-tau approximation ratios vs exact"
              " (small instances, k = 2)\n\n");
  std::printf("| seed | E[d_K] exact | footrule 2-approx | footrule ratio |\n");
  std::printf("|---|---|---|---|\n");
  double worst_footrule = 0.0;
  for (int seed = 0; seed < 8; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 997 + 71);
    RandomTreeOptions opts;
    opts.num_keys = 6;
    opts.max_depth = 2;
    opts.max_alternatives = 2;
    auto tree = RandomAndXorTree(opts, &rng);
    const int k = 2;
    RankDistribution dist = ComputeRankDistribution(*tree, k);
    if (static_cast<int>(dist.keys().size()) < k) continue;
    KendallEvaluator evaluator(*tree, k);
    auto exact = MeanTopKKendallExactDp(evaluator, dist);
    if (!exact.ok()) continue;
    auto footrule = MeanTopKKendallViaFootrule(evaluator, dist);
    double fr = exact->expected_distance > 1e-9
                    ? footrule->expected_distance / exact->expected_distance
                    : 1.0;
    worst_footrule = std::max(worst_footrule, fr);
    std::printf("| %d | %.4f | %.4f | %.3f |\n", seed,
                exact->expected_distance, footrule->expected_distance, fr);
  }
  std::printf("\nWorst measured ratio: footrule %.3f (bound 2.0).\n\n",
              worst_footrule);

  // E9b: mid-size instances.
  std::printf("## E9b: approximation ratios vs the subset-DP exact optimum"
              " (n = 14, k = 4)\n\n");
  std::printf("| seed | E[d_K] exact (DP) | footrule | footrule ratio |\n");
  std::printf("|---|---|---|---|\n");
  for (int seed = 0; seed < 5; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 1009 + 3);
    RandomTreeOptions opts;
    opts.num_keys = 14;
    opts.max_alternatives = 2;
    auto tree = RandomBid(opts, &rng);
    const int k = 4;
    RankDistribution dist = ComputeRankDistribution(*tree, k);
    KendallEvaluator evaluator(*tree, k);
    auto exact = MeanTopKKendallExactDp(evaluator, dist);
    if (!exact.ok()) continue;
    auto footrule = MeanTopKKendallViaFootrule(evaluator, dist);
    double fr = footrule->expected_distance / exact->expected_distance;
    std::printf("| %d | %.4f | %.4f | %.3f |\n", seed,
                exact->expected_distance, footrule->expected_distance, fr);
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
