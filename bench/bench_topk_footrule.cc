// Copyright 2026 The ConsensusDB Authors
//
// Experiment E8: the footrule-optimal mean Top-k answer via assignment
// (Section 5.4). The quality table pits the footrule optimum against
// order-oblivious answers (the d_Delta mean in Pr order and in reversed
// order) under E[F^(k+1)] — ordering must matter, and the assignment answer
// must win.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>

#include "common/rng.h"
#include "core/topk_footrule.h"
#include "oracle/table_generators.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

void BM_FootruleAssignment(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  int k = static_cast<int>(state.range(1));
  Rng rng(47);
  RandomTreeOptions opts;
  opts.num_keys = n;
  opts.max_alternatives = 2;
  auto tree = RandomBid(opts, &rng);
  RankDistribution dist = ComputeRankDistribution(*tree, k);
  for (auto _ : state) {
    auto mean = MeanTopKFootrule(dist);
    benchmark::DoNotOptimize(mean);
  }
}
BENCHMARK(BM_FootruleAssignment)
    ->ArgsProduct({{64, 256, 1024}, {10}})
    ->ArgsProduct({{256}, {5, 10, 20, 40}});

void BM_FootruleEndToEnd(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  const int k = 10;
  Rng rng(47);
  RandomTreeOptions opts;
  opts.num_keys = n;
  opts.max_alternatives = 2;
  auto tree = RandomBid(opts, &rng);
  for (auto _ : state) {
    RankDistribution dist = ComputeRankDistribution(*tree, k);
    auto mean = MeanTopKFootrule(dist);
    benchmark::DoNotOptimize(mean);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_FootruleEndToEnd)
    ->RangeMultiplier(2)
    ->Range(32, 512)
    ->Complexity();

void PrintQualityTable() {
  std::printf("\n## E8: footrule-optimal answer vs heuristic orderings"
              " (k = 10)\n\n");
  std::printf("| n | E[d_F] assignment | E[d_F] PrTopK order | E[d_F] "
              "reversed | assignment wins? |\n");
  std::printf("|---|---|---|---|---|\n");
  for (int n : {32, 128, 512}) {
    Rng rng(53);
    RandomTreeOptions opts;
    opts.num_keys = n;
    opts.max_alternatives = 2;
    auto tree = RandomBid(opts, &rng);
    const int k = 10;
    RankDistribution dist = ComputeRankDistribution(*tree, k);
    auto assignment = MeanTopKFootrule(dist);

    // Heuristic: the k most probable Top-k members ordered by PrTopK.
    std::vector<KeyId> by_prob = dist.keys();
    std::stable_sort(by_prob.begin(), by_prob.end(), [&](KeyId a, KeyId b) {
      return dist.PrTopK(a) > dist.PrTopK(b);
    });
    by_prob.resize(static_cast<size_t>(k));
    std::vector<KeyId> reversed(by_prob.rbegin(), by_prob.rend());

    double e_heur = ExpectedTopKFootrule(dist, by_prob);
    double e_rev = ExpectedTopKFootrule(dist, reversed);
    bool wins = assignment->expected_distance <= e_heur + 1e-9 &&
                assignment->expected_distance <= e_rev + 1e-9;
    std::printf("| %d | %.3f | %.3f | %.3f | %s |\n", n,
                assignment->expected_distance, e_heur, e_rev,
                wins ? "yes" : "NO (bug)");
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
