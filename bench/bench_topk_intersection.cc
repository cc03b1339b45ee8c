// Copyright 2026 The ConsensusDB Authors
//
// Experiment E7: intersection-metric mean answers — exact assignment
// (Hungarian) vs the Upsilon_H approximation. The paper proves an H_k bound
// on the profit objective; the measured E[d_I] ratio should be far closer
// to 1 (who wins: exact, but by a hair; crossover: the approximation is the
// right choice once assignment time dominates).

#include <benchmark/benchmark.h>

#include <cstdio>

#include "common/rng.h"
#include "core/topk_intersection.h"
#include "oracle/references.h"
#include "oracle/table_generators.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

void BM_IntersectionExact(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  int k = static_cast<int>(state.range(1));
  Rng rng(41);
  RandomTreeOptions opts;
  opts.num_keys = n;
  opts.max_alternatives = 2;
  auto tree = RandomBid(opts, &rng);
  RankDistribution dist = ComputeRankDistribution(*tree, k);
  for (auto _ : state) {
    auto exact = MeanTopKIntersectionExact(dist);
    benchmark::DoNotOptimize(exact);
  }
}
BENCHMARK(BM_IntersectionExact)
    ->ArgsProduct({{64, 256, 1024}, {10}})
    ->ArgsProduct({{256}, {5, 10, 20, 40}});

void BM_IntersectionApprox(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  int k = static_cast<int>(state.range(1));
  Rng rng(41);
  RandomTreeOptions opts;
  opts.num_keys = n;
  opts.max_alternatives = 2;
  auto tree = RandomBid(opts, &rng);
  RankDistribution dist = ComputeRankDistribution(*tree, k);
  for (auto _ : state) {
    TopKResult approx = MeanTopKIntersectionApprox(dist);
    benchmark::DoNotOptimize(approx);
  }
}
BENCHMARK(BM_IntersectionApprox)
    ->ArgsProduct({{64, 256, 1024}, {10}})
    ->ArgsProduct({{256}, {5, 10, 20, 40}});

void PrintQualityTable() {
  std::printf("\n## E7: Upsilon_H approximation quality vs exact assignment"
              " (intersection metric)\n\n");
  std::printf("| n | k | E[d_I] exact | E[d_I] approx | distance ratio | "
              "profit ratio | H_k bound |\n");
  std::printf("|---|---|---|---|---|---|---|\n");
  for (int n : {32, 128, 512}) {
    for (int k : {5, 10}) {
      Rng rng(43);
      RandomTreeOptions opts;
      opts.num_keys = n;
      opts.max_alternatives = 2;
      auto tree = RandomBid(opts, &rng);
      RankDistribution dist = ComputeRankDistribution(*tree, k);
      auto exact = MeanTopKIntersectionExact(dist);
      TopKResult approx = MeanTopKIntersectionApprox(dist);
      auto profit = [&](const std::vector<KeyId>& answer) {
        double total = 0.0;
        for (size_t j = 0; j < answer.size(); ++j) {
          total += IntersectionPositionProfit(dist, answer[j],
                                              static_cast<int>(j) + 1);
        }
        return total;
      };
      double ratio_d = approx.expected_distance / exact->expected_distance;
      double ratio_a = profit(exact->keys) / profit(approx.keys);
      std::printf("| %d | %d | %.4f | %.4f | %.4f | %.4f | %.4f |\n", n, k,
                  exact->expected_distance, approx.expected_distance, ratio_d,
                  ratio_a, HarmonicNumber(k));
    }
  }
  std::printf("\n(The paper guarantees profit ratio <= H_k; measured ratios"
              " are expected to be near 1.)\n\n");
}

}  // namespace
}  // namespace cpdb

int main(int argc, char** argv) {
  cpdb::PrintQualityTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
