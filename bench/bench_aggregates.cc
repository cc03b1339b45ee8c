// Copyright 2026 The ConsensusDB Authors
//
// Experiment E10: group-by COUNT consensus (Section 6.1). Times the
// min-cost-flow closest-possible-vector construction (Lemma 3 / Theorem 5)
// across n and m, and measures the realized approximation ratio of
// Corollary 2 against the exact median on small instances — the bound is 4,
// the measured ratio should hug 1.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>

#include "common/rng.h"
#include "core/aggregates.h"
#include "oracle/references.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

void BM_MeanAggregate(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(67);
  GroupByInstance instance{RandomGroupByMatrix(n, 32, 0.8, 0.2, &rng)};
  for (auto _ : state) {
    auto mean = MeanAggregate(instance);
    benchmark::DoNotOptimize(mean);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_MeanAggregate)->RangeMultiplier(4)->Range(256, 16384)->Complexity();

void BM_ClosestPossibleFlow(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  int m = static_cast<int>(state.range(1));
  Rng rng(71);
  GroupByInstance instance{RandomGroupByMatrix(n, m, 0.8, 0.2, &rng)};
  for (auto _ : state) {
    // The flow object is single-shot; rebuild inside the loop (the build is
    // part of the algorithm's cost anyway).
    auto answer = ClosestPossibleAggregate(instance);
    benchmark::DoNotOptimize(answer);
  }
}
BENCHMARK(BM_ClosestPossibleFlow)
    ->ArgsProduct({{64, 256, 1024}, {16}})
    ->ArgsProduct({{256}, {4, 16, 64}});

void PrintQualityTable() {
  std::printf("\n## E10: aggregate median approximation ratio"
              " (Corollary 2 bound: 4)\n\n");
  std::printf("| seed | n | m | E[d] flow answer | E[d] exact median | "
              "ratio |\n");
  std::printf("|---|---|---|---|---|---|\n");
  double worst = 0.0;
  for (int seed = 0; seed < 10; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 13 + 73);
    int n = 5 + seed % 3;
    int m = 3;
    GroupByInstance instance{RandomGroupByMatrix(n, m, 0.7, 0.25, &rng)};
    auto flow = ClosestPossibleAggregate(instance);
    auto exact = ExactMedianAggregate(instance);
    if (!flow.ok() || !exact.ok()) continue;
    std::vector<double> flow_d(flow->begin(), flow->end());
    std::vector<double> exact_d(exact->begin(), exact->end());
    double e_flow = ExpectedSquaredDistance(instance, flow_d);
    double e_exact = ExpectedSquaredDistance(instance, exact_d);
    double ratio = e_exact > 1e-12 ? e_flow / e_exact : 1.0;
    worst = std::max(worst, ratio);
    std::printf("| %d | %d | %d | %.4f | %.4f | %.4f |\n", seed, n, m, e_flow,
                e_exact, ratio);
  }
  std::printf("\nWorst measured ratio %.4f (proved bound 4.0).\n\n", worst);

  std::printf("## E10b: how far the median sits from the mean\n\n");
  std::printf("| n | m | ||r* - r_bar||^2 | E[d] mean (lower bound) | E[d] "
              "r* |\n");
  std::printf("|---|---|---|---|---|\n");
  for (int n : {64, 256, 1024}) {
    Rng rng(79);
    int m = 16;
    GroupByInstance instance{RandomGroupByMatrix(n, m, 0.8, 0.2, &rng)};
    auto flow = ClosestPossibleAggregate(instance);
    std::vector<double> mean = MeanAggregate(instance);
    std::vector<double> flow_d(flow->begin(), flow->end());
    double gap = 0.0;
    for (size_t j = 0; j < mean.size(); ++j) {
      double diff = flow_d[j] - mean[j];
      gap += diff * diff;
    }
    std::printf("| %d | %d | %.4f | %.4f | %.4f |\n", n, m, gap,
                ExpectedSquaredDistance(instance, mean),
                ExpectedSquaredDistance(instance, flow_d));
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
