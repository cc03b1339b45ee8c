// Copyright 2026 The ConsensusDB Authors
//
// Experiment E12: the paper's motivating claim — the consensus framework is
// a yardstick for comparing Top-k semantics. Every baseline semantics
// (expected score, expected rank, U-Top-k, PT-k/Global Top-k, Upsilon_H)
// is scored under the three consensus objectives E[d_Delta], E[d_I],
// E[d_F^(k+1)]. Expected shape: each consensus answer wins its own metric
// (by construction, Theorem 3 / Section 5.3 / Section 5.4), Global Top-k
// ties the d_Delta mean (they are the same answer), and score/rank-based
// semantics trail.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/ranking_baselines.h"
#include "core/topk_footrule.h"
#include "core/topk_intersection.h"
#include "core/topk_symdiff.h"
#include "oracle/table_generators.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

struct Contender {
  std::string name;
  std::vector<KeyId> answer;
};

void RunComparison(const char* title, const AndXorTree& tree, int k,
                   Rng* rng) {
  RankDistribution dist = ComputeRankDistribution(tree, k);

  std::vector<Contender> contenders;
  contenders.push_back({"mean d_Delta (= Global Top-k / PT-k)",
                        MeanTopKSymDiff(dist).keys});
  contenders.push_back({"mean d_Delta (any size)",
                        MeanTopKSymDiffUnrestricted(dist).keys});
  auto median = MedianTopKSymDiff(tree, dist);
  if (median.ok()) contenders.push_back({"median d_Delta", median->keys});
  auto inter = MeanTopKIntersectionExact(dist);
  if (inter.ok()) contenders.push_back({"mean d_I (assignment)", inter->keys});
  contenders.push_back({"Upsilon_H (PRF)", MeanTopKIntersectionApprox(dist).keys});
  auto foot = MeanTopKFootrule(dist);
  if (foot.ok()) contenders.push_back({"mean d_F (assignment)", foot->keys});
  contenders.push_back({"expected score", TopKByExpectedScore(tree, k)});
  contenders.push_back({"expected rank", TopKByExpectedRank(tree, k)});
  contenders.push_back({"U-Top-k (sampled)", UTopKSampled(tree, k, 4000, rng)});

  std::printf("\n### %s (k = %d, %d tuples)\n\n", title, k,
              static_cast<int>(dist.keys().size()));
  std::printf("| semantics | E[d_Delta] | E[d_I] | E[d_F] |\n");
  std::printf("|---|---|---|---|\n");
  double best_delta = 1e100, best_i = 1e100, best_f = 1e100;
  for (const Contender& c : contenders) {
    best_delta = std::min(best_delta, ExpectedTopKSymDiff(dist, c.answer));
    best_i = std::min(best_i, ExpectedTopKIntersection(dist, c.answer));
    best_f = std::min(best_f, ExpectedTopKFootrule(dist, c.answer));
  }
  for (const Contender& c : contenders) {
    double d = ExpectedTopKSymDiff(dist, c.answer);
    double i = ExpectedTopKIntersection(dist, c.answer);
    double f = ExpectedTopKFootrule(dist, c.answer);
    std::printf("| %s | %.4f%s | %.4f%s | %.3f%s |\n", c.name.c_str(), d,
                d <= best_delta + 1e-9 ? " *" : "", i,
                i <= best_i + 1e-9 ? " *" : "", f,
                f <= best_f + 1e-9 ? " *" : "");
  }
}

void PrintComparisons() {
  std::printf("## E12: Top-k semantics scored under the consensus "
              "objectives (* = best per column)\n");
  {
    Rng rng(113);
    RandomTreeOptions opts;
    opts.num_keys = 40;
    opts.max_alternatives = 3;
    auto tree = RandomBid(opts, &rng);
    RunComparison("BID workload", *tree, 10, &rng);
  }
  {
    Rng rng(127);
    auto tree = RandomTupleIndependent(40, &rng);
    RunComparison("tuple-independent workload", *tree, 10, &rng);
  }
  {
    Rng rng(131);
    RandomTreeOptions opts;
    opts.num_keys = 16;
    opts.max_depth = 4;
    opts.max_alternatives = 2;
    auto tree = RandomAndXorTree(opts, &rng);
    RunComparison("correlated and/xor workload", *tree, 5, &rng);
  }
  std::printf("\n");
}

void BM_FullConsensusSuite(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(113);
  RandomTreeOptions opts;
  opts.num_keys = n;
  opts.max_alternatives = 2;
  auto tree = RandomBid(opts, &rng);
  for (auto _ : state) {
    RankDistribution dist = ComputeRankDistribution(*tree, 10);
    auto a = MeanTopKSymDiff(dist);
    auto b = MeanTopKIntersectionExact(dist);
    auto c = MeanTopKFootrule(dist);
    benchmark::DoNotOptimize(a);
    benchmark::DoNotOptimize(b);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_FullConsensusSuite)->RangeMultiplier(2)->Range(32, 512);

}  // namespace
}  // namespace cpdb

int main(int argc, char** argv) {
  cpdb::PrintComparisons();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
