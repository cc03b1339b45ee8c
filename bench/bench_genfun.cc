// Copyright 2026 The ConsensusDB Authors
//
// Experiment E1: the generating-function method (Theorem 1) is polynomial.
// Times the world-size PGF on tuple-independent tables, BID tables and deep
// and/xor trees across n, with truncated and full coefficient ranges, and
// checks the retained mass (sanity: the PGF of a probability distribution
// sums to 1 when untruncated).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "model/flat_tree.h"
#include "oracle/generating_function.h"
#include "oracle/poly1.h"
#include "oracle/table_generators.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

Poly1 SizeGf(const AndXorTree& tree, int max_degree) {
  auto leaf_poly = [&](NodeId) { return Poly1::Monomial(max_degree, 1, 1.0); };
  auto make_const = [&](double c) { return Poly1::Constant(max_degree, c); };
  return EvalGeneratingFunction<Poly1>(tree, leaf_poly, make_const);
}

// The flat-path equivalent of SizeGf: every leaf tagged x, dy = 0. The
// FlatTree is compiled once outside the timed loop (matching how the
// library amortizes compilation across folds) and the scratch is reused so
// the steady state allocates nothing. Returns the root row.
const double* SizeGfFlat(const FlatTree& flat, int max_degree,
                         FlatRefold::Scratch* scratch) {
  return FlatRefold::FoldOnce(flat, max_degree, 0, [](int) { return 1; },
                              scratch);
}

void BM_SizeGfTupleIndependentFull(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(42);
  auto tree = RandomTupleIndependent(n, &rng);
  for (auto _ : state) {
    Poly1 f = SizeGf(*tree, n);
    benchmark::DoNotOptimize(f);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_SizeGfTupleIndependentFull)
    ->RangeMultiplier(2)
    ->Range(64, 4096)
    ->Complexity(benchmark::oNSquared);

void BM_SizeGfTupleIndependentTruncated(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  const int k = 32;  // output-sensitive truncation
  Rng rng(42);
  auto tree = RandomTupleIndependent(n, &rng);
  for (auto _ : state) {
    Poly1 f = SizeGf(*tree, k);
    benchmark::DoNotOptimize(f);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_SizeGfTupleIndependentTruncated)
    ->RangeMultiplier(2)
    ->Range(64, 4096)
    ->Complexity(benchmark::oN);

void BM_SizeGfBid(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(7);
  RandomTreeOptions opts;
  opts.num_keys = n;
  opts.max_alternatives = 3;
  auto tree = RandomBid(opts, &rng);
  for (auto _ : state) {
    Poly1 f = SizeGf(*tree, 32);
    benchmark::DoNotOptimize(f);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_SizeGfBid)->RangeMultiplier(2)->Range(64, 2048)->Complexity();

// Flat-vs-pointer ablation (tentpole measurement): the same truncated size
// PGF through the compiled FlatTree + slot rows + vectorized kernels. Compare
// against BM_SizeGfTupleIndependentTruncated / BM_SizeGfBid at equal n.
void BM_SizeGfFlatTupleIndependentTruncated(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  const int k = 32;
  Rng rng(42);
  auto tree = RandomTupleIndependent(n, &rng);
  const FlatTree flat = FlatTree::Compile(*tree);
  FlatRefold::Scratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SizeGfFlat(flat, k, &scratch));
    benchmark::ClobberMemory();
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_SizeGfFlatTupleIndependentTruncated)
    ->RangeMultiplier(2)
    ->Range(64, 4096)
    ->Complexity(benchmark::oN);

void BM_SizeGfFlatBid(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(7);
  RandomTreeOptions opts;
  opts.num_keys = n;
  opts.max_alternatives = 3;
  auto tree = RandomBid(opts, &rng);
  const FlatTree flat = FlatTree::Compile(*tree);
  FlatRefold::Scratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SizeGfFlat(flat, 32, &scratch));
    benchmark::ClobberMemory();
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_SizeGfFlatBid)->RangeMultiplier(2)->Range(64, 2048)->Complexity();

// Compile cost in isolation, so the amortized numbers above can be read
// honestly: one Compile is one O(N) pass plus slot bookkeeping.
void BM_FlatTreeCompile(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(7);
  RandomTreeOptions opts;
  opts.num_keys = n;
  opts.max_alternatives = 3;
  auto tree = RandomBid(opts, &rng);
  for (auto _ : state) {
    FlatTree flat = FlatTree::Compile(*tree);
    benchmark::DoNotOptimize(flat);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_FlatTreeCompile)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Complexity(benchmark::oN);

void BM_SizeGfDeepAndXor(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(9);
  RandomTreeOptions opts;
  opts.num_keys = n;
  opts.max_depth = 5;
  opts.max_alternatives = 2;
  auto tree = RandomAndXorTree(opts, &rng);
  state.counters["leaves"] = tree->NumLeaves();
  for (auto _ : state) {
    Poly1 f = SizeGf(*tree, 32);
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_SizeGfDeepAndXor)->RangeMultiplier(2)->Range(16, 256);

void BM_SizeGfFlatDeepAndXor(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(9);
  RandomTreeOptions opts;
  opts.num_keys = n;
  opts.max_depth = 5;
  opts.max_alternatives = 2;
  auto tree = RandomAndXorTree(opts, &rng);
  state.counters["leaves"] = tree->NumLeaves();
  const FlatTree flat = FlatTree::Compile(*tree);
  FlatRefold::Scratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SizeGfFlat(flat, 32, &scratch));
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SizeGfFlatDeepAndXor)->RangeMultiplier(2)->Range(16, 256);

void PrintMassSanityTable() {
  std::printf("\n## E1: generating-function mass sanity"
              " (untruncated PGF must sum to 1)\n\n");
  std::printf("| model | n | leaves | sum of coefficients |\n");
  std::printf("|---|---|---|---|\n");
  for (int n : {64, 256, 1024}) {
    Rng rng(42);
    auto tree = RandomTupleIndependent(n, &rng);
    Poly1 f = SizeGf(*tree, n);
    std::printf("| tuple-independent | %d | %d | %.12f |\n", n,
                tree->NumLeaves(), f.SumCoeffs());
  }
  for (int n : {32, 128}) {
    Rng rng(9);
    RandomTreeOptions opts;
    opts.num_keys = n;
    opts.max_depth = 5;
    opts.max_alternatives = 2;
    auto tree = RandomAndXorTree(opts, &rng);
    Poly1 f = SizeGf(*tree, tree->NumLeaves());
    std::printf("| deep and/xor | %d | %d | %.12f |\n", n, tree->NumLeaves(),
                f.SumCoeffs());
  }
  std::printf("\n");
}

}  // namespace
}  // namespace cpdb

int main(int argc, char** argv) {
  cpdb::PrintMassSanityTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
