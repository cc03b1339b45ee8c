// Copyright 2026 The ConsensusDB Authors
//
// Quickstart: build a small probabilistic table, ask for consensus answers.
//
//   $ ./quickstart
//
// Walks through the core API: building a BID table, validating it,
// enumerating its possible worlds, and computing the mean/median worlds and
// the consensus Top-k answers under three metrics.

#include <cstdio>

#include "core/jaccard.h"
#include "core/set_consensus.h"
#include "core/topk_footrule.h"
#include "core/topk_intersection.h"
#include "core/topk_symdiff.h"
#include "engine/engine.h"
#include "model/builders.h"
#include "model/possible_worlds.h"

using namespace cpdb;

int main() {
  // A tiny "sensor readings" table: each key is a sensor, alternatives are
  // mutually exclusive candidate readings with confidences (a BID table).
  //   sensor 1: 8.0 with 0.6, 5.5 with 0.3   (0.1: sensor offline)
  //   sensor 2: 9.5 with 0.7                 (0.3: offline)
  //   sensor 3: 7.0 with 0.5, 6.0 with 0.5   (never offline)
  std::vector<Block> blocks = {
      {{{1, 8.0, -1}, 0.6}, {{1, 5.5, -1}, 0.3}},
      {{{2, 9.5, -1}, 0.7}},
      {{{3, 7.0, -1}, 0.5}, {{3, 6.0, -1}, 0.5}},
  };
  auto tree_or = MakeBlockIndependent(blocks);
  if (!tree_or.ok()) {
    std::fprintf(stderr, "failed to build table: %s\n",
                 tree_or.status().ToString().c_str());
    return 1;
  }
  const AndXorTree& tree = *tree_or;

  std::printf("== The probabilistic database (and/xor tree) ==\n%s\n",
              tree.ToString().c_str());

  auto worlds = EnumerateWorlds(tree);
  std::printf("It has %zu possible worlds; the three most likely:\n",
              worlds->size());
  std::sort(worlds->begin(), worlds->end(),
            [](const World& a, const World& b) { return a.prob > b.prob; });
  for (size_t i = 0; i < 3 && i < worlds->size(); ++i) {
    std::printf("  world %zu (prob %.3f):", i + 1, (*worlds)[i].prob);
    for (const TupleAlternative& t : WorldTuples(tree, (*worlds)[i].leaf_ids)) {
      std::printf(" (sensor %d -> %.1f)", t.key, t.score);
    }
    std::printf("\n");
  }

  // --- Consensus worlds (Section 4 of the paper).
  std::vector<NodeId> mean_world = MeanWorldSymDiff(tree);
  std::vector<NodeId> median_world = MedianWorldSymDiff(tree);
  std::printf("\n== Consensus worlds under symmetric difference ==\n");
  std::printf("mean world  (E[d] = %.3f):",
              ExpectedSymDiffDistance(tree, mean_world));
  for (NodeId l : mean_world) {
    std::printf(" (sensor %d -> %.1f)", tree.node(l).leaf.key,
                tree.node(l).leaf.score);
  }
  std::printf("\nmedian world (E[d] = %.3f):",
              ExpectedSymDiffDistance(tree, median_world));
  for (NodeId l : median_world) {
    std::printf(" (sensor %d -> %.1f)", tree.node(l).leaf.key,
                tree.node(l).leaf.score);
  }
  std::printf("\n");

  // --- Consensus Top-2 answers (Section 5).
  const int k = 2;
  RankDistribution dist = ComputeRankDistribution(tree, k);
  std::printf("\n== Rank distribution (k = %d) ==\n", k);
  for (KeyId key : dist.keys()) {
    std::printf("sensor %d: Pr(rank 1) = %.3f, Pr(rank 2) = %.3f, "
                "Pr(in top-2) = %.3f\n",
                key, dist.PrRankEq(key, 1), dist.PrRankEq(key, 2),
                dist.PrTopK(key));
  }

  TopKResult mean_topk = MeanTopKSymDiff(dist);
  std::printf("\nmean Top-2 under d_Delta: [");
  for (KeyId key : mean_topk.keys) std::printf(" %d", key);
  std::printf(" ]  E[d_Delta] = %.3f\n", mean_topk.expected_distance);

  auto median_topk = MedianTopKSymDiff(tree, dist);
  std::printf("median Top-2 under d_Delta: [");
  for (KeyId key : median_topk->keys) std::printf(" %d", key);
  std::printf(" ]  E[d_Delta] = %.3f\n", median_topk->expected_distance);

  auto intersection = MeanTopKIntersectionExact(dist);
  std::printf("mean Top-2 under d_I: [");
  for (KeyId key : intersection->keys) std::printf(" %d", key);
  std::printf(" ]  E[d_I] = %.3f\n", intersection->expected_distance);

  auto footrule = MeanTopKFootrule(dist);
  std::printf("mean Top-2 under d_F: [");
  for (KeyId key : footrule->keys) std::printf(" %d", key);
  std::printf(" ]  E[d_F] = %.3f\n", footrule->expected_distance);

  // --- The same queries through the parallel engine. The engine is the
  // production entry point: it routes rank-distribution and consensus
  // queries through a shared thread pool, and its answers are bitwise
  // identical for any thread count (so parallelism is purely a speed knob).
  EngineOptions engine_opts;
  engine_opts.num_threads = 4;
  Engine engine(engine_opts);
  auto engine_topk = engine.ConsensusTopK(tree, k, TopKMetric::kSymDiff);
  std::printf("\n== Same query via cpdb::Engine (%d threads) ==\n",
              engine.num_threads());
  std::printf("mean Top-2 under d_Delta: [");
  for (KeyId key : engine_topk->keys) std::printf(" %d", key);
  std::printf(" ]  E[d_Delta] = %.3f\n", engine_topk->expected_distance);

  return 0;
}
