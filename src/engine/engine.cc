// Copyright 2026 The ConsensusDB Authors

#include "engine/engine.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "core/ranking_baselines.h"
#include "core/set_consensus.h"
#include "core/topk_footrule.h"
#include "core/topk_intersection.h"
#include "core/topk_kendall.h"
#include "core/topk_metrics.h"
#include "model/flat_tree.h"

namespace cpdb {

const char* TopKAnswerName(TopKAnswer answer) {
  switch (answer) {
    case TopKAnswer::kMean:
      return "mean";
    case TopKAnswer::kMedian:
      return "median";
    case TopKAnswer::kMeanUnrestricted:
      return "any-size";
    case TopKAnswer::kMeanApprox:
      return "approx";
  }
  return "?";
}

Result<TopKAnswer> ParseTopKAnswerName(const std::string& name) {
  for (TopKAnswer answer : {TopKAnswer::kMean, TopKAnswer::kMedian,
                            TopKAnswer::kMeanUnrestricted,
                            TopKAnswer::kMeanApprox}) {
    if (name == TopKAnswerName(answer)) return answer;
  }
  return Status::InvalidArgument(
      "unknown answer '" + name +
      "' (expected mean, median, any-size or approx)");
}

Engine::Engine(const EngineOptions& options)
    : owned_pool_(std::make_unique<ThreadPool>(options.num_threads)),
      pool_(owned_pool_.get()),
      width_(pool_->num_threads()) {}

Engine::Engine(ThreadPool* pool, int width)
    : pool_(pool), width_(std::clamp(width, 1, pool->num_threads())) {}

// The least work one pool unit must carry, in cells: a leaf times a rank
// of a scan, or one of a cost column's k² terms. Measured on a 4-vCPU VM
// (Release, GCC 12.2), chunk counts interleaved, medians of 7 rounds: an
// empty 4-way ParallelFor costs 7-12 µs wall and 12-16 µs CPU. A scan
// cell costs 0.2-0.3 µs, and every extra chunk repeats the base fold: at
// 176-3,040 cells (44-304 leaves, k 4-10) a 4-chunk scan ran 0.55-1.5x the
// one-chunk speed for 39-220% more CPU, at 3,500-30,000 cells (515-3,001
// leaves) 1.03-1.85x for 18-90% more. A cost-column cell costs 5-60 ns, so
// a unit of columns this size is 10-120 µs, at least the handoff. So a
// scan splits from 4,096 cells, where extra chunks start to pay.
const int64_t kMinCellsPerPoolUnit = 2048;

// A Kendall q column is a whole scan of L × min(k, L) cells that repeats
// no base fold, so a unit of columns need only outweigh the handoff. On
// the same VM (BM_EngineHeavyTails, 42-45 leaves, k 5, medians of 7-9,
// four rounds) a column costs 19-28 µs, 85-130 ns a cell, against
// the 7-12 µs handoff. At 256 cells a unit is one or more whole columns:
// the twelve columns of kendall_q ran at 4 threads in 128-135 µs against
// 243-340 µs at 1, and kendall_mean's five (1,100 cells, four units) in
// 104-116 µs against 110-139 µs; at 512 cells kendall_mean's two units
// read 128-150 µs against 109-160 µs.
const int64_t kMinQColumnCellsPerPoolUnit = 256;

int FanOutUnits(int64_t units, int64_t cells, int threads,
                int64_t min_cells_per_unit) {
  return static_cast<int>(std::max<int64_t>(
      1, std::min({static_cast<int64_t>(threads), units,
                   cells / min_cells_per_unit})));
}

void Engine::FanOut(int64_t n, int64_t cells, int64_t min_cells_per_unit,
                    const std::function<void(int64_t)>& body) const {
  // One unit needs no branch: ParallelFor runs it on the calling thread.
  const int64_t units =
      FanOutUnits(n, cells, num_threads(), min_cells_per_unit);
  ParallelFor(units, [&](int64_t u) {
    for (int64_t i = n * u / units; i < n * (u + 1) / units; ++i) body(i);
  });
}

RankDistribution Engine::ComputeRankDistribution(
    const AndXorTree& tree, int k, const FlatTree* program) const {
  // Compile the flat form once (or reuse the caller's shared program); the
  // immutable FlatTree and the scan's row graph are shared read-only by the
  // score-order chunks FanOutUnits plans from the scan's L × min(k, L)
  // cells. Each chunk folds in its own scratch, sized here on the calling
  // thread, so no pool thread keeps fold rows.
  rank_folds_.fetch_add(1, std::memory_order_relaxed);
  std::optional<FlatTree> owned;
  if (program == nullptr) owned.emplace(CompileCounted(tree));
  const FlatTree& flat = program != nullptr ? *program : *owned;
  const int64_t leaves = flat.num_leaves();
  RankDistributionScan scan(
      flat, k,
      FanOutUnits(leaves, leaves * std::clamp<int64_t>(k, 0, leaves),
                  num_threads()));
  ParallelFor(scan.num_chunks(), [&](int64_t c) {
    scan.RunChunk(static_cast<int>(c));
  });
  NoteArenaHighWater(scan.ChunkScratchBytes());
  // Every query root is bitwise its leaf's full fold, whichever chunk ran
  // it, and Build merges in leaf-table order: bitwise the sequential
  // ComputeRankDistribution for any thread count.
  return scan.Build(tree.Keys());
}

std::vector<std::vector<double>> Engine::PerKeyColumns(
    const RankDistribution& dist,
    const std::function<std::vector<double>(const RankDistribution&, KeyId)>&
        column) const {
  const std::vector<KeyId>& keys = dist.keys();
  const int64_t n = static_cast<int64_t>(keys.size());
  std::vector<std::vector<double>> columns(keys.size());
  FanOut(n, n * dist.k() * dist.k(), kMinCellsPerPoolUnit, [&](int64_t t) {
    columns[static_cast<size_t>(t)] =
        column(dist, keys[static_cast<size_t>(t)]);
  });
  return columns;
}

std::vector<double> Engine::LeafMarginals(const AndXorTree& tree,
                                          const FlatTree* program) const {
  // FlatTree::Compile carries the root-to-leaf XOR edge product down its
  // single O(N) walk, multiplying in the exact order tree.LeafMarginals()
  // does, so scattering the precomputed leaf-table marginals is bitwise
  // identical to the historical per-leaf pointer walks — and replaces L
  // O(depth) walks with one pass (or zero, with a supplied program).
  std::optional<FlatTree> owned;
  if (program == nullptr) owned.emplace(CompileCounted(tree));
  const FlatTree& flat = program != nullptr ? *program : *owned;
  std::vector<double> marginal(static_cast<size_t>(tree.NumNodes()), 0.0);
  for (const FlatLeaf& leaf : flat.leaves()) {
    marginal[static_cast<size_t>(leaf.node)] = leaf.marginal;
  }
  return marginal;
}

std::vector<double> Engine::ExpectedRanks(const AndXorTree& tree) const {
  return ::cpdb::ExpectedRanks(tree);
}

std::vector<std::vector<double>> Engine::KendallQColumns(
    const AndXorTree& tree, int k, const std::vector<KeyId>& targets,
    const FlatTree* program) const {
  // One compiled tree and one score order shared read-only by the column
  // tasks, each a full scan of L × ranks() cells in its thread's scratch,
  // writing only its own column, so the columns are schedule-deterministic.
  const std::vector<KeyId> keys = tree.Keys();
  std::optional<FlatTree> owned;
  if (program == nullptr) owned.emplace(CompileCounted(tree));
  const RankDistributionScan scan(program != nullptr ? *program : *owned, k,
                                  /*max_chunks=*/0);
  const int64_t n = static_cast<int64_t>(targets.size());
  std::vector<std::vector<double>> columns(targets.size());
  FanOut(n, n * scan.flat().num_leaves() * scan.ranks(),
         kMinQColumnCellsPerPoolUnit, [&](int64_t j) {
    const KeyId target = targets[static_cast<size_t>(j)];
    const size_t it = static_cast<size_t>(
        std::lower_bound(keys.begin(), keys.end(), target) - keys.begin());
    FlatRefold::Scratch& scratch = FlatRefoldScratch();
    columns[static_cast<size_t>(j)] = KendallQColumn(scan, keys, it, &scratch);
    NoteArenaHighWater(scratch.CapacityBytes());
  });
  return columns;
}

Result<TopKResult> Engine::MedianSymDiffSearch(
    const AndXorTree& tree, const RankDistribution& dist) const {
  return MedianTopKSymDiff(tree, dist);
}

namespace {

// Validates a (metric, answer) combination up front, so unsupported pairs
// fail before the O(L^2 k) rank-distribution precompute is paid.
Status ValidateTopKRequest(TopKMetric metric, TopKAnswer answer) {
  switch (metric) {
    case TopKMetric::kSymDiff:
      if (answer == TopKAnswer::kMeanApprox) {
        return Status::NotImplemented(
            "approx answers exist only for the intersection metric");
      }
      return Status::OK();
    case TopKMetric::kIntersection:
      if (answer != TopKAnswer::kMean && answer != TopKAnswer::kMeanApprox) {
        return Status::NotImplemented(
            "only mean/approx answers are implemented for intersection");
      }
      return Status::OK();
    case TopKMetric::kFootrule:
      if (answer != TopKAnswer::kMean) {
        return Status::NotImplemented(
            "only the mean answer is implemented for footrule");
      }
      return Status::OK();
    case TopKMetric::kKendall:
      if (answer != TopKAnswer::kMean) {
        return Status::NotImplemented(
            "only the mean (via-footrule) answer is implemented for kendall");
      }
      return Status::OK();
  }
  return Status::InvalidArgument("unknown metric");
}

}  // namespace

Status Engine::ValidateConsensusRequest(TopKMetric metric, TopKAnswer answer) {
  return ValidateTopKRequest(metric, answer);
}

Status Engine::ValidateConsensusRequest(int k, TopKMetric metric,
                                        TopKAnswer answer) {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  return ValidateTopKRequest(metric, answer);
}

Result<TopKResult> Engine::ConsensusTopK(const AndXorTree& tree, int k,
                                         TopKMetric metric, TopKAnswer answer,
                                         const FlatTree* program) const {
  Status valid = ValidateConsensusRequest(k, metric, answer);
  if (!valid.ok()) return valid;
  return ConsensusTopKWithDist(tree, ComputeRankDistribution(tree, k, program),
                               metric, answer, program);
}

Result<TopKResult> Engine::ConsensusTopKWithDist(
    const AndXorTree& tree, const RankDistribution& dist, TopKMetric metric,
    TopKAnswer answer, const FlatTree* program,
    const ConsensusTails& tails) const {
  const int k = dist.k();
  Status valid = ValidateConsensusRequest(k, metric, answer);
  if (!valid.ok()) return valid;
  // A distribution computed for a different tree would make the metric
  // heads optimize over one key set while the tree-folding tails (kendall
  // q columns, median scan) use another — a silently wrong answer. The
  // O(n) key compare is noise next to the O(L^2 k) fold being skipped; it
  // cannot catch a stale dist from different *content* over the same keys,
  // which is the caller's contract (see the header).
  if (dist.keys() != tree.Keys()) {
    return Status::InvalidArgument(
        "dist was computed for a different tree (key sets differ)");
  }
  switch (metric) {
    case TopKMetric::kSymDiff:
      switch (answer) {
        case TopKAnswer::kMean:
          return MeanTopKSymDiff(dist);
        case TopKAnswer::kMedian:
          if (tails.symdiff_median != nullptr) return *tails.symdiff_median;
          return MedianSymDiffSearch(tree, dist);
        case TopKAnswer::kMeanUnrestricted:
          return MeanTopKSymDiffUnrestricted(dist);
        case TopKAnswer::kMeanApprox:
          break;  // rejected by ValidateTopKRequest
      }
      break;
    case TopKMetric::kIntersection:
      switch (answer) {
        case TopKAnswer::kMean:
          // One profit column per candidate tuple through FanOut; the
          // Hungarian solve runs on the calling thread.
          return MeanTopKIntersectionExactFromColumns(
              dist, PerKeyColumns(dist, IntersectionProfitColumn));
        case TopKAnswer::kMeanApprox:
          // A single O(n k + n log n) sort: below parallelization grain.
          return MeanTopKIntersectionApprox(dist);
        case TopKAnswer::kMedian:
        case TopKAnswer::kMeanUnrestricted:
          break;  // rejected by ValidateTopKRequest
      }
      break;
    case TopKMetric::kFootrule:
      // One cost column per candidate tuple through FanOut; the Hungarian
      // solve runs on the calling thread.
      return MeanTopKFootruleFromColumns(
          dist, PerKeyColumns(dist, FootruleCostColumn));
    case TopKMetric::kKendall: {
      if (tails.kendall_mean != nullptr) return *tails.kendall_mean;
      // The footrule answer from its cost columns, re-scored under d_K
      // from the q columns of its own keys: every term of E[d_K] has its t
      // in the answer, so the other keys' columns are never read.
      CPDB_ASSIGN_OR_RETURN(
          TopKResult answer,
          MeanTopKFootruleFromColumns(dist,
                                      PerKeyColumns(dist, FootruleCostColumn)));
      const std::vector<std::vector<double>> columns =
          KendallQColumns(tree, k, answer.keys, program);
      std::vector<const std::vector<double>*> column_ptrs;
      for (const std::vector<double>& column : columns) {
        column_ptrs.push_back(&column);
      }
      answer.expected_distance =
          KendallExpectedFromColumns(dist.keys(), answer.keys, column_ptrs);
      return answer;
    }
  }
  return Status::InvalidArgument("unknown metric or answer kind");
}

Result<Engine::WorldResult> Engine::ConsensusWorldWithMarginals(
    const AndXorTree& tree, const std::vector<double>& marginals,
    bool median) const {
  // A marginal vector folded from another tree would silently pick a world
  // by the wrong probabilities; the size compare catches shape mismatches
  // for free (content identity stays the caller's contract, see header).
  if (marginals.size() != static_cast<size_t>(tree.NumNodes())) {
    return Status::InvalidArgument(
        "marginals were computed for a different tree (node counts differ)");
  }
  WorldResult result;
  result.leaf_ids = median ? MedianWorldSymDiffFromMarginals(tree, marginals)
                           : MeanWorldSymDiffFromMarginals(tree, marginals);
  result.expected_distance =
      ExpectedSymDiffDistanceFromMarginals(tree, marginals, result.leaf_ids);
  return result;
}

FlatTree Engine::CompileCounted(const AndXorTree& tree) const {
  fold_compiles_.fetch_add(1, std::memory_order_relaxed);
  return FlatTree::Compile(tree);
}

void Engine::NoteArenaHighWater(size_t bytes) const {
  // The CAS-max publishes a fleet-wide peak across all pool threads.
  const int64_t value = static_cast<int64_t>(bytes);
  int64_t seen = arena_highwater_bytes_.load(std::memory_order_relaxed);
  while (value > seen && !arena_highwater_bytes_.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
}

}  // namespace cpdb
