// Copyright 2026 The ConsensusDB Authors

#include "oracle/kendall_oracles.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "core/topk_footrule.h"
#include "core/topk_kendall.h"
#include "model/flat_tree.h"

namespace cpdb {

KendallEvaluator::KendallEvaluator(const AndXorTree& tree, int k)
    : k_(k), keys_(tree.Keys()) {
  // One compile and one score order shared by every column (the engine
  // fans the same columns across its pool; this is the sequential form).
  const FlatTree flat = FlatTree::Compile(tree);
  const RankDistributionScan scan(flat, k_, /*max_chunks=*/0);
  FlatRefold::Scratch scratch;
  for (size_t it = 0; it < keys_.size(); ++it) {
    columns_.push_back(KendallQColumn(scan, keys_, it, &scratch));
  }
}

int KendallEvaluator::IndexOf(KeyId key) const {
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (it == keys_.end() || *it != key) return -1;
  return static_cast<int>(it - keys_.begin());
}

double KendallEvaluator::Q(KeyId u, KeyId t) const {
  int iu = IndexOf(u);
  int it = IndexOf(t);
  if (iu < 0 || it < 0) return 0.0;
  return columns_[static_cast<size_t>(it)][static_cast<size_t>(iu)];
}

double KendallEvaluator::Expected(const std::vector<KeyId>& answer) const {
  std::vector<const std::vector<double>*> columns;
  for (KeyId t : answer) {
    const int it = IndexOf(t);
    columns.push_back(it < 0 ? nullptr : &columns_[static_cast<size_t>(it)]);
  }
  return KendallExpectedFromColumns(keys_, answer, columns);
}

Result<TopKResult> MeanTopKKendallViaFootrule(const KendallEvaluator& evaluator,
                                              const RankDistribution& dist) {
  CPDB_ASSIGN_OR_RETURN(TopKResult answer, MeanTopKFootrule(dist));
  answer.expected_distance = evaluator.Expected(answer.keys);
  return answer;
}

Result<TopKResult> MeanTopKKendallExactDp(const KendallEvaluator& evaluator,
                                          const RankDistribution& dist,
                                          int max_candidates) {
  std::vector<KeyId> candidates;
  for (KeyId key : evaluator.keys()) {
    if (dist.PrTopK(key) > 0.0) candidates.push_back(key);
  }
  const int c = static_cast<int>(candidates.size());
  if (c > max_candidates || c > 24) {
    return Status::ResourceExhausted(
        "too many candidates for the Kendall subset DP");
  }
  const int k = std::min<int>(evaluator.k(), c);
  const uint32_t full = 1u << c;

  // q_[i][j] between candidate indices.
  std::vector<std::vector<double>> q(static_cast<size_t>(c),
                                     std::vector<double>(static_cast<size_t>(c), 0.0));
  for (int i = 0; i < c; ++i) {
    for (int j = 0; j < c; ++j) {
      if (i != j) {
        q[static_cast<size_t>(i)][static_cast<size_t>(j)] =
            evaluator.Q(candidates[static_cast<size_t>(i)],
                        candidates[static_cast<size_t>(j)]);
      }
    }
  }
  // Keys outside the candidate set have Pr(r <= k) = 0, so q(u, t) = 0 for
  // them and the boundary term only ranges over candidates.

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> f(full, kInf);
  std::vector<int8_t> last(full, -1);
  f[0] = 0.0;
  for (uint32_t mask = 1; mask < full; ++mask) {
    if (static_cast<int>(__builtin_popcount(mask)) > k) continue;
    for (int t = 0; t < c; ++t) {
      if (!(mask & (1u << t))) continue;
      uint32_t prev = mask ^ (1u << t);
      if (f[prev] == kInf) continue;
      // t is placed last among `mask`: every p in prev precedes it.
      double cost = f[prev];
      for (int p = 0; p < c; ++p) {
        if (prev & (1u << p)) {
          cost += q[static_cast<size_t>(t)][static_cast<size_t>(p)];
        }
      }
      if (cost < f[mask]) {
        f[mask] = cost;
        last[mask] = static_cast<int8_t>(t);
      }
    }
  }

  double best = kInf;
  uint32_t best_mask = 0;
  for (uint32_t mask = 0; mask < full; ++mask) {
    if (static_cast<int>(__builtin_popcount(mask)) != k || f[mask] == kInf) {
      continue;
    }
    // Boundary: candidates outside the answer entering the Top-k ahead of
    // answer members.
    double boundary = 0.0;
    for (int t = 0; t < c; ++t) {
      if (!(mask & (1u << t))) continue;
      for (int u = 0; u < c; ++u) {
        if (u != t && !(mask & (1u << u))) {
          boundary += q[static_cast<size_t>(u)][static_cast<size_t>(t)];
        }
      }
    }
    if (f[mask] + boundary < best) {
      best = f[mask] + boundary;
      best_mask = mask;
    }
  }
  if (best == kInf) return Status::Infeasible("no feasible answer");

  TopKResult result;
  result.keys.resize(static_cast<size_t>(k));
  uint32_t mask = best_mask;
  for (int pos = k - 1; pos >= 0; --pos) {
    int t = last[mask];
    result.keys[static_cast<size_t>(pos)] = candidates[static_cast<size_t>(t)];
    mask ^= 1u << t;
  }
  result.expected_distance = evaluator.Expected(result.keys);
  return result;
}

}  // namespace cpdb
