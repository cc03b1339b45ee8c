// Copyright 2026 The ConsensusDB Authors

#include "core/topk_kendall.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>

#include "core/topk_footrule.h"

namespace cpdb {

std::vector<double> KendallQColumn(const RankDistributionScan& scan,
                                   const std::vector<KeyId>& keys, size_t it,
                                   FlatRefold::Scratch* scratch) {
  // q(u, t) sums over alternatives b of u of
  //   Pr(b present, no higher-scoring alternative of t present, and at most
  //      k-1 higher-scoring tuples of other keys present),
  // the first k cells of b's query in the scan that zeroes t's leaves.
  const std::vector<FlatLeaf>& leaves = scan.flat().leaves();
  const size_t ranks = static_cast<size_t>(scan.ranks());
  std::vector<double> cells(leaves.size() * ranks);
  scan.Scan(0, leaves.size(), keys[it], cells.data(), scratch);
  std::vector<double> q(keys.size(), 0.0);
  for (size_t l = 0; l < leaves.size(); ++l) {
    const KeyId key = leaves[l].key;
    const auto u = std::lower_bound(keys.begin(), keys.end(), key);
    if (u == keys.end() || *u != key || key == keys[it]) continue;
    // Cells past `ranks` are exact zeros, which would add nothing.
    double& cell = q[static_cast<size_t>(u - keys.begin())];
    for (size_t i = 0; i < ranks; ++i) cell += cells[l * ranks + i];
  }
  return q;
}

double KendallExpectedFromColumns(
    const std::vector<KeyId>& keys, const std::vector<KeyId>& answer,
    const std::vector<const std::vector<double>*>& columns) {
  // keys position of each answer key, -1 outside keys: its terms are zero,
  // and skipping them leaves the non-negative sum's bits as adding them.
  std::vector<int> row(answer.size(), -1);
  std::vector<bool> in_answer(keys.size(), false);
  for (size_t a = 0; a < answer.size(); ++a) {
    const auto it = std::lower_bound(keys.begin(), keys.end(), answer[a]);
    if (it == keys.end() || *it != answer[a]) continue;
    row[a] = static_cast<int>(it - keys.begin());
    in_answer[static_cast<size_t>(row[a])] = true;
  }
  double expected = 0.0;
  // Pairs ranked by the answer: t before u contributes q(u, t).
  for (size_t a = 0; a < answer.size(); ++a) {
    if (columns[a] == nullptr) continue;
    for (size_t b = a + 1; b < answer.size(); ++b) {
      if (row[b] >= 0) expected += (*columns[a])[static_cast<size_t>(row[b])];
    }
  }
  // Pairs with t in the answer, u outside it: the answer's extensions place
  // t first, so disagreement happens when u enters the Top-k ahead of t.
  for (size_t a = 0; a < answer.size(); ++a) {
    if (columns[a] == nullptr) continue;
    for (size_t iu = 0; iu < keys.size(); ++iu) {
      if (!in_answer[iu]) expected += (*columns[a])[iu];
    }
  }
  return expected;
}

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

Result<TopKResult> MeanTopKKendallPivot(
    const KendallEvaluator& evaluator,
    const std::vector<std::vector<double>>& order_probs, Rng* rng) {
  const std::vector<KeyId>& keys = evaluator.keys();
  if (order_probs.size() != keys.size()) {
    return Status::InvalidArgument(
        "order_probs must be indexed like evaluator.keys()");
  }
  // KwikSort: randomized pivot partitioning on the majority tournament.
  std::vector<int> order(keys.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::function<void(std::vector<int>&)> sort_rec = [&](std::vector<int>& ids) {
    if (ids.size() <= 1) return;
    size_t pivot_pos =
        static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(ids.size()) - 1));
    int pivot = ids[pivot_pos];
    std::vector<int> left, right;
    for (int id : ids) {
      if (id == pivot) continue;
      // "id beats pivot" when it ranks before the pivot with majority
      // probability.
      if (order_probs[static_cast<size_t>(id)][static_cast<size_t>(pivot)] >=
          order_probs[static_cast<size_t>(pivot)][static_cast<size_t>(id)]) {
        left.push_back(id);
      } else {
        right.push_back(id);
      }
    }
    sort_rec(left);
    sort_rec(right);
    ids.clear();
    ids.insert(ids.end(), left.begin(), left.end());
    ids.push_back(pivot);
    ids.insert(ids.end(), right.begin(), right.end());
  };
  sort_rec(order);

  TopKResult result;
  size_t take = std::min<size_t>(order.size(), static_cast<size_t>(evaluator.k()));
  for (size_t i = 0; i < take; ++i) {
    result.keys.push_back(keys[static_cast<size_t>(order[i])]);
  }
  result.expected_distance = evaluator.Expected(result.keys);
  return result;
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

Result<TopKResult> MeanTopKKendallExact(const KendallEvaluator& evaluator,
                                        const RankDistribution& dist,
                                        int max_candidates) {
  std::vector<KeyId> candidates;
  for (KeyId key : evaluator.keys()) {
    if (dist.PrTopK(key) > 0.0) candidates.push_back(key);
  }
  if (static_cast<int>(candidates.size()) > max_candidates) {
    return Status::ResourceExhausted(
        "too many candidates for exhaustive Kendall search");
  }
  const int k = std::min<int>(evaluator.k(), static_cast<int>(candidates.size()));

  TopKResult best;
  best.expected_distance = std::numeric_limits<double>::infinity();
  std::vector<KeyId> current;
  std::vector<bool> used(candidates.size(), false);
  std::function<void()> recurse = [&]() {
    if (static_cast<int>(current.size()) == k) {
      double e = evaluator.Expected(current);
      if (e < best.expected_distance) {
        best.expected_distance = e;
        best.keys = current;
      }
      return;
    }
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (used[i]) continue;
      used[i] = true;
      current.push_back(candidates[i]);
      recurse();
      current.pop_back();
      used[i] = false;
    }
  };
  recurse();
  return best;
}

}  // namespace cpdb
