// Copyright 2026 The ConsensusDB Authors

#include "core/rank_distribution.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <numeric>
#include <utility>

namespace cpdb {

double RankDistribution::PrRankEq(KeyId key, int i) const {
  if (i < 1 || i > k_) return 0.0;
  auto it = key_index_.find(key);
  if (it == key_index_.end()) return 0.0;
  return pr_eq_[static_cast<size_t>(it->second)][static_cast<size_t>(i)];
}

double RankDistribution::PrRankLe(KeyId key, int i) const {
  if (i < 1) return 0.0;
  auto it = key_index_.find(key);
  if (it == key_index_.end()) return 0.0;
  int clamped = std::min(i, k_);
  return pr_le_[static_cast<size_t>(it->second)][static_cast<size_t>(clamped)];
}

int64_t RankDistribution::ApproxBytes() const {
  // Per-key: one KeyId, one rb-tree node (pair + ~3 pointers + color,
  // estimated flat), and two rows of k+1 doubles with their vector headers.
  // On top of that, the fixed-size members' out-of-line storage: the keys_
  // element array is heap-allocated beyond the sizeof(RankDistribution)
  // header, and pr_eq_/pr_le_ each heap-allocate an outer array of n inner
  // vector headers — omitting those undercharged every cache entry by
  // ~56 bytes per key, which a byte-budgeted LRU multiplies across its
  // whole admission history.
  constexpr int64_t kMapNodeBytes = 64;
  constexpr int64_t kVecHeader =
      static_cast<int64_t>(sizeof(std::vector<double>));
  const int64_t per_row =
      kVecHeader +
      static_cast<int64_t>(k_ + 1) * static_cast<int64_t>(sizeof(double));
  const int64_t n = static_cast<int64_t>(keys_.size());
  return static_cast<int64_t>(sizeof(RankDistribution)) +
         n * static_cast<int64_t>(sizeof(KeyId)) +  // keys_ element array
         2 * n * kVecHeader +  // pr_eq_/pr_le_ outer arrays of inner headers
         n * kMapNodeBytes + 2 * n * per_row;
}

RankDistribution RankDistribution::Prefix(int k) const {
  // Rebuilding from the first k ranks of pr_eq_ reproduces both tables bit
  // for bit: every cell was summed onto +0.0, so it is never -0.0 and adds
  // back onto the builder's +0.0 unchanged, and Build sums pr_le_ in the
  // same order.
  RankDistributionBuilder builder(std::min(k, k_));
  for (size_t i = 0; i < keys_.size(); ++i) {
    builder.AddRow(keys_[i], pr_eq_[i].data() + 1, k_);
  }
  return std::move(builder).Build();
}

void RankDistributionBuilder::EnsureKey(KeyId key) {
  auto [it, inserted] =
      dist_.key_index_.insert({key, static_cast<int>(dist_.keys_.size())});
  if (inserted) {
    dist_.keys_.push_back(key);
    dist_.pr_eq_.emplace_back(static_cast<size_t>(dist_.k_) + 1, 0.0);
  }
}

void RankDistributionBuilder::Add(KeyId key, int i, double prob) {
  EnsureKey(key);
  if (i < 1 || i > dist_.k_) return;
  dist_.pr_eq_[static_cast<size_t>(dist_.key_index_[key])]
              [static_cast<size_t>(i)] += prob;
}

void RankDistributionBuilder::AddRow(KeyId key, const double* probs,
                                     int count) {
  EnsureKey(key);
  std::vector<double>& row =
      dist_.pr_eq_[static_cast<size_t>(dist_.key_index_[key])];
  for (int i = 1; i <= std::min(count, dist_.k_); ++i) {
    row[static_cast<size_t>(i)] += probs[i - 1];
  }
}

RankDistribution RankDistributionBuilder::Build() && {
  assert(std::is_sorted(dist_.keys_.begin(), dist_.keys_.end()));
  dist_.pr_le_ = dist_.pr_eq_;
  for (auto& row : dist_.pr_le_) {
    for (size_t i = 2; i < row.size(); ++i) row[i] += row[i - 1];
  }
  return std::move(dist_);
}

RankDistributionScan::RankDistributionScan(const FlatTree& flat, int k,
                                           int max_chunks)
    : refold_(flat),
      k_(k),
      // Rank i reads x^{i-1}, and at most L - 1 other leaves count toward
      // a rank, so nothing above x^{min(k, L) - 1} is read; a cell's terms
      // do not depend on the truncation, so folding there leaves every
      // coefficient read bitwise as is.
      max_dx_(std::max(0, std::min(k, flat.num_leaves()) - 1)),
      ranks_(std::max(0, std::min(k, max_dx_ + 1))) {
  const std::vector<FlatLeaf>& leaves = flat.leaves();
  const size_t n = leaves.size();
  // Scores are finite (AndXorTree::Validate), so the order is total.
  order_.resize(n);
  std::iota(order_.begin(), order_.end(), 0);
  std::sort(order_.begin(), order_.end(), [&](int a, int b) {
    const double sa = leaves[static_cast<size_t>(a)].score;
    const double sb = leaves[static_cast<size_t>(b)].score;
    return sa > sb || (sa == sb && a < b);
  });
  rank_.resize(n);
  for (size_t p = 0; p < n; ++p) rank_[static_cast<size_t>(order_[p])] = p;
  // Nominal boundaries at equal leaf counts, each moved forward past the
  // tie group it splits.
  auto score_at = [&](size_t p) {
    return leaves[static_cast<size_t>(order_[p])].score;
  };
  chunk_begin_.push_back(0);
  for (int c = 1; c < max_chunks && n > 0; ++c) {
    size_t b = n * static_cast<size_t>(c) / static_cast<size_t>(max_chunks);
    while (b > 0 && b < n && score_at(b) == score_at(b - 1)) ++b;
    if (b > chunk_begin_.back() && b < n) chunk_begin_.push_back(b);
  }
  if (n > 0 && max_chunks > 0) chunk_begin_.push_back(n);
  scratch_.resize(static_cast<size_t>(num_chunks()));
  for (FlatRefold::Scratch& scratch : scratch_) {
    refold_.Reserve(max_dx_, 1, &scratch);
  }
  contributions_.assign(n * static_cast<size_t>(ranks_), 0.0);
}

void RankDistributionScan::RunChunk(int chunk) {
  Scan(chunk_begin_[static_cast<size_t>(chunk)],
       chunk_begin_[static_cast<size_t>(chunk) + 1], std::nullopt,
       contributions_.data(), &scratch_[static_cast<size_t>(chunk)]);
}

void RankDistributionScan::Scan(size_t begin, size_t end,
                                std::optional<KeyId> excluded,
                                double* contributions,
                                FlatRefold::Scratch* scratch) const {
  const std::vector<FlatLeaf>& leaves = refold_.flat().leaves();
  // Rows have shape (max_dx + 1) × 2, row-major: 1 = x^0 y^0 at index 0,
  // y (tags the target) = x^0 y^1 at 1, x (counts toward the rank) =
  // x^1 y^0 at 2, which is beyond the row (the zero polynomial) when
  // max_dx == 0. -1 is the zero polynomial, which a passed leaf of the
  // excluded key takes.
  constexpr int kZero = -1, kOne = 0, kY = 1, kX = 2;
  auto is_excluded = [&](int leaf) {
    return leaves[static_cast<size_t>(leaf)].key == excluded;
  };
  auto passed = [&](int leaf) { return is_excluded(leaf) ? kZero : kX; };
  // The base fold: every leaf scoring above the first group is passed.
  refold_.Fold(max_dx_, 1,
               [&](int i) {
                 return rank_[static_cast<size_t>(i)] < begin ? passed(i)
                                                              : kOne;
               },
               scratch);
  std::vector<int> leaf_set;
  std::vector<double> column(static_cast<size_t>(max_dx_) + 1);
  auto contribution = [&](int leaf) {
    return contributions +
           static_cast<size_t>(leaf) * static_cast<size_t>(ranks_);
  };
  for (size_t g = begin; g < end;) {
    const double score = leaves[static_cast<size_t>(order_[g])].score;
    size_t g_end = g + 1;
    while (g_end < end &&
           leaves[static_cast<size_t>(order_[g_end])].score == score) {
      ++g_end;
    }
    if (g_end == g + 1 && !is_excluded(order_[g])) {
      // A lone leaf: its query and its commit in one pass.
      const int target = order_[g];
      refold_.CommitAndQuery(target, kX, kY, column.data(), scratch);
      std::copy(column.begin(), column.begin() + ranks_, contribution(target));
      g = g_end;
      continue;
    }
    for (size_t p = g; p < g_end; ++p) {
      const int target = order_[p];
      if (is_excluded(target)) continue;
      leaf_set.assign(1, target);
      const double* f =
          refold_.Refold(leaf_set, [](int) { return kY; }, scratch);
      double* c = contribution(target);
      for (int i = 1; i <= ranks_; ++i) {
        c[i - 1] = f[static_cast<size_t>(i - 1) * 2 + 1];  // Coeff(i - 1, 1)
      }
    }
    if (g_end < end) {
      leaf_set.assign(order_.begin() + static_cast<std::ptrdiff_t>(g),
                      order_.begin() + static_cast<std::ptrdiff_t>(g_end));
      refold_.Commit(leaf_set, passed, scratch);
    }
    g = g_end;
  }
}

size_t RankDistributionScan::ChunkScratchBytes() const {
  size_t bytes = 0;
  for (const FlatRefold::Scratch& scratch : scratch_) {
    bytes = std::max(bytes, scratch.CapacityBytes());
  }
  return bytes;
}

RankDistribution RankDistributionScan::Build(
    const std::vector<KeyId>& keys) const {
  RankDistributionBuilder builder(k_);
  for (KeyId key : keys) builder.EnsureKey(key);
  const std::vector<FlatLeaf>& leaves = refold_.flat().leaves();
  for (size_t l = 0; l < leaves.size(); ++l) {
    // Ranks past ranks_ hold exact zeros, which would add nothing.
    builder.AddRow(leaves[l].key,
                   contributions_.data() + l * static_cast<size_t>(ranks_),
                   ranks_);
  }
  return std::move(builder).Build();
}

RankDistribution ComputeRankDistribution(const AndXorTree& tree, int k) {
  const FlatTree flat = FlatTree::Compile(tree);
  RankDistributionScan scan(flat, k, /*max_chunks=*/1);
  for (int c = 0; c < scan.num_chunks(); ++c) scan.RunChunk(c);
  return scan.Build(tree.Keys());
}

}  // namespace cpdb
