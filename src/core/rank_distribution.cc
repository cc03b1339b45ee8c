// Copyright 2026 The ConsensusDB Authors

#include "core/rank_distribution.h"

#include <algorithm>


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

RankDistribution RankDistributionBuilder::Build() && {
  // keys_ must be sorted ascending like ComputeRankDistribution produces;
  // reindex after sorting.
  std::vector<KeyId> sorted = dist_.keys_;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::vector<double>> pr_eq(sorted.size());
  for (size_t i = 0; i < sorted.size(); ++i) {
    pr_eq[i] = dist_.pr_eq_[static_cast<size_t>(dist_.key_index_[sorted[i]])];
  }
  dist_.keys_ = std::move(sorted);
  dist_.pr_eq_ = std::move(pr_eq);
  dist_.key_index_.clear();
  for (size_t i = 0; i < dist_.keys_.size(); ++i) {
    dist_.key_index_[dist_.keys_[i]] = static_cast<int>(i);
  }
  dist_.pr_le_ = dist_.pr_eq_;
  for (auto& row : dist_.pr_le_) {
    for (size_t i = 2; i < row.size(); ++i) row[i] += row[i - 1];
  }
  return std::move(dist_);
}

std::vector<double> LeafRankContribution(const FlatTree& flat, int target,
                                         int k) {
  // One bivariate generating function per tuple alternative: x (count of
  // higher-ranked tuples) truncated at k, enough to read Pr(r = k) from
  // x^{k-1}; y (the alternative itself) at 1. Rows have shape (k+1) × 2,
  // row-major: Index(i, j) = i * 2 + j. Leaf classification reads the
  // packed leaf table; a monomial beyond the bounds is the zero polynomial.
  const std::vector<FlatLeaf>& leaves = flat.leaves();
  const FlatLeaf& alt = leaves[static_cast<size_t>(target)];
  const auto leaf_init = [&](int i, double* row) {
    if (i == target) {
      row[1] = 1.0;  // y = x^0 y^1
      return;
    }
    const FlatLeaf& other = leaves[static_cast<size_t>(i)];
    if (other.key != alt.key && other.score > alt.score) {
      if (k >= 1) row[2] = 1.0;  // x = x^1 y^0, counts toward the rank
      return;
    }
    row[0] = 1.0;  // constant 1
  };
  std::vector<double> f(static_cast<size_t>(k + 1) * 2);
  flat.EvalGeneratingFunction(k, 1, leaf_init, f.data(), &FlatFoldScratch());
  std::vector<double> contribution(static_cast<size_t>(k) + 1, 0.0);
  for (int i = 1; i <= k; ++i) {
    contribution[static_cast<size_t>(i)] =
        f[static_cast<size_t>(i - 1) * 2 + 1];  // Coeff(i - 1, 1)
  }
  return contribution;
}

RankDistribution ComputeRankDistribution(const AndXorTree& tree, int k) {
  RankDistribution dist;
  dist.k_ = k;
  dist.keys_ = tree.Keys();
  for (size_t i = 0; i < dist.keys_.size(); ++i) {
    dist.key_index_[dist.keys_[i]] = static_cast<int>(i);
  }
  dist.pr_eq_.assign(dist.keys_.size(),
                     std::vector<double>(static_cast<size_t>(k) + 1, 0.0));

  const FlatTree flat = FlatTree::Compile(tree);
  for (int target = 0; target < flat.num_leaves(); ++target) {
    std::vector<double> contribution = LeafRankContribution(flat, target, k);
    int key_idx =
        dist.key_index_[flat.leaves()[static_cast<size_t>(target)].key];
    for (int i = 1; i <= k; ++i) {
      dist.pr_eq_[static_cast<size_t>(key_idx)][static_cast<size_t>(i)] +=
          contribution[static_cast<size_t>(i)];
    }
  }

  dist.pr_le_ = dist.pr_eq_;
  for (auto& row : dist.pr_le_) {
    for (size_t i = 2; i < row.size(); ++i) row[i] += row[i - 1];
  }
  return dist;
}

}  // namespace cpdb
