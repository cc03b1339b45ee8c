// Copyright 2026 The ConsensusDB Authors

#include "core/ranking_baselines.h"

#include <algorithm>
#include <map>

#include "model/possible_worlds.h"

namespace cpdb {

namespace {

// Sorts keys by a per-key value (descending if `descending`) and returns the
// first k.
std::vector<KeyId> TopKeysByValue(const std::vector<KeyId>& keys,
                                  const std::map<KeyId, double>& value, int k,
                                  bool descending) {
  std::vector<KeyId> sorted = keys;
  std::stable_sort(sorted.begin(), sorted.end(), [&](KeyId a, KeyId b) {
    double va = value.at(a), vb = value.at(b);
    return descending ? va > vb : va < vb;
  });
  if (static_cast<int>(sorted.size()) > k) sorted.resize(static_cast<size_t>(k));
  return sorted;
}

}  // namespace

std::vector<KeyId> TopKByExpectedScore(const AndXorTree& tree, int k) {
  std::vector<double> marginal = tree.LeafMarginals();
  std::map<KeyId, double> value;
  for (KeyId key : tree.Keys()) value[key] = 0.0;
  for (NodeId l : tree.LeafIds()) {
    const TupleAlternative& alt = tree.node(l).leaf;
    value[alt.key] += marginal[static_cast<size_t>(l)] * alt.score;
  }
  return TopKeysByValue(tree.Keys(), value, k, /*descending=*/true);
}

std::vector<double> ExpectedRanks(const AndXorTree& tree) {
  const std::vector<KeyId> keys = tree.Keys();
  std::vector<double> expected(keys.size(), 0.0);
  const std::vector<double> marginal = tree.LeafMarginals();
  const NodeId root = tree.root();
  // count[v]: the expected number of inserted leaves under v present,
  // given v is reached.
  std::vector<double> count(static_cast<size_t>(tree.NumNodes()), 0.0);
  auto insert = [&](NodeId leaf) {
    double w = 1.0;
    count[static_cast<size_t>(leaf)] += w;
    for (NodeId v = leaf; v != root; v = tree.parent(v)) {
      w *= tree.up_edge(v);
      count[static_cast<size_t>(tree.parent(v))] += w;
    }
  };
  // Sum over leaves l != a inserted so far of Pr(l | a).
  auto conditional_count = [&](NodeId leaf) {
    double c = 0.0;
    for (NodeId v = leaf; v != root; v = tree.parent(v)) {
      const NodeId p = tree.parent(v);
      if (tree.node(p).kind == NodeKind::kAnd) {
        c += count[static_cast<size_t>(p)] - count[static_cast<size_t>(v)];
      }
    }
    return c;
  };

  std::vector<NodeId> order = tree.LeafIds();
  auto score = [&](NodeId l) { return tree.node(l).leaf.score; };
  std::sort(order.begin(), order.end(),
            [&](NodeId a, NodeId b) { return score(a) > score(b); });
  std::vector<double> above(order.size());
  for (size_t i = 0; i < order.size();) {
    size_t end = i;
    while (end < order.size() && score(order[end]) == score(order[i])) ++end;
    for (size_t j = i; j < end; ++j) above[j] = conditional_count(order[j]);
    for (size_t j = i; j < end; ++j) insert(order[j]);
    i = end;
  }

  double total = 0.0;
  for (NodeId l : tree.LeafIds()) total += marginal[static_cast<size_t>(l)];
  std::vector<double> present(keys.size(), 0.0);
  std::vector<double> adjust(keys.size(), 0.0);
  for (size_t j = 0; j < order.size(); ++j) {
    const NodeId a = order[j];
    const size_t ki = static_cast<size_t>(
        std::lower_bound(keys.begin(), keys.end(), tree.node(a).leaf.key) -
        keys.begin());
    const double pa = marginal[static_cast<size_t>(a)];
    present[ki] += pa;
    adjust[ki] += pa * (above[j] - conditional_count(a));
  }
  for (size_t ki = 0; ki < keys.size(); ++ki) {
    expected[ki] = 1.0 + (total - present[ki]) + adjust[ki];
  }
  return expected;
}

std::vector<KeyId> TopKByExpectedRankFromRanks(const std::vector<KeyId>& keys,
                                               const std::vector<double>& ranks,
                                               int k) {
  std::map<KeyId, double> value;
  for (size_t i = 0; i < keys.size(); ++i) value[keys[i]] = ranks[i];
  return TopKeysByValue(keys, value, k, /*descending=*/false);
}

std::vector<KeyId> TopKByExpectedRank(const AndXorTree& tree, int k) {
  return TopKByExpectedRankFromRanks(tree.Keys(), ExpectedRanks(tree), k);
}

std::vector<KeyId> ProbabilisticThresholdTopK(const RankDistribution& dist,
                                              double threshold) {
  std::vector<KeyId> selected;
  for (KeyId key : dist.keys()) {
    if (dist.PrTopK(key) >= threshold) selected.push_back(key);
  }
  std::stable_sort(selected.begin(), selected.end(), [&](KeyId a, KeyId b) {
    return dist.PrTopK(a) > dist.PrTopK(b);
  });
  return selected;
}

std::vector<KeyId> GlobalTopK(const RankDistribution& dist) {
  std::map<KeyId, double> value;
  for (KeyId key : dist.keys()) value[key] = dist.PrTopK(key);
  return TopKeysByValue(dist.keys(), value, dist.k(), /*descending=*/true);
}

std::vector<KeyId> UTopKSampled(const AndXorTree& tree, int k, int num_samples,
                                Rng* rng) {
  std::map<std::vector<KeyId>, int> counts;
  for (int s = 0; s < num_samples; ++s) {
    ++counts[TopKOfWorld(tree, SampleWorld(tree, rng), k)];
  }
  const std::vector<KeyId>* best = nullptr;
  int best_count = -1;
  for (const auto& [list, count] : counts) {
    if (count > best_count) {
      best_count = count;
      best = &list;
    }
  }
  return best == nullptr ? std::vector<KeyId>{} : *best;
}

std::vector<KeyId> TopKByPRF(const RankDistribution& dist,
                             const std::vector<double>& weights) {
  std::map<KeyId, double> value;
  for (KeyId key : dist.keys()) {
    double v = 0.0;
    for (int i = 1; i <= dist.k() && i <= static_cast<int>(weights.size());
         ++i) {
      v += weights[static_cast<size_t>(i - 1)] * dist.PrRankEq(key, i);
    }
    value[key] = v;
  }
  return TopKeysByValue(dist.keys(), value, dist.k(), /*descending=*/true);
}

std::vector<double> PrfUpsilonHWeights(int k) {
  std::vector<double> weights(static_cast<size_t>(std::max(k, 0)));
  double h_k = 0.0;
  for (int m = 1; m <= k; ++m) h_k += 1.0 / static_cast<double>(m);
  double h_prev = 0.0;  // H_{i-1}, starting from H_0 = 0
  for (int i = 1; i <= k; ++i) {
    weights[static_cast<size_t>(i - 1)] = h_k - h_prev;
    h_prev += 1.0 / static_cast<double>(i);
  }
  return weights;
}

}  // namespace cpdb
