// Copyright 2026 The ConsensusDB Authors

#include "core/topk_kendall.h"

#include <algorithm>

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

}  // namespace cpdb
