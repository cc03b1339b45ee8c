// Copyright 2026 The ConsensusDB Authors

#include "core/topk_footrule.h"

#include <cmath>

#include "matching/hungarian.h"

namespace cpdb {

double Upsilon2(const RankDistribution& dist, KeyId key) {
  double v = 0.0;
  for (int i = 1; i <= dist.k(); ++i) v += i * dist.PrRankEq(key, i);
  return v;
}

double FootrulePositionCost(const RankDistribution& dist, KeyId key,
                            int position) {
  const int k = dist.k();
  double upsilon3_prime = 0.0;  // sum_j |i-j| Pr(r=j), without the absence part
  for (int j = 1; j <= k; ++j) {
    upsilon3_prime += std::abs(position - j) * dist.PrRankEq(key, j);
  }
  return upsilon3_prime + (k + 1 - position) * dist.PrBeyondK(key) -
         (k + 1) * dist.PrTopK(key) + Upsilon2(dist, key);
}

namespace {

// The answer-independent part of E[F^(k+1)]: every tuple that lands in the
// world's Top-k contributes (k+1) - (its rank) when it is not matched by the
// answer; the matched corrections live in FootrulePositionCost.
double FootruleConstant(const RankDistribution& dist) {
  double c = 0.0;
  for (KeyId key : dist.keys()) {
    c += (dist.k() + 1) * dist.PrTopK(key) - Upsilon2(dist, key);
  }
  return c;
}

}  // namespace

double ExpectedTopKFootrule(const RankDistribution& dist,
                            const std::vector<KeyId>& answer) {
  double total = FootruleConstant(dist);
  for (size_t i = 0; i < answer.size(); ++i) {
    total += FootrulePositionCost(dist, answer[i], static_cast<int>(i) + 1);
  }
  return total;
}

std::vector<double> FootruleCostColumn(const RankDistribution& dist,
                                       KeyId key) {
  std::vector<double> column(static_cast<size_t>(dist.k()), 0.0);
  for (int i = 1; i <= dist.k(); ++i) {
    column[static_cast<size_t>(i - 1)] = FootrulePositionCost(dist, key, i);
  }
  return column;
}

Result<TopKResult> MeanTopKFootruleFromColumns(
    const RankDistribution& dist,
    const std::vector<std::vector<double>>& columns) {
  const int k = dist.k();
  const std::vector<KeyId>& keys = dist.keys();
  if (static_cast<int>(keys.size()) < k) {
    return Status::InvalidArgument(
        "footrule mean answer needs at least k tuples");
  }
  if (columns.size() != keys.size()) {
    return Status::InvalidArgument("one cost column per key required");
  }
  // Transpose into the row-major (positions x tuples) matrix the Hungarian
  // solver consumes.
  std::vector<std::vector<double>> cost(
      static_cast<size_t>(k), std::vector<double>(keys.size(), 0.0));
  for (size_t t = 0; t < keys.size(); ++t) {
    if (static_cast<int>(columns[t].size()) != k) {
      return Status::InvalidArgument("cost column has wrong length");
    }
    for (int i = 0; i < k; ++i) {
      cost[static_cast<size_t>(i)][t] = columns[t][static_cast<size_t>(i)];
    }
  }
  CPDB_ASSIGN_OR_RETURN(Assignment assignment, SolveAssignmentMin(cost));
  TopKResult result;
  result.keys.reserve(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) {
    result.keys.push_back(
        keys[static_cast<size_t>(assignment.row_to_col[static_cast<size_t>(i)])]);
  }
  result.expected_distance = ExpectedTopKFootrule(dist, result.keys);
  return result;
}

Result<TopKResult> MeanTopKFootrule(const RankDistribution& dist) {
  std::vector<std::vector<double>> columns;
  columns.reserve(dist.keys().size());
  for (KeyId key : dist.keys()) {
    columns.push_back(FootruleCostColumn(dist, key));
  }
  return MeanTopKFootruleFromColumns(dist, columns);
}

}  // namespace cpdb
