// Copyright 2026 The ConsensusDB Authors

#include "core/aggregates.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "matching/min_cost_flow.h"

namespace cpdb {

Status ValidateGroupBy(const GroupByInstance& instance) {
  if (instance.probs.empty()) {
    return Status::InvalidArgument("group-by instance has no tuples");
  }
  size_t m = instance.probs[0].size();
  if (m == 0) return Status::InvalidArgument("group-by instance has no groups");
  for (size_t i = 0; i < instance.probs.size(); ++i) {
    if (instance.probs[i].size() != m) {
      return Status::InvalidArgument("ragged probability matrix");
    }
    double row = 0.0;
    for (double p : instance.probs[i]) {
      if (p < 0.0 || p > 1.0) {
        return Status::InvalidArgument("probability out of [0,1] in row " +
                                       std::to_string(i));
      }
      row += p;
    }
    if (row > 1.0 + 1e-9) {
      return Status::InvalidArgument("row " + std::to_string(i) +
                                     " sums to " + std::to_string(row) + " > 1");
    }
  }
  return Status::OK();
}

Result<GroupByInstance> GroupByInstanceFromTree(
    const AndXorTree& tree, const std::vector<double>& leaf_marginals) {
  // Accumulate (key, label) marginal mass in DFS leaf order — the exact
  // accumulation order the offline CLI historically used, so the instance
  // (and everything downstream of it) is bitwise-stable.
  std::map<KeyId, std::map<int32_t, double>> rows;
  int32_t max_label = -1;
  for (NodeId l : tree.LeafIds()) {
    const TupleAlternative& alt = tree.node(l).leaf;
    if (alt.label < 0) {
      return Status::InvalidArgument(
          "aggregate requires a label on every alternative (key " +
          std::to_string(alt.key) + " has none)");
    }
    rows[alt.key][alt.label] += leaf_marginals[static_cast<size_t>(l)];
    max_label = std::max(max_label, alt.label);
  }
  GroupByInstance instance;
  for (const auto& [key, labels] : rows) {
    std::vector<double> row(static_cast<size_t>(max_label) + 1, 0.0);
    for (const auto& [label, p] : labels) row[static_cast<size_t>(label)] = p;
    instance.probs.push_back(std::move(row));
  }
  return instance;
}

std::vector<double> MeanAggregate(const GroupByInstance& instance) {
  std::vector<double> mean(static_cast<size_t>(instance.num_groups()), 0.0);
  for (const auto& row : instance.probs) {
    for (size_t j = 0; j < row.size(); ++j) mean[j] += row[j];
  }
  return mean;
}

double ExpectedSquaredDistance(const GroupByInstance& instance,
                               const std::vector<double>& x) {
  std::vector<double> mean = MeanAggregate(instance);
  double total = 0.0;
  for (size_t j = 0; j < mean.size(); ++j) {
    double var = 0.0;
    for (const auto& row : instance.probs) {
      var += row[j] * (1.0 - row[j]);
    }
    double diff = mean[j] - x[j];
    total += var + diff * diff;
  }
  return total;
}

Result<std::vector<int64_t>> ClosestPossibleAggregate(
    const GroupByInstance& instance) {
  CPDB_RETURN_NOT_OK(ValidateGroupBy(instance));
  const int n = instance.num_tuples();
  const int m = instance.num_groups();
  std::vector<double> mean = MeanAggregate(instance);

  // Network: source -> tuple_i (cap 1) -> group_j (where p_ij > 0) -> sink
  // via a chain of unit edges with convex marginal costs
  //   marginal(j, c) = (c - mean_j)^2 - (c-1 - mean_j)^2 = 2c - 1 - 2 mean_j
  // so that the total group cost telescopes to (r_j - mean_j)^2 - mean_j^2.
  // Tuples that can be absent route to an "absent" node with zero cost.
  // All costs are shifted by a constant M per unit so they are non-negative
  // (every maximal flow carries exactly n units into the sink, making the
  // shift a constant offset that cannot change the argmin).
  double shift = 1.0;
  for (int j = 0; j < m; ++j) shift = std::max(shift, 2.0 * mean[static_cast<size_t>(j)] + 1.0);

  const int source = 0;
  const int sink = 1;
  const int tuple_base = 2;
  const int group_base = tuple_base + n;
  const int absent_node = group_base + m;
  MinCostFlow flow(absent_node + 1);

  for (int i = 0; i < n; ++i) {
    flow.AddEdge(source, tuple_base + i, 1, 0.0);
    double row_sum = 0.0;
    for (int j = 0; j < m; ++j) {
      double p = instance.probs[static_cast<size_t>(i)][static_cast<size_t>(j)];
      row_sum += p;
      if (p > 0.0) flow.AddEdge(tuple_base + i, group_base + j, 1, 0.0);
    }
    if (row_sum < 1.0 - 1e-12) {
      flow.AddEdge(tuple_base + i, absent_node, 1, 0.0);
    }
  }
  // Count how many tuples can reach each group to cap the unit chain.
  std::vector<int> group_cap(static_cast<size_t>(m), 0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      if (instance.probs[static_cast<size_t>(i)][static_cast<size_t>(j)] > 0.0) {
        ++group_cap[static_cast<size_t>(j)];
      }
    }
  }
  // first_group_edge[j] is the id of the first unit edge of group j's chain.
  std::vector<int> first_group_edge(static_cast<size_t>(m), -1);
  std::vector<int> chain_len(static_cast<size_t>(m), 0);
  for (int j = 0; j < m; ++j) {
    chain_len[static_cast<size_t>(j)] = group_cap[static_cast<size_t>(j)];
    for (int c = 1; c <= group_cap[static_cast<size_t>(j)]; ++c) {
      double marginal = 2.0 * c - 1.0 - 2.0 * mean[static_cast<size_t>(j)] + shift;
      int id = flow.AddEdge(group_base + j, sink, 1, marginal);
      if (c == 1) first_group_edge[static_cast<size_t>(j)] = id;
    }
  }
  // The absent route must pay the same per-unit shift as the group chains;
  // otherwise the shift would subsidize answers that drop more tuples.
  flow.AddEdge(absent_node, sink, n, shift);

  CPDB_ASSIGN_OR_RETURN(MinCostFlow::Solution solution,
                        flow.Solve(source, sink, n));
  if (solution.flow != n) {
    return Status::Infeasible("could not route all tuples (unexpected)");
  }

  std::vector<int64_t> counts(static_cast<size_t>(m), 0);
  for (int j = 0; j < m; ++j) {
    for (int c = 0; c < chain_len[static_cast<size_t>(j)]; ++c) {
      counts[static_cast<size_t>(j)] +=
          flow.Flow(first_group_edge[static_cast<size_t>(j)] + c);
    }
  }
  return counts;
}

}  // namespace cpdb
