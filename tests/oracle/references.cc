// Copyright 2026 The ConsensusDB Authors

#include "oracle/references.h"

#include <algorithm>
#include <limits>
#include <sstream>

namespace cpdb {

Result<ClusteringAnswer> ExactClustering(const ClusteringProblem& problem,
                                         int max_keys) {
  int n = problem.num_keys();
  if (n > max_keys) {
    return Status::ResourceExhausted("too many keys for exact clustering");
  }
  ClusteringAnswer best;
  best.cluster_of.assign(static_cast<size_t>(n), 0);
  double best_cost = std::numeric_limits<double>::infinity();
  // Enumerate set partitions in restricted-growth form.
  std::vector<int> rg(static_cast<size_t>(n), 0);
  while (true) {
    ClusteringAnswer candidate;
    candidate.cluster_of = rg;
    double cost = problem.Expected(candidate);
    if (cost < best_cost) {
      best_cost = cost;
      best = candidate;
    }
    // Next restricted-growth string.
    int i = n - 1;
    for (; i > 0; --i) {
      int max_prefix = 0;
      for (int j = 0; j < i; ++j) max_prefix = std::max(max_prefix, rg[static_cast<size_t>(j)]);
      if (rg[static_cast<size_t>(i)] <= max_prefix) {
        ++rg[static_cast<size_t>(i)];
        for (int j = i + 1; j < n; ++j) rg[static_cast<size_t>(j)] = 0;
        break;
      }
    }
    if (i <= 0) break;  // n == 0 starts at i == -1: one empty clustering
  }
  return best;
}

namespace {

// Recursively enumerates assignments for ExactMedianAggregate. `choice[i]`
// in [0, m] where m means absent.
void EnumerateAssignments(const GroupByInstance& instance, int i,
                          std::vector<int>* choice, double prob,
                          std::vector<std::vector<int64_t>>* answers,
                          std::vector<double>* answer_probs,
                          int64_t* budget) {
  if (*budget <= 0) return;
  const int n = instance.num_tuples();
  const int m = instance.num_groups();
  if (i == n) {
    --*budget;
    std::vector<int64_t> counts(static_cast<size_t>(m), 0);
    for (int t = 0; t < n; ++t) {
      if ((*choice)[static_cast<size_t>(t)] < m) {
        ++counts[static_cast<size_t>((*choice)[static_cast<size_t>(t)])];
      }
    }
    // Linear scan for an existing identical answer (instances are tiny).
    for (size_t a = 0; a < answers->size(); ++a) {
      if ((*answers)[a] == counts) {
        (*answer_probs)[a] += prob;
        return;
      }
    }
    answers->push_back(std::move(counts));
    answer_probs->push_back(prob);
    return;
  }
  double row_sum = 0.0;
  for (int j = 0; j < m; ++j) {
    double p = instance.probs[static_cast<size_t>(i)][static_cast<size_t>(j)];
    row_sum += p;
    if (p <= 0.0) continue;
    (*choice)[static_cast<size_t>(i)] = j;
    EnumerateAssignments(instance, i + 1, choice, prob * p, answers,
                         answer_probs, budget);
  }
  if (row_sum < 1.0 - 1e-12) {
    (*choice)[static_cast<size_t>(i)] = m;
    EnumerateAssignments(instance, i + 1, choice, prob * (1.0 - row_sum),
                         answers, answer_probs, budget);
  }
}

}  // namespace

Result<std::vector<int64_t>> ExactMedianAggregate(
    const GroupByInstance& instance, int64_t max_assignments) {
  CPDB_RETURN_NOT_OK(ValidateGroupBy(instance));
  std::vector<std::vector<int64_t>> answers;
  std::vector<double> answer_probs;
  std::vector<int> choice(static_cast<size_t>(instance.num_tuples()), -1);
  int64_t budget = max_assignments;
  EnumerateAssignments(instance, 0, &choice, 1.0, &answers, &answer_probs,
                       &budget);
  if (budget <= 0) {
    return Status::ResourceExhausted("too many assignments to enumerate");
  }
  if (answers.empty()) return Status::Infeasible("no possible answers");

  // E[d(candidate, r)] = sum over possible answers of prob * squared dist.
  double best = std::numeric_limits<double>::infinity();
  size_t best_idx = 0;
  for (size_t a = 0; a < answers.size(); ++a) {
    double expected = 0.0;
    for (size_t b = 0; b < answers.size(); ++b) {
      double d = 0.0;
      for (size_t j = 0; j < answers[a].size(); ++j) {
        double diff = static_cast<double>(answers[a][j] - answers[b][j]);
        d += diff * diff;
      }
      expected += answer_probs[b] * d;
    }
    if (expected < best) {
      best = expected;
      best_idx = a;
    }
  }
  return answers[best_idx];
}

double HarmonicNumber(int k) {
  double h = 0.0;
  for (int i = 1; i <= k; ++i) h += 1.0 / i;
  return h;
}

std::string FormatBidTable(const std::vector<Block>& blocks) {
  std::ostringstream os;
  os << "# key prob score [label]\n";
  for (const Block& b : blocks) {
    for (const BlockAlternative& a : b) {
      os << a.alt.key << " " << a.prob << " " << a.alt.score;
      if (a.alt.label >= 0) os << " " << a.alt.label;
      os << "\n";
    }
  }
  return os.str();
}

}  // namespace cpdb
