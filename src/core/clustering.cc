// Copyright 2026 The ConsensusDB Authors

#include "core/clustering.h"

#include <algorithm>
#include <map>
#include <set>

#include "core/jaccard.h"  // IsBlockIndependent
#include "model/flat_tree.h"
#include "model/possible_worlds.h"

namespace cpdb {

namespace {

// Generic (correlation-aware) w_ij via generating functions: x tags the
// leaves of both keys carrying label a; [x^2] is Pr(i.A = a and j.A = a).
// Both-absent: x tags every leaf of either key; [x^0] is Pr(both absent).
// Rows are Poly1-shaped: max_dx = 2, max_dy = 0, so x^d sits at index d.
double PairCoClusterGeneric(const FlatTree& flat, KeyId ki, KeyId kj) {
  const std::vector<FlatLeaf>& leaves = flat.leaves();
  std::set<int32_t> labels_i, labels_j;
  for (const FlatLeaf& leaf : leaves) {
    if (leaf.key == ki) labels_i.insert(leaf.label);
    if (leaf.key == kj) labels_j.insert(leaf.label);
  }
  // x on the leaves `tagged` selects, the constant 1 elsewhere; the root
  // row, valid until the next fold.
  const auto fold = [&](const auto& tagged) {
    return FlatRefold::FoldOnce(
        flat, 2, 0,
        [&](int i) { return tagged(leaves[static_cast<size_t>(i)]) ? 1 : 0; },
        &FlatRefoldScratch());
  };
  double w = 0.0;
  for (int32_t a : labels_i) {
    if (labels_j.count(a) == 0) continue;
    w += fold([&](const FlatLeaf& leaf) {
      return (leaf.key == ki || leaf.key == kj) && leaf.label == a;
    })[2];
  }
  w += fold([&](const FlatLeaf& leaf) {
    return leaf.key == ki || leaf.key == kj;
  })[0];
  return w;
}

}  // namespace

Result<ClusteringProblem> ClusteringProblem::FromTree(const AndXorTree& tree) {
  for (NodeId l : tree.LeafIds()) {
    if (tree.node(l).leaf.label < 0) {
      return Status::InvalidArgument(
          "clustering requires a non-negative label on every leaf");
    }
  }
  ClusteringProblem problem;
  problem.keys_ = tree.Keys();
  size_t n = problem.keys_.size();
  problem.w_.assign(n, std::vector<double>(n, 0.0));

  if (IsBlockIndependent(tree)) {
    // Closed form: per-key label marginals; independence across keys.
    std::vector<double> marginal = tree.LeafMarginals();
    std::map<KeyId, std::map<int32_t, double>> label_probs;
    std::map<KeyId, double> present;
    for (NodeId l : tree.LeafIds()) {
      const TupleAlternative& alt = tree.node(l).leaf;
      label_probs[alt.key][alt.label] += marginal[static_cast<size_t>(l)];
      present[alt.key] += marginal[static_cast<size_t>(l)];
    }
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        const auto& li = label_probs[problem.keys_[i]];
        const auto& lj = label_probs[problem.keys_[j]];
        double w = (1.0 - present[problem.keys_[i]]) *
                   (1.0 - present[problem.keys_[j]]);
        for (const auto& [label, pi] : li) {
          auto it = lj.find(label);
          if (it != lj.end()) w += pi * it->second;
        }
        problem.w_[i][j] = problem.w_[j][i] = w;
      }
    }
  } else {
    const FlatTree flat = FlatTree::Compile(tree);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        double w =
            PairCoClusterGeneric(flat, problem.keys_[i], problem.keys_[j]);
        problem.w_[i][j] = problem.w_[j][i] = w;
      }
    }
  }
  return problem;
}

double ClusteringProblem::Expected(const ClusteringAnswer& answer) const {
  double expected = 0.0;
  for (size_t i = 0; i < keys_.size(); ++i) {
    for (size_t j = i + 1; j < keys_.size(); ++j) {
      bool together = answer.cluster_of[i] == answer.cluster_of[j];
      expected += together ? (1.0 - w_[i][j]) : w_[i][j];
    }
  }
  return expected;
}

ClusteringAnswer PivotClustering(const ClusteringProblem& problem, Rng* rng) {
  int n = problem.num_keys();
  ClusteringAnswer answer;
  answer.cluster_of.assign(static_cast<size_t>(n), -1);
  std::vector<int> order(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
  rng->Shuffle(&order);
  int next_cluster = 0;
  for (int pivot : order) {
    if (answer.cluster_of[static_cast<size_t>(pivot)] >= 0) continue;
    int cluster = next_cluster++;
    answer.cluster_of[static_cast<size_t>(pivot)] = cluster;
    for (int j = 0; j < n; ++j) {
      if (answer.cluster_of[static_cast<size_t>(j)] >= 0) continue;
      if (problem.W(pivot, j) >= 0.5) {
        answer.cluster_of[static_cast<size_t>(j)] = cluster;
      }
    }
  }
  return answer;
}

ClusteringAnswer LocalSearchClustering(const ClusteringProblem& problem,
                                       const ClusteringAnswer& start,
                                       int max_rounds) {
  int n = problem.num_keys();
  ClusteringAnswer answer = start;
  // Delta of moving key i into cluster c (possibly a fresh one): recompute
  // i's pairwise contributions.
  auto contribution = [&](int i, int cluster) {
    double total = 0.0;
    for (int j = 0; j < n; ++j) {
      if (j == i) continue;
      bool together = answer.cluster_of[static_cast<size_t>(j)] == cluster;
      total += together ? (1.0 - problem.W(i, j)) : problem.W(i, j);
    }
    return total;
  };
  for (int round = 0; round < max_rounds; ++round) {
    bool improved = false;
    for (int i = 0; i < n; ++i) {
      int current = answer.cluster_of[static_cast<size_t>(i)];
      double current_cost = contribution(i, current);
      // Candidate targets: every existing cluster plus a fresh singleton id.
      std::set<int> targets(answer.cluster_of.begin(), answer.cluster_of.end());
      int fresh = *targets.rbegin() + 1;
      targets.insert(fresh);
      for (int c : targets) {
        if (c == current) continue;
        double cost = contribution(i, c);
        if (cost < current_cost - 1e-12) {
          answer.cluster_of[static_cast<size_t>(i)] = c;
          current_cost = cost;
          improved = true;
        }
      }
    }
    if (!improved) break;
  }
  return answer;
}

ClusteringAnswer ClusteringOfWorld(const AndXorTree& tree,
                                   const std::vector<KeyId>& problem_keys,
                                   const std::vector<NodeId>& world) {
  std::map<KeyId, int32_t> label_of;
  for (NodeId l : world) {
    const TupleAlternative& alt = tree.node(l).leaf;
    label_of[alt.key] = alt.label;
  }
  ClusteringAnswer answer;
  answer.cluster_of.reserve(problem_keys.size());
  // Cluster id = label for present keys; one shared id for absent keys.
  int32_t absent_cluster = -1;
  for (const auto& [key, label] : label_of) {
    absent_cluster = std::max(absent_cluster, label);
  }
  ++absent_cluster;
  for (KeyId key : problem_keys) {
    auto it = label_of.find(key);
    answer.cluster_of.push_back(it == label_of.end() ? absent_cluster
                                                     : it->second);
  }
  return answer;
}

ClusteringAnswer BestOfWorldsClustering(const AndXorTree& tree,
                                        const ClusteringProblem& problem,
                                        int num_samples, Rng* rng) {
  ClusteringAnswer best;
  best.cluster_of.assign(static_cast<size_t>(problem.num_keys()), 0);
  double best_cost = problem.Expected(best);
  for (int s = 0; s < num_samples; ++s) {
    std::vector<NodeId> world = SampleWorld(tree, rng);
    ClusteringAnswer candidate = ClusteringOfWorld(tree, problem.keys(), world);
    double cost = problem.Expected(candidate);
    if (cost < best_cost) {
      best_cost = cost;
      best = candidate;
    }
  }
  return best;
}

}  // namespace cpdb
