// Copyright 2026 The ConsensusDB Authors

#include "workload/generators.h"

#include <algorithm>
#include <numeric>

namespace cpdb {

ScorePool::ScorePool(int capacity, Rng* rng) {
  scores_.resize(static_cast<size_t>(capacity));
  std::iota(scores_.begin(), scores_.end(), 1);
  rng->Shuffle(&scores_);
}

double ScorePool::Next() {
  double s = static_cast<double>(scores_.back());
  scores_.pop_back();
  return s;
}

namespace {

// Recursive structure generator for RandomAndXorTree. Builds a subtree over
// the key ids in [begin, end) of `keys`; returns the subtree root.
NodeId BuildRandom(AndXorTree* tree, const RandomTreeOptions& opts,
                   const std::vector<KeyId>& keys, size_t begin, size_t end,
                   int depth, ScorePool* scores, Rng* rng) {
  size_t count = end - begin;
  if (depth >= opts.max_depth || count == 1) {
    if (count == 1) {
      // Terminal block: a XOR over 1..max_alternatives alternatives of the key.
      int alts = static_cast<int>(rng->UniformInt(1, opts.max_alternatives));
      double mass = rng->Uniform(opts.min_xor_mass, 1.0);
      std::vector<NodeId> leaves;
      std::vector<double> probs;
      for (int a = 0; a < alts; ++a) {
        TupleAlternative alt;
        alt.key = keys[begin];
        alt.score = scores->Next();
        alt.label = static_cast<int32_t>(rng->UniformInt(0, 7));
        leaves.push_back(tree->AddLeaf(alt));
        probs.push_back(mass / alts);
      }
      return tree->AddXor(std::move(leaves), std::move(probs));
    }
    // Depth exhausted with several keys left: independent AND of terminals.
    std::vector<NodeId> children;
    for (size_t i = begin; i < end; ++i) {
      children.push_back(
          BuildRandom(tree, opts, keys, i, i + 1, opts.max_depth, scores, rng));
    }
    return tree->AddAnd(std::move(children));
  }

  if (rng->Bernoulli(opts.xor_prob)) {
    // XOR node: 2-3 children, each re-deriving the same key range (legal:
    // the key constraint only restricts AND nodes).
    int fanout = static_cast<int>(rng->UniformInt(2, 3));
    double mass = rng->Uniform(opts.min_xor_mass, 1.0);
    std::vector<NodeId> children;
    std::vector<double> probs;
    for (int c = 0; c < fanout; ++c) {
      children.push_back(
          BuildRandom(tree, opts, keys, begin, end, depth + 1, scores, rng));
      probs.push_back(mass / fanout);
    }
    return tree->AddXor(std::move(children), std::move(probs));
  }
  // AND node: split the key range into 2..min(4, count) disjoint parts.
  size_t parts =
      static_cast<size_t>(rng->UniformInt(2, static_cast<int64_t>(std::min<size_t>(4, count))));
  std::vector<size_t> bounds = {begin, end};
  while (bounds.size() < parts + 1) {
    size_t cut = static_cast<size_t>(rng->UniformInt(
        static_cast<int64_t>(begin) + 1, static_cast<int64_t>(end) - 1));
    bounds.push_back(cut);
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  std::vector<NodeId> children;
  for (size_t i = 0; i + 1 < bounds.size(); ++i) {
    children.push_back(BuildRandom(tree, opts, keys, bounds[i], bounds[i + 1],
                                   depth + 1, scores, rng));
  }
  if (children.size() == 1) return children[0];
  return tree->AddAnd(std::move(children));
}

}  // namespace

Result<AndXorTree> RandomAndXorTree(const RandomTreeOptions& opts, Rng* rng) {
  if (opts.num_keys < 1) {
    return Status::InvalidArgument("num_keys must be >= 1");
  }
  // Leaf count can exceed num_keys * max_alternatives because XOR branches
  // re-derive keys; budget generously for the score pool.
  int xor_levels = opts.max_depth;
  int budget = opts.num_keys * opts.max_alternatives;
  for (int i = 0; i < xor_levels && budget < (1 << 22); ++i) budget *= 3;
  ScorePool scores(std::min(budget, 1 << 22), rng);

  AndXorTree tree;
  std::vector<KeyId> keys(static_cast<size_t>(opts.num_keys));
  std::iota(keys.begin(), keys.end(), 0);
  NodeId root =
      BuildRandom(&tree, opts, keys, 0, keys.size(), 0, &scores, rng);
  tree.SetRoot(root);
  CPDB_RETURN_NOT_OK(tree.Validate());
  return tree;
}

std::vector<std::vector<double>> RandomGroupByMatrix(int num_tuples,
                                                     int num_groups,
                                                     double zipf_theta,
                                                     double absence_prob,
                                                     Rng* rng) {
  std::vector<std::vector<double>> probs(
      static_cast<size_t>(num_tuples),
      std::vector<double>(static_cast<size_t>(num_groups), 0.0));
  for (int i = 0; i < num_tuples; ++i) {
    // Each tuple concentrates on a few labels around a Zipf-drawn favorite.
    int support = static_cast<int>(rng->UniformInt(1, std::min(4, num_groups)));
    double present_mass = 1.0 - rng->Uniform(0.0, 2.0 * absence_prob);
    present_mass = std::max(0.05, std::min(1.0, present_mass));
    std::vector<double> weights(static_cast<size_t>(support));
    double total = 0.0;
    for (double& w : weights) {
      w = rng->Uniform(0.2, 1.0);
      total += w;
    }
    for (int s = 0; s < support; ++s) {
      int g = static_cast<int>(rng->Zipf(num_groups, zipf_theta));
      probs[static_cast<size_t>(i)][static_cast<size_t>(g)] +=
          present_mass * weights[static_cast<size_t>(s)] / total;
    }
  }
  return probs;
}

}  // namespace cpdb
