// Copyright 2026 The ConsensusDB Authors

#include "oracle/tail_oracles.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "common/math_utils.h"

namespace cpdb {

namespace {

// Inputs shared by every stratum, computed once per search: the Theorem 4
// thresholds ascending, the per-node DP values Pr(r(t) <= k) and their
// centered form Pr(r(t) <= k) - 1/2 (leaves only; other nodes 0), and the
// DP's flat layout (nodes children-first, each node's first row; an AND
// node owns one row per child, the running max-plus prefix).
struct MedianSymDiffContext {
  int k = 0;
  std::vector<double> thresholds;
  std::vector<double> value_p;
  std::vector<double> value_centered;
  std::vector<NodeId> post_order;
  std::vector<int32_t> dp_row;  // indexed by NodeId; -1 if unreachable
  int32_t dp_rows = 0;
};

// One candidate answer produced by a stratum: the uniform objective
// sum_{t in tau} (Pr(r(t) <= k) - 1/2) and the witnessing leaves (sorted
// NodeIds).
struct SymDiffMedianCandidate {
  double centered_value = 0.0;
  std::vector<NodeId> leaves;
};

constexpr double kValueEps = 1e-9;

// Flat storage for SizeValueDp: one row of cap + 1 values (and XOR
// choices) per row of the context's DP layout. Grow-only and one per
// thread, so a thread's strata after its first allocate nothing.
struct DpArena {
  std::vector<double> val;
  std::vector<int> xor_choice;
};

DpArena& ThreadDpArena() {
  thread_local DpArena arena;
  return arena;
}

// Size-indexed max-value DP over a (possibly score-pruned) and/xor tree.
// A node's value row val[s] is the maximum sum of per-leaf values over the
// positive-probability worlds of its subtree with exactly s surviving
// leaves; kNegInf marks infeasible sizes. A XOR row also records, per
// size, the chosen child index (-1 = the empty outcome). An AND node owns
// one row per child: row i is the max-plus convolution of children[0..i]'s
// values, kept for split reconstruction, and the last one is its value.
class SizeValueDp {
 public:
  // Leaves scoring at least `threshold` (every leaf when `all_active`) are
  // active with DP value leaf_value[leaf_id]; the others are treated as
  // absent from the pruned tree.
  SizeValueDp(const AndXorTree& tree, const MedianSymDiffContext& context,
              const std::vector<double>& leaf_value, double threshold,
              bool all_active, int max_size, DpArena* arena)
      : tree_(tree),
        context_(context),
        stride_(static_cast<size_t>(max_size) + 1),
        arena_(arena) {
    Run(leaf_value, threshold, all_active);
  }

  // Max value over worlds with exactly `size` active leaves (kNegInf if no
  // such world exists).
  double ValueAt(int size) const {
    return Val(tree_.root())[static_cast<size_t>(size)];
  }

  // The active leaves of one world achieving ValueAt(size).
  std::vector<NodeId> Reconstruct(int size) const {
    std::vector<NodeId> leaves;
    Collect(tree_.root(), size, &leaves);
    std::sort(leaves.begin(), leaves.end());
    return leaves;
  }

 private:
  double* Row(int32_t row) const {
    return arena_->val.data() + static_cast<size_t>(row) * stride_;
  }
  int* Choice(int32_t row) const {
    return arena_->xor_choice.data() + static_cast<size_t>(row) * stride_;
  }
  int32_t FirstRow(NodeId id) const {
    return context_.dp_row[static_cast<size_t>(id)];
  }
  const double* Val(NodeId id) const {
    const TreeNode& n = tree_.node(id);
    const size_t last =
        n.kind == NodeKind::kAnd ? n.children.size() - 1 : 0;
    return Row(FirstRow(id) + static_cast<int32_t>(last));
  }

  void Run(const std::vector<double>& leaf_value, double threshold,
           bool all_active) {
    const size_t need = static_cast<size_t>(context_.dp_rows) * stride_;
    if (arena_->val.size() < need) {
      arena_->val.resize(need);
      arena_->xor_choice.resize(need);
    }
    const size_t cap = stride_ - 1;
    for (NodeId id : context_.post_order) {
      const TreeNode& n = tree_.node(id);
      double* val = Row(FirstRow(id));
      switch (n.kind) {
        case NodeKind::kLeaf: {
          std::fill(val, val + stride_, kNegInf);
          if (all_active || n.leaf.score >= threshold) {
            if (cap >= 1) val[1] = leaf_value[static_cast<size_t>(id)];
          } else {
            val[0] = 0.0;  // pruned leaf: contributes nothing
          }
          break;
        }
        case NodeKind::kAnd: {
          const double* first = Val(n.children[0]);
          std::copy(first, first + stride_, val);
          for (size_t i = 1; i < n.children.size(); ++i) {
            double* acc = val + i * stride_;
            MaxPlusConvolveInto(acc - stride_, stride_, Val(n.children[i]),
                                stride_, acc, stride_);
          }
          break;
        }
        case NodeKind::kXor: {
          int* choice = Choice(FirstRow(id));
          std::fill(val, val + stride_, kNegInf);
          std::fill(choice, choice + stride_, -2);
          double leftover = 1.0;
          for (double p : n.edge_probs) leftover -= p;
          if (leftover > 0.0) {
            val[0] = 0.0;
            choice[0] = -1;
          }
          for (size_t i = 0; i < n.children.size(); ++i) {
            if (n.edge_probs[i] <= 0.0) continue;
            const double* child = Val(n.children[i]);
            for (size_t s = 0; s <= cap; ++s) {
              if (child[s] > val[s]) {
                val[s] = child[s];
                choice[s] = static_cast<int>(i);
              }
            }
          }
          break;
        }
      }
    }
  }

  void Collect(NodeId id, int size, std::vector<NodeId>* leaves) const {
    const TreeNode& n = tree_.node(id);
    switch (n.kind) {
      case NodeKind::kLeaf:
        if (size == 1) leaves->push_back(id);
        return;
      case NodeKind::kXor: {
        int choice = Choice(FirstRow(id))[static_cast<size_t>(size)];
        if (choice >= 0) {
          Collect(n.children[static_cast<size_t>(choice)], size, leaves);
        }
        return;
      }
      case NodeKind::kAnd: {
        const double* prefix = Row(FirstRow(id));
        int remaining = size;
        for (size_t i = n.children.size(); i-- > 1;) {
          const double* child_val = Val(n.children[i]);
          const double* prev = prefix + (i - 1) * stride_;
          double target = prefix[i * stride_ + static_cast<size_t>(remaining)];
          // Find the split (remaining - q from the prefix, q from child i).
          for (int q = 0; q <= remaining; ++q) {
            double a = prev[static_cast<size_t>(remaining - q)];
            double b = child_val[static_cast<size_t>(q)];
            if (a == kNegInf || b == kNegInf) continue;
            if (std::fabs(a + b - target) <= kValueEps) {
              Collect(n.children[i], q, leaves);
              remaining -= q;
              break;
            }
          }
        }
        Collect(n.children[0], remaining, leaves);
        return;
      }
    }
  }

  const AndXorTree& tree_;
  const MedianSymDiffContext& context_;
  size_t stride_;
  DpArena* arena_;
};

MedianSymDiffContext BuildMedianSymDiffContext(const AndXorTree& tree,
                                               const RankDistribution& dist) {
  MedianSymDiffContext context;
  context.k = dist.k();
  // Distinct leaf scores ascending: the Theorem 4 thresholds.
  std::set<double> scores;
  for (NodeId l : tree.LeafIds()) scores.insert(tree.node(l).leaf.score);
  context.thresholds.assign(scores.begin(), scores.end());
  // The DP layout: nodes children-first, and each node's first DP row (an
  // AND node takes one row per child).
  context.dp_row.assign(static_cast<size_t>(tree.NumNodes()), -1);
  std::vector<std::pair<NodeId, bool>> stack;
  if (tree.root() != kInvalidNode) stack.push_back({tree.root(), false});
  while (!stack.empty()) {
    auto [id, expanded] = stack.back();
    stack.pop_back();
    const TreeNode& n = tree.node(id);
    if (!expanded) {
      stack.push_back({id, true});
      for (NodeId c : n.children) stack.push_back({c, false});
      continue;
    }
    context.post_order.push_back(id);
    context.dp_row[static_cast<size_t>(id)] = context.dp_rows;
    context.dp_rows += n.kind == NodeKind::kAnd
                           ? static_cast<int32_t>(n.children.size())
                           : 1;
  }
  context.value_p.assign(static_cast<size_t>(tree.NumNodes()), 0.0);
  context.value_centered.assign(static_cast<size_t>(tree.NumNodes()), 0.0);
  for (NodeId l : tree.LeafIds()) {
    double p = dist.PrTopK(tree.node(l).leaf.key);
    context.value_p[static_cast<size_t>(l)] = p;
    context.value_centered[static_cast<size_t>(l)] = p - 0.5;
  }
  return context;
}

// Stratum `stratum`: indices below the distinct-score count run that
// score-threshold DP (at most one candidate); the final index runs the
// small-world DP (up to k candidates, sizes ascending).
std::vector<SymDiffMedianCandidate> EvalMedianSymDiffStratum(
    const AndXorTree& tree, const MedianSymDiffContext& context, int stratum) {
  const int k = context.k;
  std::vector<SymDiffMedianCandidate> candidates;
  if (tree.NumLeaves() == 0 || k < 1) return candidates;
  if (stratum < 0 || stratum > static_cast<int>(context.thresholds.size())) {
    return candidates;
  }

  if (stratum < static_cast<int>(context.thresholds.size())) {
    // Candidates of size exactly k above this score threshold (Theorem 4):
    // a size-k world of the pruned tree is exactly the Top-k of a
    // realizable full world. DP values are P(t) = Pr(r(t) <= k).
    const double threshold = context.thresholds[static_cast<size_t>(stratum)];
    int num_active = 0;
    for (NodeId l : tree.LeafIds()) {
      if (tree.node(l).leaf.score >= threshold) ++num_active;
    }
    if (num_active < k) return candidates;
    SizeValueDp dp(tree, context, context.value_p, threshold,
                   /*all_active=*/false, k, &ThreadDpArena());
    double v = dp.ValueAt(k);
    if (v == kNegInf) return candidates;
    candidates.push_back({v - 0.5 * k, dp.Reconstruct(k)});
    return candidates;
  }

  // Final stratum: whole worlds with fewer than k tuples (their Top-k answer
  // is the world itself), over the unpruned tree with centered values
  // P(t) - 1/2 so sizes compare on the uniform objective.
  SizeValueDp dp(tree, context, context.value_centered, /*threshold=*/0.0,
                 /*all_active=*/true, k - 1, &ThreadDpArena());
  for (int size = 0; size < k; ++size) {
    double v = dp.ValueAt(size);
    if (v == kNegInf) continue;
    candidates.push_back({v, dp.Reconstruct(size)});
  }
  return candidates;
}

}  // namespace

Result<TopKResult> MedianTopKSymDiffByStrata(const AndXorTree& tree,
                                             const RankDistribution& dist,
                                             int* winning_stratum) {
  if (winning_stratum != nullptr) *winning_stratum = -1;
  if (tree.NumLeaves() == 0) return Status::InvalidArgument("empty tree");
  const MedianSymDiffContext context = BuildMedianSymDiffContext(tree, dist);
  const int num_strata = static_cast<int>(context.thresholds.size()) + 1;
  std::vector<std::vector<SymDiffMedianCandidate>> per_stratum(
      static_cast<size_t>(num_strata));
  for (int s = 0; s < num_strata; ++s) {
    per_stratum[static_cast<size_t>(s)] =
        EvalMedianSymDiffStratum(tree, context, s);
  }
  // First-improvement merge in stratum order.
  double best_v = kNegInf;
  const std::vector<NodeId>* best = nullptr;
  for (int s = 0; s < num_strata; ++s) {
    for (const SymDiffMedianCandidate& c :
         per_stratum[static_cast<size_t>(s)]) {
      if (c.centered_value > best_v + kValueEps) {
        best_v = c.centered_value;
        best = &c.leaves;
        if (winning_stratum != nullptr) *winning_stratum = s;
      }
    }
  }
  if (best == nullptr) {
    return Status::Infeasible("no candidate Top-k answer found");
  }
  // Order the answer by score descending and convert leaves to keys.
  std::vector<NodeId> best_leaves = *best;
  std::sort(best_leaves.begin(), best_leaves.end(), [&](NodeId a, NodeId b) {
    return tree.node(a).leaf.score > tree.node(b).leaf.score;
  });
  TopKResult result;
  for (NodeId l : best_leaves) result.keys.push_back(tree.node(l).leaf.key);
  result.expected_distance = ExpectedTopKSymDiff(dist, result.keys);
  return result;
}

double PairPresenceProbability(const AndXorTree& tree, NodeId leaf1,
                               NodeId leaf2) {
  if (leaf1 == leaf2) return tree.LeafMarginal(leaf1);
  const NodeId root = tree.root();
  // The LCA by the two-pointer walk: each side climbs its own path, then
  // restarts at the other leaf, so both have walked the same distance when
  // they first meet, at the LCA.
  NodeId a = leaf1, b = leaf2;
  while (a != b) {
    a = a == root ? leaf2 : tree.parent(a);
    b = b == root ? leaf1 : tree.parent(b);
  }
  const NodeId lca = a;
  // Under a XOR LCA the two leaves descend through different children and
  // never coexist.
  if (tree.node(lca).kind == NodeKind::kXor) return 0.0;
  // Up-edge product over the union of the two paths: leaf1's distinct
  // part, then leaf2's, then the shared part once, each bottom-up.
  double prob = 1.0;
  for (NodeId v = leaf1; v != lca; v = tree.parent(v)) prob *= tree.up_edge(v);
  for (NodeId v = leaf2; v != lca; v = tree.parent(v)) prob *= tree.up_edge(v);
  for (NodeId v = lca; v != root; v = tree.parent(v)) prob *= tree.up_edge(v);
  return prob;
}

double ExpectedRankOfKey(const AndXorTree& tree,
                         const std::vector<double>& marginal, KeyId key) {
  const std::vector<NodeId>& leaves = tree.LeafIds();
  double e = 0.0;
  double p_present = 0.0;
  // Present case: rank = 1 + #(higher-scoring other-key leaves present).
  for (NodeId a : leaves) {
    const TupleAlternative& alt = tree.node(a).leaf;
    if (alt.key != key) continue;
    double pa = marginal[static_cast<size_t>(a)];
    p_present += pa;
    e += pa;  // the "1 +" part
    for (NodeId l : leaves) {
      const TupleAlternative& other = tree.node(l).leaf;
      if (other.key == key || other.score <= alt.score) continue;
      e += PairPresenceProbability(tree, a, l);
    }
  }
  // Absent case: rank = |pw| + 1.
  // E[(|pw| + 1) * 1(key absent)] = Pr(absent) + sum_l Pr(l present and
  // key absent), and Pr(l and key absent) = Pr(l) - sum_a Pr(l and a).
  e += 1.0 - p_present;
  for (NodeId l : leaves) {
    const TupleAlternative& other = tree.node(l).leaf;
    if (other.key == key) continue;  // l present with key absent impossible
    double p_l_and_key = 0.0;
    for (NodeId a : leaves) {
      if (tree.node(a).leaf.key != key) continue;
      p_l_and_key += PairPresenceProbability(tree, l, a);
    }
    e += marginal[static_cast<size_t>(l)] - p_l_and_key;
  }
  return e;
}

std::vector<double> ExpectedRanksByPairs(const AndXorTree& tree) {
  const std::vector<double> marginal = tree.LeafMarginals();
  std::vector<double> expected;
  for (KeyId key : tree.Keys()) {
    expected.push_back(ExpectedRankOfKey(tree, marginal, key));
  }
  return expected;
}

}  // namespace cpdb
