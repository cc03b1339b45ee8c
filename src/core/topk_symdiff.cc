// Copyright 2026 The ConsensusDB Authors

#include "core/topk_symdiff.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <utility>

#include "common/math_utils.h"

namespace cpdb {

double ExpectedTopKSymDiff(const RankDistribution& dist,
                           const std::vector<KeyId>& answer) {
  double sum_all = 0.0;
  for (KeyId key : dist.keys()) sum_all += dist.PrTopK(key);
  double sum_answer = 0.0;
  for (KeyId key : answer) sum_answer += dist.PrTopK(key);
  return (static_cast<double>(answer.size()) + sum_all - 2.0 * sum_answer) /
         (2.0 * dist.k());
}

TopKResult MeanTopKSymDiff(const RankDistribution& dist) {
  std::vector<KeyId> keys = dist.keys();
  std::stable_sort(keys.begin(), keys.end(), [&](KeyId a, KeyId b) {
    return dist.PrTopK(a) > dist.PrTopK(b);
  });
  TopKResult result;
  size_t take = std::min<size_t>(keys.size(), static_cast<size_t>(dist.k()));
  result.keys.assign(keys.begin(), keys.begin() + take);
  result.expected_distance = ExpectedTopKSymDiff(dist, result.keys);
  return result;
}

TopKResult MeanTopKSymDiffUnrestricted(const RankDistribution& dist) {
  // E[d_Delta] = (|tau| + sum_t P(t) - 2 sum_{t in tau} P(t)) / 2k, so a
  // tuple helps exactly when P(t) > 1/2; no size constraint applies.
  std::vector<KeyId> keys;
  for (KeyId key : dist.keys()) {
    if (dist.PrTopK(key) > 0.5) keys.push_back(key);
  }
  std::stable_sort(keys.begin(), keys.end(), [&](KeyId a, KeyId b) {
    return dist.PrTopK(a) > dist.PrTopK(b);
  });
  TopKResult result;
  result.keys = std::move(keys);
  result.expected_distance = ExpectedTopKSymDiff(dist, result.keys);
  return result;
}

namespace {

constexpr double kValueEps = 1e-9;
constexpr double kPosInf = std::numeric_limits<double>::infinity();

// The median search's inputs, computed once per query (one distinct-score
// scan and one PrTopK sweep): the Theorem 4 thresholds ascending, the
// per-node DP values Pr(r(t) <= k) and their centered form
// Pr(r(t) <= k) - 1/2 (leaves only; other nodes 0). It also fixes the DP's
// flat layout: the reachable nodes children-first, each node's first row in
// the thread's DP arena (an AND node owns one row per child, the running
// max-plus prefix), and each node's position among its parent's children,
// where the scan's path updates restart an AND node's prefix.
struct MedianSymDiffContext {
  int k = 0;
  std::vector<double> thresholds;
  std::vector<double> value_p;
  std::vector<double> value_centered;
  std::vector<NodeId> post_order;
  std::vector<int32_t> dp_row;     // indexed by NodeId; -1 if unreachable
  std::vector<int32_t> child_pos;  // indexed by NodeId; 0 for the root
  int32_t dp_rows = 0;
};

MedianSymDiffContext BuildMedianSymDiffContext(const AndXorTree& tree,
                                               const RankDistribution& dist) {
  MedianSymDiffContext context;
  context.k = dist.k();
  // Distinct leaf scores ascending: the Theorem 4 thresholds, in the order
  // the first-improvement merge considers them.
  std::set<double> scores;
  for (NodeId l : tree.LeafIds()) scores.insert(tree.node(l).leaf.score);
  context.thresholds.assign(scores.begin(), scores.end());
  // The DP layout: nodes children-first, and each node's first DP row (an
  // AND node takes one row per child).
  context.dp_row.assign(static_cast<size_t>(tree.NumNodes()), -1);
  context.child_pos.assign(static_cast<size_t>(tree.NumNodes()), 0);
  std::vector<std::pair<NodeId, bool>> stack;
  if (tree.root() != kInvalidNode) stack.push_back({tree.root(), false});
  while (!stack.empty()) {
    auto [id, expanded] = stack.back();
    stack.pop_back();
    const TreeNode& n = tree.node(id);
    if (!expanded) {
      stack.push_back({id, true});
      for (size_t i = 0; i < n.children.size(); ++i) {
        context.child_pos[static_cast<size_t>(n.children[i])] =
            static_cast<int32_t>(i);
        stack.push_back({n.children[i], false});
      }
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

// Flat storage for SizeValueDp: one row of cap + 1 values (and XOR
// choices) per row of the context's DP layout. Grow-only and one per
// thread, so a thread's searches after its first allocate nothing.
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
        leaf_value_(leaf_value),
        threshold_(threshold),
        all_active_(all_active),
        stride_(static_cast<size_t>(max_size) + 1),
        arena_(arena) {
    const size_t need = static_cast<size_t>(context_.dp_rows) * stride_;
    if (arena_->val.size() < need) {
      arena_->val.resize(need);
      arena_->xor_choice.resize(need);
    }
    for (NodeId id : context_.post_order) ComputeNode(id, 0);
  }

  // Lowers the threshold to `leaf`'s score, activating it, and recomputes
  // the rows that read it: its own, then on each ancestor a XOR node's row
  // or an AND node's prefix rows from the child on the path onward. Leaves
  // must come in descending score order; once every leaf scoring at least
  // t is in, every row is bitwise the full DP's at threshold t.
  void Activate(NodeId leaf) {
    threshold_ = tree_.node(leaf).leaf.score;
    ComputeNode(leaf, 0);
    for (NodeId v = leaf; v != tree_.root(); v = tree_.parent(v)) {
      ComputeNode(tree_.parent(v),
                  static_cast<size_t>(
                      context_.child_pos[static_cast<size_t>(v)]));
    }
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

  // Computes node `id`'s rows from its children's current rows; an AND
  // node's prefix rows only from child `from` on (the rows before it read
  // unchanged children). The one per-node step of the full DP and of
  // Activate.
  void ComputeNode(NodeId id, size_t from) {
    const TreeNode& n = tree_.node(id);
    double* val = Row(FirstRow(id));
    const size_t cap = stride_ - 1;
    switch (n.kind) {
      case NodeKind::kLeaf: {
        std::fill(val, val + stride_, kNegInf);
        if (all_active_ || n.leaf.score >= threshold_) {
          if (cap >= 1) val[1] = leaf_value_[static_cast<size_t>(id)];
        } else {
          val[0] = 0.0;  // pruned leaf: contributes nothing
        }
        break;
      }
      case NodeKind::kAnd: {
        if (from == 0) {
          const double* first = Val(n.children[0]);
          std::copy(first, first + stride_, val);
          from = 1;
        }
        for (size_t i = from; i < n.children.size(); ++i) {
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
  const std::vector<double>& leaf_value_;
  double threshold_;
  bool all_active_;
  size_t stride_;
  DpArena* arena_;
};

}  // namespace

Result<TopKResult> MedianTopKSymDiff(const AndXorTree& tree,
                                     const RankDistribution& dist) {
  if (tree.NumLeaves() == 0) return Status::InvalidArgument("empty tree");
  const MedianSymDiffContext context = BuildMedianSymDiffContext(tree, dist);
  const int k = context.k;
  if (k < 1) return Status::Infeasible("no candidate Top-k answer found");
  const std::vector<double>& thresholds = context.thresholds;
  DpArena& arena = ThreadDpArena();

  // Size-k candidates above each score threshold (Theorem 4): a size-k
  // world of the pruned tree is exactly the Top-k of a realizable full
  // world. DP values are P(t) = Pr(r(t) <= k); one DP starts with every
  // leaf pruned and takes the leaves in descending score, and after each
  // tie group it holds the full DP at that group's threshold.
  std::vector<double> stratum_value(thresholds.size(), kNegInf);
  {
    std::vector<NodeId> order = tree.LeafIds();
    auto score = [&](NodeId l) { return tree.node(l).leaf.score; };
    std::sort(order.begin(), order.end(),
              [&](NodeId a, NodeId b) { return score(a) > score(b); });
    SizeValueDp scan(tree, context, context.value_p, kPosInf,
                     /*all_active=*/false, k, &arena);
    size_t num_active = 0;
    for (size_t s = thresholds.size(); s-- > 0;) {
      while (num_active < order.size() &&
             score(order[num_active]) >= thresholds[s]) {
        scan.Activate(order[num_active++]);
      }
      if (num_active < static_cast<size_t>(k)) continue;
      const double v = scan.ValueAt(k);
      if (v != kNegInf) stratum_value[s] = v - 0.5 * k;
    }
  }

  // Whole worlds with fewer than k tuples (their Top-k answer is the world
  // itself), over the unpruned tree with centered values P(t) - 1/2 so
  // sizes compare on the uniform objective.
  SizeValueDp small(tree, context, context.value_centered, /*threshold=*/0.0,
                    /*all_active=*/true, k - 1, &arena);

  // First-improvement merge: thresholds ascending, then the small-world
  // sizes ascending.
  double best_v = kNegInf;
  size_t best_stratum = thresholds.size();
  int best_size = -1;
  for (size_t s = 0; s < thresholds.size(); ++s) {
    if (stratum_value[s] > best_v + kValueEps) {
      best_v = stratum_value[s];
      best_stratum = s;
    }
  }
  for (int size = 0; size < k; ++size) {
    if (small.ValueAt(size) > best_v + kValueEps) {
      best_v = small.ValueAt(size);
      best_size = size;
    }
  }
  std::vector<NodeId> best_leaves;
  if (best_size >= 0) {
    best_leaves = small.Reconstruct(best_size);
  } else if (best_stratum < thresholds.size()) {
    SizeValueDp dp(tree, context, context.value_p, thresholds[best_stratum],
                   /*all_active=*/false, k, &arena);
    best_leaves = dp.Reconstruct(k);
  } else {
    return Status::Infeasible("no candidate Top-k answer found");
  }

  // Order the answer by score descending (its rank order in the witnessing
  // world) and convert leaves to keys.
  std::sort(best_leaves.begin(), best_leaves.end(), [&](NodeId a, NodeId b) {
    return tree.node(a).leaf.score > tree.node(b).leaf.score;
  });
  TopKResult result;
  for (NodeId l : best_leaves) result.keys.push_back(tree.node(l).leaf.key);
  result.expected_distance = ExpectedTopKSymDiff(dist, result.keys);
  return result;
}

}  // namespace cpdb
