// Copyright 2026 The ConsensusDB Authors

#include "core/jaccard.h"

#include <algorithm>
#include <set>

#include "model/flat_tree.h"

namespace cpdb {

namespace {

// Lemma 1 over an already compiled tree, so a prefix scan compiles once.
double ExpectedJaccardDistance(const FlatTree& flat,
                               const std::vector<NodeId>& world) {
  std::set<NodeId> in_world(world.begin(), world.end());
  int w = static_cast<int>(world.size());
  int out = flat.num_leaves() - w;
  // x tags leaves of W, y tags the rest; the coefficient of x^i y^j is the
  // probability that |pw ∩ W| = i and |pw \ W| = j, hence
  // d_J = (|W| - i + j) / (|W| + j). Rows have shape (w+1) × (out+1),
  // row-major: Index(i, j) = i * (out + 1) + j; a monomial beyond the
  // bounds (-1) is the zero polynomial.
  const std::vector<FlatLeaf>& leaves = flat.leaves();
  const double* f = FlatRefold::FoldOnce(
      flat, w, out,
      [&](int i) {
        if (in_world.count(leaves[static_cast<size_t>(i)].node) > 0) {
          return w >= 1 ? out + 1 : -1;  // x = x^1 y^0
        }
        return out >= 1 ? 1 : -1;  // y = x^0 y^1
      },
      &FlatRefoldScratch());
  double expected = 0.0;
  for (int i = 0; i <= w; ++i) {
    for (int j = 0; j <= out; ++j) {
      double c = f[static_cast<size_t>(i) * static_cast<size_t>(out + 1) +
                   static_cast<size_t>(j)];
      if (c == 0.0) continue;
      double uni = static_cast<double>(w + j);
      if (uni == 0.0) continue;  // W = pw = empty set: distance 0
      expected += c * static_cast<double>(w - i + j) / uni;
    }
  }
  return expected;
}

}  // namespace

double ExpectedJaccardDistance(const AndXorTree& tree,
                               const std::vector<NodeId>& world) {
  return ExpectedJaccardDistance(FlatTree::Compile(tree), world);
}

namespace {

// Shape check shared by IsTupleIndependent / IsBlockIndependent. Each block
// must be a XOR of leaves; `single_leaf_blocks` additionally requires one
// alternative per block.
bool HasBlockShape(const AndXorTree& tree, bool single_leaf_blocks) {
  const TreeNode& root = tree.node(tree.root());
  std::vector<NodeId> blocks;
  if (root.kind == NodeKind::kXor) {
    blocks = {tree.root()};
  } else if (root.kind == NodeKind::kAnd) {
    blocks = root.children;
  } else {
    return false;
  }
  for (NodeId b : blocks) {
    const TreeNode& block = tree.node(b);
    if (block.kind != NodeKind::kXor) return false;
    if (single_leaf_blocks && block.children.size() != 1) return false;
    KeyId key = 0;
    bool first = true;
    for (NodeId c : block.children) {
      const TreeNode& child = tree.node(c);
      if (child.kind != NodeKind::kLeaf) return false;
      if (single_leaf_blocks) {
        if (!first && child.leaf.key != key) return false;
        key = child.leaf.key;
        first = false;
      }
    }
  }
  return true;
}

// Returns the prefix (by the given leaf order) minimizing the expected
// Jaccard distance, including the empty prefix.
std::vector<NodeId> BestPrefix(const AndXorTree& tree,
                               const std::vector<NodeId>& order) {
  const FlatTree flat = FlatTree::Compile(tree);
  std::vector<NodeId> best;
  double best_cost = ExpectedJaccardDistance(flat, {});
  std::vector<NodeId> prefix;
  for (NodeId id : order) {
    prefix.push_back(id);
    std::vector<NodeId> sorted = prefix;
    std::sort(sorted.begin(), sorted.end());
    double cost = ExpectedJaccardDistance(flat, sorted);
    if (cost < best_cost) {
      best_cost = cost;
      best = sorted;
    }
  }
  return best;
}

}  // namespace

bool IsTupleIndependent(const AndXorTree& tree) {
  return HasBlockShape(tree, /*single_leaf_blocks=*/true);
}

bool IsBlockIndependent(const AndXorTree& tree) {
  return HasBlockShape(tree, /*single_leaf_blocks=*/false);
}

Result<std::vector<NodeId>> MeanWorldJaccard(const AndXorTree& tree) {
  if (!IsTupleIndependent(tree)) {
    return Status::InvalidArgument(
        "MeanWorldJaccard requires a tuple-independent database (Lemma 2)");
  }
  std::vector<double> marginal = tree.LeafMarginals();
  std::vector<NodeId> order = tree.LeafIds();
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return marginal[static_cast<size_t>(a)] > marginal[static_cast<size_t>(b)];
  });
  return BestPrefix(tree, order);
}

Result<std::vector<NodeId>> MedianWorldJaccardBid(const AndXorTree& tree) {
  if (!IsBlockIndependent(tree)) {
    return Status::InvalidArgument(
        "MedianWorldJaccardBid requires a block-independent database");
  }
  // Highest-probability alternative per block, then the Lemma 2 prefix scan
  // over blocks sorted by that probability.
  std::vector<double> marginal = tree.LeafMarginals();
  const TreeNode& root = tree.node(tree.root());
  std::vector<NodeId> blocks =
      root.kind == NodeKind::kXor ? std::vector<NodeId>{tree.root()} : root.children;
  std::vector<NodeId> representatives;
  for (NodeId b : blocks) {
    const TreeNode& block = tree.node(b);
    NodeId best_leaf = kInvalidNode;
    double best_p = 0.0;
    for (NodeId c : block.children) {
      double p = marginal[static_cast<size_t>(c)];
      if (p > best_p) {
        best_p = p;
        best_leaf = c;
      }
    }
    if (best_leaf != kInvalidNode) representatives.push_back(best_leaf);
  }
  std::sort(representatives.begin(), representatives.end(),
            [&](NodeId a, NodeId b) {
              return marginal[static_cast<size_t>(a)] >
                     marginal[static_cast<size_t>(b)];
            });
  return BestPrefix(tree, representatives);
}

}  // namespace cpdb
