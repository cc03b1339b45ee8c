// Copyright 2026 The ConsensusDB Authors

#include "model/and_xor_tree.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <utility>

namespace cpdb {

namespace {
constexpr double kProbEps = 1e-9;
}  // namespace

NodeId AndXorTree::AddLeaf(const TupleAlternative& alt) {
  TreeNode n;
  n.kind = NodeKind::kLeaf;
  n.leaf = alt;
  nodes_.push_back(std::move(n));
  validated_ = false;
  return static_cast<NodeId>(nodes_.size()) - 1;
}

NodeId AndXorTree::AddAnd(std::vector<NodeId> children) {
  TreeNode n;
  n.kind = NodeKind::kAnd;
  n.children = std::move(children);
  nodes_.push_back(std::move(n));
  validated_ = false;
  return static_cast<NodeId>(nodes_.size()) - 1;
}

NodeId AndXorTree::AddXor(std::vector<NodeId> children,
                          std::vector<double> edge_probs) {
  TreeNode n;
  n.kind = NodeKind::kXor;
  n.children = std::move(children);
  n.edge_probs = std::move(edge_probs);
  nodes_.push_back(std::move(n));
  validated_ = false;
  return static_cast<NodeId>(nodes_.size()) - 1;
}

Status AndXorTree::ValidateStructure() const {
  if (root_ == kInvalidNode || root_ < 0 || root_ >= NumNodes()) {
    return Status::InvalidArgument("tree has no valid root");
  }
  std::vector<int> parent_count(nodes_.size(), 0);
  // Iterative DFS from the root; `visited` guards against sharing/cycles.
  std::vector<bool> visited(nodes_.size(), false);
  std::vector<NodeId> stack = {root_};
  visited[static_cast<size_t>(root_)] = true;
  while (!stack.empty()) {
    NodeId id = stack.back();
    stack.pop_back();
    const TreeNode& n = nodes_[static_cast<size_t>(id)];
    if (n.kind == NodeKind::kLeaf) {
      if (!n.children.empty()) {
        return Status::InvalidArgument("leaf node has children");
      }
      continue;
    }
    if (n.children.empty()) {
      return Status::InvalidArgument("inner node " + std::to_string(id) +
                                     " has no children");
    }
    if (n.kind == NodeKind::kXor) {
      if (n.edge_probs.size() != n.children.size()) {
        return Status::InvalidArgument(
            "xor node " + std::to_string(id) +
            " has mismatched children/probability counts");
      }
      double sum = 0.0;
      for (double p : n.edge_probs) {
        if (p < -kProbEps) {
          return Status::InvalidArgument("negative edge probability at node " +
                                         std::to_string(id));
        }
        sum += p;
      }
      if (sum > 1.0 + kProbEps) {
        return Status::InvalidArgument(
            "edge probabilities at xor node " + std::to_string(id) +
            " sum to " + std::to_string(sum) + " > 1");
      }
    }
    for (NodeId c : n.children) {
      if (c < 0 || c >= NumNodes()) {
        return Status::InvalidArgument("child id out of range at node " +
                                       std::to_string(id));
      }
      ++parent_count[static_cast<size_t>(c)];
      if (parent_count[static_cast<size_t>(c)] > 1) {
        return Status::InvalidArgument(
            "node " + std::to_string(c) +
            " has multiple parents; the structure must be a tree");
      }
      if (visited[static_cast<size_t>(c)]) {
        return Status::InvalidArgument("cycle detected at node " +
                                       std::to_string(c));
      }
      visited[static_cast<size_t>(c)] = true;
      stack.push_back(c);
    }
  }
  return Status::OK();
}

Status AndXorTree::ValidateKeyConstraint() const {
  // The LCA condition of Definition 1 is equivalent to: for every AND node,
  // the key sets of its children's subtrees are pairwise disjoint. We DFS
  // post-order, merging child key sets small-to-large.
  std::vector<std::set<KeyId>> key_sets(nodes_.size());
  // Post-order via two-phase stack.
  std::vector<std::pair<NodeId, bool>> stack = {{root_, false}};
  while (!stack.empty()) {
    auto [id, expanded] = stack.back();
    stack.pop_back();
    const TreeNode& n = nodes_[static_cast<size_t>(id)];
    if (!expanded) {
      stack.push_back({id, true});
      for (NodeId c : n.children) stack.push_back({c, false});
      continue;
    }
    auto& keys = key_sets[static_cast<size_t>(id)];
    if (n.kind == NodeKind::kLeaf) {
      keys.insert(n.leaf.key);
      continue;
    }
    for (NodeId c : n.children) {
      auto& child_keys = key_sets[static_cast<size_t>(c)];
      if (keys.size() < child_keys.size()) keys.swap(child_keys);
      for (KeyId k : child_keys) {
        bool inserted = keys.insert(k).second;
        if (!inserted && n.kind == NodeKind::kAnd) {
          return Status::InvalidArgument(
              "key constraint violated: key " + std::to_string(k) +
              " appears in two children of AND node " + std::to_string(id));
        }
      }
      child_keys.clear();
    }
  }
  return Status::OK();
}

Status AndXorTree::Validate() {
  CPDB_RETURN_NOT_OK(ValidateStructure());
  CPDB_RETURN_NOT_OK(ValidateKeyConstraint());
  // Rebuild the leaf index in deterministic DFS order (children
  // left-to-right) and the parent pointers.
  // Each node's up-edge probability (1.0 below an AND) rides along, for
  // the LeafMarginal and PairPresenceProbability walks.
  leaf_ids_.clear();
  parents_.assign(nodes_.size(), kInvalidNode);
  up_edge_.assign(nodes_.size(), 1.0);
  std::vector<NodeId> stack = {root_};
  while (!stack.empty()) {
    NodeId id = stack.back();
    stack.pop_back();
    const TreeNode& n = nodes_[static_cast<size_t>(id)];
    if (n.kind == NodeKind::kLeaf) {
      leaf_ids_.push_back(id);
      continue;
    }
    for (size_t i = n.children.size(); i-- > 0;) {
      const size_t c = static_cast<size_t>(n.children[i]);
      parents_[c] = id;
      up_edge_[c] = n.kind == NodeKind::kXor ? n.edge_probs[i] : 1.0;
      stack.push_back(n.children[i]);
    }
  }
  validated_ = true;
  return Status::OK();
}

std::vector<double> AndXorTree::LeafMarginals() const {
  std::vector<double> marginal(nodes_.size(), 0.0);
  if (root_ == kInvalidNode) return marginal;
  // DFS carrying the product of XOR edge probabilities on the path.
  std::vector<std::pair<NodeId, double>> stack = {{root_, 1.0}};
  while (!stack.empty()) {
    auto [id, p] = stack.back();
    stack.pop_back();
    const TreeNode& n = nodes_[static_cast<size_t>(id)];
    if (n.kind == NodeKind::kLeaf) {
      marginal[static_cast<size_t>(id)] = p;
      continue;
    }
    for (size_t i = 0; i < n.children.size(); ++i) {
      double edge = n.kind == NodeKind::kXor ? n.edge_probs[i] : 1.0;
      stack.push_back({n.children[i], p * edge});
    }
  }
  return marginal;
}

double AndXorTree::LeafMarginal(NodeId leaf) const {
  // Multiply the up-edges top-down — the accumulation order of
  // LeafMarginals()'s DFS, which is what makes the two bitwise
  // interchangeable (AND edges multiply by an exact 1.0).
  std::vector<NodeId> path;  // leaf ... the root's child
  for (NodeId v = leaf; v != root_; v = parents_[static_cast<size_t>(v)]) {
    path.push_back(v);
  }
  double p = 1.0;
  for (size_t i = path.size(); i-- > 0;) {
    p *= up_edge_[static_cast<size_t>(path[i])];
  }
  return p;
}

std::vector<KeyId> AndXorTree::Keys() const {
  std::set<KeyId> keys;
  for (NodeId l : leaf_ids_) keys.insert(node(l).leaf.key);
  return std::vector<KeyId>(keys.begin(), keys.end());
}

double AndXorTree::KeyMarginal(KeyId key) const {
  std::vector<double> marginal = LeafMarginals();
  double p = 0.0;
  for (NodeId l : leaf_ids_) {
    if (node(l).leaf.key == key) p += marginal[static_cast<size_t>(l)];
  }
  return p;
}

double AndXorTree::PairPresenceProbability(NodeId leaf1, NodeId leaf2) const {
  if (leaf1 == leaf2) return LeafMarginal(leaf1);
  auto parent = [&](NodeId v) { return parents_[static_cast<size_t>(v)]; };
  // The LCA by the two-pointer walk: each side climbs its own path, then
  // restarts at the other leaf, so both have walked the same distance when
  // they first meet, at the LCA. No depths needed.
  NodeId a = leaf1, b = leaf2;
  while (a != b) {
    a = a == root_ ? leaf2 : parent(a);
    b = b == root_ ? leaf1 : parent(b);
  }
  const NodeId lca = a;
  // If the LCA is a XOR node, the two leaves descend through different
  // children and can never coexist.
  if (node(lca).kind == NodeKind::kXor) return 0.0;

  // Product of the up-edge probabilities on the union of the two paths:
  // leaf1's distinct part, then leaf2's, then the shared part once, each
  // bottom-up (AND edges multiply by an exact 1.0).
  double prob = 1.0;
  for (NodeId v = leaf1; v != lca; v = parent(v)) {
    prob *= up_edge_[static_cast<size_t>(v)];
  }
  for (NodeId v = leaf2; v != lca; v = parent(v)) {
    prob *= up_edge_[static_cast<size_t>(v)];
  }
  for (NodeId v = lca; v != root_; v = parent(v)) {
    prob *= up_edge_[static_cast<size_t>(v)];
  }
  return prob;
}

std::string AndXorTree::ToString() const {
  std::ostringstream os;
  if (root_ == kInvalidNode) return "(empty tree)";
  // Pre-order with indentation.
  std::vector<std::pair<NodeId, int>> stack = {{root_, 0}};
  while (!stack.empty()) {
    auto [id, depth] = stack.back();
    stack.pop_back();
    const TreeNode& n = nodes_[static_cast<size_t>(id)];
    for (int i = 0; i < depth; ++i) os << "  ";
    switch (n.kind) {
      case NodeKind::kLeaf:
        os << "leaf key=" << n.leaf.key << " score=" << n.leaf.score;
        if (n.leaf.label >= 0) os << " label=" << n.leaf.label;
        os << "\n";
        break;
      case NodeKind::kAnd:
        os << "and\n";
        break;
      case NodeKind::kXor:
        os << "xor";
        for (double p : n.edge_probs) os << " " << p;
        os << "\n";
        break;
    }
    for (auto it = n.children.rbegin(); it != n.children.rend(); ++it) {
      stack.push_back({*it, depth + 1});
    }
  }
  return os.str();
}

}  // namespace cpdb
