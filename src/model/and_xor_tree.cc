// Copyright 2026 The ConsensusDB Authors

#include "model/and_xor_tree.h"

#include <algorithm>
#include <cmath>
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

Status AndXorTree::Validate() {
  validated_ = false;
  CPDB_RETURN_NOT_OK(CheckConstraints());
  BuildIndex();
  return Status::OK();
}

Status AndXorTree::CheckConstraints() const {
  if (root_ == kInvalidNode || root_ < 0 || root_ >= NumNodes()) {
    return Status::InvalidArgument("tree has no valid root");
  }
  // One DFS from the root, children left to right, checks all of
  // Definition 1:
  //  * structure — every node is entered at most once (a second arrival
  //    means sharing or a cycle), inner nodes have children, XOR nodes one
  //    probability per child, finite, non-negative and summing to at most
  //    1, and leaf scores are finite (score orders need a total order);
  //  * keys — the LCA of two leaves holding the same key is a XOR node.
  //    Checking each leaf against the previous leaf of its key in DFS
  //    order is enough: the LCA of any same-key pair is the shallowest LCA
  //    of the consecutive pairs between them. Those LCAs come from a
  //    union-find over finished nodes (Tarjan's offline LCA): a finished
  //    node links to its parent, so when a leaf is entered, Find(previous
  //    leaf of its key) is that leaf's nearest ancestor still on the DFS
  //    path — their LCA.
  const size_t size = nodes_.size();

  // Dense key slots, so "previous leaf of this key" is an array read.
  std::vector<std::pair<KeyId, NodeId>> by_key;
  by_key.reserve(size);
  for (NodeId id = 0; id < NumNodes(); ++id) {
    const TreeNode& n = nodes_[static_cast<size_t>(id)];
    if (n.kind == NodeKind::kLeaf) by_key.emplace_back(n.leaf.key, id);
  }
  std::sort(by_key.begin(), by_key.end());
  std::vector<int32_t> key_slot(size, 0);
  int32_t slots = 0;
  for (size_t i = 0; i < by_key.size(); ++i) {
    if (i > 0 && by_key[i].first != by_key[i - 1].first) ++slots;
    key_slot[static_cast<size_t>(by_key[i].second)] = slots;
  }
  std::vector<NodeId> last_leaf(static_cast<size_t>(slots) + 1, kInvalidNode);

  // kInvalidNode: not entered yet; itself: on the DFS path; else a finished
  // node's link toward its nearest ancestor on the path.
  std::vector<NodeId> link(size, kInvalidNode);
  auto find = [&link](NodeId v) {
    while (link[static_cast<size_t>(v)] != v) {
      NodeId& up = link[static_cast<size_t>(v)];
      up = link[static_cast<size_t>(up)];  // path halving
      v = up;
    }
    return v;
  };

  // DFS frames: (inner node, position of the next child to enter).
  std::vector<std::pair<NodeId, size_t>> stack;
  auto enter = [&](NodeId id, NodeId parent) -> Status {
    const TreeNode& n = nodes_[static_cast<size_t>(id)];
    if (n.kind == NodeKind::kLeaf) {
      if (!n.children.empty()) {
        return Status::InvalidArgument("leaf node has children");
      }
      if (!std::isfinite(n.leaf.score)) {
        return Status::InvalidArgument("non-finite score at leaf " +
                                       std::to_string(id));
      }
      NodeId& last = last_leaf[static_cast<size_t>(
          key_slot[static_cast<size_t>(id)])];
      if (last != kInvalidNode) {
        const NodeId lca = find(last);
        if (nodes_[static_cast<size_t>(lca)].kind == NodeKind::kAnd) {
          return Status::InvalidArgument(
              "key constraint violated: key " + std::to_string(n.leaf.key) +
              " appears in two children of AND node " + std::to_string(lca));
        }
      }
      last = id;
      // A leaf finishes as soon as it is entered.
      link[static_cast<size_t>(id)] = parent == kInvalidNode ? id : parent;
      return Status::OK();
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
        if (!std::isfinite(p)) {
          return Status::InvalidArgument(
              "non-finite edge probability at node " + std::to_string(id));
        }
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
    link[static_cast<size_t>(id)] = id;
    stack.emplace_back(id, 0);
    return Status::OK();
  };

  CPDB_RETURN_NOT_OK(enter(root_, kInvalidNode));
  while (!stack.empty()) {
    const NodeId id = stack.back().first;
    const std::vector<NodeId>& children =
        nodes_[static_cast<size_t>(id)].children;
    const size_t next = stack.back().second++;
    if (next == children.size()) {
      stack.pop_back();
      if (!stack.empty()) link[static_cast<size_t>(id)] = stack.back().first;
      continue;
    }
    const NodeId c = children[next];
    if (c < 0 || c >= NumNodes()) {
      return Status::InvalidArgument("child id out of range at node " +
                                     std::to_string(id));
    }
    if (link[static_cast<size_t>(c)] != kInvalidNode) {
      return Status::InvalidArgument(
          c == root_ ? "cycle detected at node " + std::to_string(c)
                     : "node " + std::to_string(c) +
                           " has multiple parents; the structure must be a "
                           "tree");
    }
    CPDB_RETURN_NOT_OK(enter(c, id));
  }
  return Status::OK();
}

void AndXorTree::BuildIndex() {
  // Rebuild the leaf index in deterministic DFS order (children
  // left-to-right) and the parent pointers.
  // Each node's up-edge probability (1.0 below an AND) rides along, for
  // the score-ordered scans' path updates.
  leaf_ids_.clear();
  leaf_ids_.reserve(static_cast<size_t>(
      std::count_if(nodes_.begin(), nodes_.end(), [](const TreeNode& n) {
        return n.kind == NodeKind::kLeaf;
      })));
  parents_.assign(nodes_.size(), kInvalidNode);
  up_edge_.assign(nodes_.size(), 1.0);
  std::vector<NodeId> stack;
  stack.reserve(nodes_.size());
  stack.push_back(root_);
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

std::vector<KeyId> AndXorTree::Keys() const {
  std::vector<KeyId> keys;
  keys.reserve(leaf_ids_.size());
  for (NodeId l : leaf_ids_) keys.push_back(node(l).leaf.key);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

double AndXorTree::KeyMarginal(KeyId key) const {
  std::vector<double> marginal = LeafMarginals();
  double p = 0.0;
  for (NodeId l : leaf_ids_) {
    if (node(l).leaf.key == key) p += marginal[static_cast<size_t>(l)];
  }
  return p;
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
