// Copyright 2026 The ConsensusDB Authors
//
// The probabilistic and/xor tree (Definition 1 of the paper): a tree whose
// leaves are tuple alternatives and whose inner nodes are marked AND
// (co-existence: the union of the children's random sets) or XOR (mutual
// exclusion: one child chosen with its edge probability, or nothing with the
// leftover probability). The model strictly generalizes tuple-independent
// tables, x-tuples / p-or-sets, and block-independent disjoint (BID) tables.

#ifndef CPDB_MODEL_AND_XOR_TREE_H_
#define CPDB_MODEL_AND_XOR_TREE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "model/types.h"

namespace cpdb {

/// \brief Kind of a tree node.
enum class NodeKind { kLeaf, kAnd, kXor };

/// \brief Index of a node within its AndXorTree.
using NodeId = int32_t;

inline constexpr NodeId kInvalidNode = -1;

/// \brief One node of an and/xor tree.
struct TreeNode {
  NodeKind kind = NodeKind::kLeaf;
  /// Payload; meaningful only when kind == kLeaf.
  TupleAlternative leaf;
  /// Child node ids; meaningful only for inner nodes.
  std::vector<NodeId> children;
  /// Edge probabilities Pr(u, v) parallel to `children`; meaningful only for
  /// XOR nodes. The leftover 1 - sum produces the empty set.
  std::vector<double> edge_probs;
};

/// \brief A probabilistic and/xor tree.
///
/// Built incrementally with AddLeaf / AddAnd / AddXor, then sealed with
/// SetRoot. Validate() checks Definition 1's constraints:
///  * probability constraint — XOR edge probabilities are finite,
///    non-negative and sum to at most 1 per node;
///  * key constraint — the LCA of two leaves holding the same key is an XOR
///    node (equivalently: the children of an AND node span disjoint key
///    sets);
///  * structural sanity — the nodes reachable from the root form a tree
///    (every node has at most one parent), inner nodes have children, and
///    XOR nodes have one probability per child;
///  * finite scores — every leaf score is finite, so score orders (the rank
///    scans' sorts) are total.
class AndXorTree {
 public:
  AndXorTree() = default;

  /// \brief Adds a leaf holding `alt`; returns its NodeId.
  NodeId AddLeaf(const TupleAlternative& alt);

  /// \brief Adds an AND node over existing nodes; returns its NodeId.
  NodeId AddAnd(std::vector<NodeId> children);

  /// \brief Adds a XOR node over existing nodes with the given edge
  /// probabilities (parallel vectors); returns its NodeId.
  NodeId AddXor(std::vector<NodeId> children, std::vector<double> edge_probs);

  /// \brief Reserves room for `n` nodes, so a builder that knows its node
  /// count up front (ParseTree) grows the node array once.
  void ReserveNodes(size_t n) { nodes_.reserve(n); }

  void SetRoot(NodeId root) {
    root_ = root;
    validated_ = false;
  }
  NodeId root() const { return root_; }

  const TreeNode& node(NodeId id) const {
    return nodes_[static_cast<size_t>(id)];
  }
  int NumNodes() const { return static_cast<int>(nodes_.size()); }

  /// \brief Node ids of all leaves reachable from the root, in DFS order.
  const std::vector<NodeId>& LeafIds() const { return leaf_ids_; }
  int NumLeaves() const { return static_cast<int>(leaf_ids_.size()); }

  /// \brief Checks all Definition 1 constraints; also (re)computes the leaf
  /// index. Must be called (and succeed) before using the query helpers
  /// below.
  Status Validate();

  /// \brief Whether the last Validate() succeeded and the tree has not
  /// changed since: Add* and SetRoot clear it. Loaders check it so a tree
  /// is validated once however many layers it passes through.
  bool validated() const { return validated_; }

  /// \brief Pr(leaf present): the product of the XOR edge probabilities on
  /// the root-to-leaf path. Indexed by NodeId; non-leaf entries are 0.
  /// Requires a prior successful Validate().
  std::vector<double> LeafMarginals() const;

  /// \brief Pr(`leaf` present) for a single leaf, multiplying the XOR edge
  /// probabilities root-to-leaf — the same order as LeafMarginals(), so the
  /// value is bitwise identical to LeafMarginals()[leaf]. O(path length)
  /// per call. Requires a prior successful Validate().
  double LeafMarginal(NodeId leaf) const;

  /// \brief Distinct keys appearing in the tree, sorted ascending.
  std::vector<KeyId> Keys() const;

  /// \brief Pr(some alternative of `key` is present); the per-leaf marginals
  /// of a key sum because its alternatives are mutually exclusive (key
  /// constraint).
  double KeyMarginal(KeyId key) const;

  /// \brief The parent of a reachable node (kInvalidNode for the root).
  /// Requires a prior successful Validate().
  NodeId parent(NodeId id) const { return parents_[static_cast<size_t>(id)]; }

  /// \brief The probability of the edge from a reachable node's parent:
  /// its XOR edge probability, or 1.0 under an AND and at the root.
  /// Requires a prior successful Validate().
  double up_edge(NodeId id) const { return up_edge_[static_cast<size_t>(id)]; }

  /// \brief Multi-line debug rendering of the tree.
  std::string ToString() const;

 private:
  // The canonical orientation of a validated tree is a child-list
  // permutation of it, valid by construction: model/canonical.cc reorders
  // a tree's nodes into it and seals it with BuildIndex, without re-running
  // the checks.
  friend class Canonicalizer;

  // All Definition 1 checks, in one DFS.
  Status CheckConstraints() const;
  // Fills leaf_ids_, parents_ and up_edge_ and marks the tree validated;
  // the caller vouches that the Definition 1 checks hold.
  void BuildIndex();

  std::vector<TreeNode> nodes_;
  NodeId root_ = kInvalidNode;
  std::vector<NodeId> leaf_ids_;   // filled by Validate()
  std::vector<NodeId> parents_;    // filled by Validate(); root's parent is
                                   // kInvalidNode
  std::vector<double> up_edge_;    // filled by Validate(): the probability
                                   // of the edge from the parent (1.0
                                   // under an AND and at the root)
  bool validated_ = false;
};

}  // namespace cpdb

#endif  // CPDB_MODEL_AND_XOR_TREE_H_
