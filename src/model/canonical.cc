// Copyright 2026 The ConsensusDB Authors

#include "model/canonical.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "io/tree_text.h"

namespace cpdb {
namespace {

uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Hash helpers feed bytes in explicit little-endian order so the structural
// hash — and therefore the canonical orientation it induces — is identical
// across platforms, matching the portability contract of ContentFp.
uint64_t HashByte(uint64_t h, unsigned char b) { return Fnv1a64(&b, 1, h); }

uint64_t HashU32(uint64_t h, uint32_t v) {
  unsigned char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  return Fnv1a64(b, sizeof(b), h);
}

uint64_t HashU64(uint64_t h, uint64_t v) {
  unsigned char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  return Fnv1a64(b, sizeof(b), h);
}

}  // namespace

// Bottom-up pass over one tree: for every reachable node, the structural
// hash of its subtree and (for inner nodes) the canonical permutation of its
// child positions. Then one more walk renumbers the tree into its
// canonical orientation. (Outside the anonymous namespace: AndXorTree
// befriends it, to reorder a tree's nodes and seal the result without
// re-validating it.)
class Canonicalizer {
 public:
  explicit Canonicalizer(const AndXorTree& tree)
      : tree_(tree),
        hash_(static_cast<size_t>(tree.NumNodes())),
        order_at_(static_cast<size_t>(tree.NumNodes())),
        moved_(static_cast<size_t>(tree.NumNodes())) {
    // Every child position of every node fits: no reallocation mid-Visit.
    order_.reserve(static_cast<size_t>(tree.NumNodes()));
  }

  void Visit(NodeId id) {
    const TreeNode& n = tree_.node(id);
    const size_t i = static_cast<size_t>(id);
    if (n.kind == NodeKind::kLeaf) {
      uint64_t h = HashByte(kFnv1a64OffsetBasis, 'L');
      h = HashU32(h, static_cast<uint32_t>(n.leaf.key));
      h = HashU64(h, DoubleBits(n.leaf.score));
      hash_[i] = HashU32(h, static_cast<uint32_t>(n.leaf.label));
      CountPostOrder(id);
      return;
    }
    bool moved = false;
    for (NodeId child : n.children) {
      Visit(child);
      moved = moved || moved_[static_cast<size_t>(child)];
    }
    CountPostOrder(id);
    const size_t width = n.children.size();
    order_at_[i] = order_.size();
    for (size_t k = 0; k < width; ++k) order_.push_back(static_cast<int>(k));
    int* order = order_.data() + order_at_[i];
    std::sort(order, order + width, [&](int x, int y) {
      const NodeId cx = n.children[static_cast<size_t>(x)];
      const NodeId cy = n.children[static_cast<size_t>(y)];
      const uint64_t hx = hash_[static_cast<size_t>(cx)];
      const uint64_t hy = hash_[static_cast<size_t>(cy)];
      if (hx != hy) return hx < hy;
      const int c = Compare(cx, cy);
      if (c != 0) return c < 0;
      if (n.kind == NodeKind::kXor) {
        const uint64_t px = DoubleBits(n.edge_probs[static_cast<size_t>(x)]);
        const uint64_t py = DoubleBits(n.edge_probs[static_cast<size_t>(y)]);
        if (px != py) return px < py;
      }
      // Identical (probability, subtree) pairs: keep input order, making the
      // sort the identity permutation on an already-canonical node.
      return x < y;
    });
    uint64_t h = HashByte(kFnv1a64OffsetBasis,
                          n.kind == NodeKind::kAnd ? 'A' : 'X');
    for (size_t k = 0; k < width; ++k) {
      const size_t idx = static_cast<size_t>(order[k]);
      moved = moved || idx != k;
      if (n.kind == NodeKind::kXor) {
        h = HashU64(h, DoubleBits(n.edge_probs[idx]));
      }
      h = HashU64(h, hash_[static_cast<size_t>(n.children[idx])]);
    }
    hash_[i] = h;
    moved_[i] = moved;
  }

  // Whether the visited input is its own canonical form: no child list
  // moved, and the walk below would number every node as the input already
  // does, so it would rebuild an identical tree.
  bool unchanged() const {
    return !moved_[static_cast<size_t>(tree_.root())] && !renumbered_ &&
           next_id_ == tree_.NumNodes();
  }

  // Records where each node's text lies in `content`, the input's
  // single-line serialization (FormatTree(input, false)), so the canonical
  // bytes can be assembled from its pieces instead of formatting every
  // number again: they are the same tokens in another order.
  void Locate(std::string_view content) {
    content_ = content;
    const size_t nodes = static_cast<size_t>(tree_.NumNodes());
    begin_.assign(nodes, 0);
    end_.assign(nodes, 0);
    prob_begin_.assign(nodes, 0);
    Locate(tree_.root(), 0);
  }

  // Rewrites `*tree` — the tree this canonicalizer visited, consumed here —
  // into its canonical orientation. Its nodes and child lists are reused:
  // each list is permuted in place and the nodes renumbered in canonical
  // post-order, so no node is rebuilt. The result is sealed without another
  // Definition 1 check, being a child-list permutation of a validated tree.
  // With `bytes` (after Locate), its single-line serialization is appended
  // by the numbering walk.
  Result<AndXorTree> Reorient(AndXorTree* tree, std::string* bytes) {
    assert(tree == &tree_);
    const size_t size = tree->nodes_.size();
    new_id_.assign(size, kInvalidNode);
    NodeId next = 0;
    Number(tree_.root(), &next, bytes);
    AndXorTree out;
    out.nodes_.resize(static_cast<size_t>(next));
    std::vector<NodeId> children;
    std::vector<double> probs;
    for (size_t old = 0; old < size; ++old) {
      const NodeId id = new_id_[old];
      if (id == kInvalidNode) continue;  // not reachable from the root
      TreeNode& n = tree->nodes_[old];
      const int* perm = order(static_cast<NodeId>(old));
      children.assign(n.children.begin(), n.children.end());
      for (size_t k = 0; k < children.size(); ++k) {
        n.children[k] = new_id_[static_cast<size_t>(
            children[static_cast<size_t>(perm[k])])];
      }
      if (n.kind == NodeKind::kXor) {
        probs.assign(n.edge_probs.begin(), n.edge_probs.end());
        for (size_t k = 0; k < probs.size(); ++k) {
          n.edge_probs[k] = probs[static_cast<size_t>(perm[k])];
        }
      }
      out.nodes_[static_cast<size_t>(id)] = std::move(n);
    }
    out.SetRoot(new_id_[static_cast<size_t>(tree_.root())]);
    out.BuildIndex();
#ifndef NDEBUG
    // Debug builds re-run the checks the permutation argument skips.
    AndXorTree check = out;
    Status st = check.Validate();
    if (!st.ok()) {
      return Status::Internal("canonicalized tree failed validation: " +
                              st.message());
    }
    if (bytes != nullptr && FormatTree(out) != *bytes) {
      return Status::Internal("canonical bytes do not serialize the tree");
    }
#endif
    return out;
  }

 private:
  // The canonical permutation of `id`'s child positions.
  const int* order(NodeId id) const {
    return order_.data() + order_at_[static_cast<size_t>(id)];
  }

  // Deterministic total order on subtrees in canonical orientation; returns
  // 0 only for structurally identical subtrees (same canonical bytes), so a
  // hash tie between distinct structures still sorts deterministically.
  int Compare(NodeId a, NodeId b) const {
    const TreeNode& na = tree_.node(a);
    const TreeNode& nb = tree_.node(b);
    if (na.kind != nb.kind) {
      return static_cast<int>(na.kind) < static_cast<int>(nb.kind) ? -1 : 1;
    }
    if (na.kind == NodeKind::kLeaf) {
      if (na.leaf.key != nb.leaf.key) {
        return na.leaf.key < nb.leaf.key ? -1 : 1;
      }
      const uint64_t sa = DoubleBits(na.leaf.score);
      const uint64_t sb = DoubleBits(nb.leaf.score);
      if (sa != sb) return sa < sb ? -1 : 1;
      if (na.leaf.label != nb.leaf.label) {
        return na.leaf.label < nb.leaf.label ? -1 : 1;
      }
      return 0;
    }
    if (na.children.size() != nb.children.size()) {
      return na.children.size() < nb.children.size() ? -1 : 1;
    }
    const int* oa = order(a);
    const int* ob = order(b);
    for (size_t i = 0; i < na.children.size(); ++i) {
      const size_t ia = static_cast<size_t>(oa[i]);
      const size_t ib = static_cast<size_t>(ob[i]);
      const int c = Compare(na.children[ia], nb.children[ib]);
      if (c != 0) return c;
      if (na.kind == NodeKind::kXor) {
        const uint64_t pa = DoubleBits(na.edge_probs[ia]);
        const uint64_t pb = DoubleBits(nb.edge_probs[ib]);
        if (pa != pb) return pa < pb ? -1 : 1;
      }
    }
    return 0;
  }

  // Walks `id`'s text from `pos` in input child order: a leaf ends at its
  // ')' (leaf text holds no parentheses), an inner node is "(and" or
  // "(xor" then " child" or " prob child" per child, then ')'. Returns the
  // position just past the node.
  size_t Locate(NodeId id, size_t pos) {
    const TreeNode& n = tree_.node(id);
    begin_[static_cast<size_t>(id)] = pos;
    if (n.kind == NodeKind::kLeaf) {
      pos = content_.find(')', pos) + 1;
    } else {
      pos += 4;  // "(and" / "(xor"
      for (NodeId child : n.children) {
        ++pos;  // ' '
        if (n.kind == NodeKind::kXor) {
          prob_begin_[static_cast<size_t>(child)] = pos;
          pos = content_.find(' ', pos) + 1;
        }
        pos = Locate(child, pos);
      }
      ++pos;  // ')'
    }
    end_[static_cast<size_t>(id)] = pos;
    return pos;
  }

  // Appends content_[begin, end).
  void Copy(size_t begin, size_t end, std::string* bytes) const {
    bytes->append(content_.data() + begin, end - begin);
  }

  // Numbers `id`'s subtree strictly post-order (every child before its
  // parent) in canonical child order — the numbering ParseTree assigns, so
  // re-serializing and re-parsing the canonical orientation reproduces
  // this exact tree, NodeIds included — appending its bytes. A subtree no
  // sort moved is already canonical text: it is copied whole.
  void Number(NodeId id, NodeId* next, std::string* bytes) {
    const size_t i = static_cast<size_t>(id);
    if (bytes != nullptr && !moved_[i]) {
      Copy(begin_[i], end_[i], bytes);
      bytes = nullptr;
    }
    const TreeNode& n = tree_.node(id);
    if (n.kind != NodeKind::kLeaf) {
      const int* perm = order(id);
      if (bytes != nullptr) Copy(begin_[i], begin_[i] + 4, bytes);
      for (size_t k = 0; k < n.children.size(); ++k) {
        const NodeId child = n.children[static_cast<size_t>(perm[k])];
        if (bytes != nullptr) {
          bytes->push_back(' ');
          // An edge probability's text runs up to the space before its
          // child.
          if (n.kind == NodeKind::kXor) {
            Copy(prob_begin_[static_cast<size_t>(child)],
                 begin_[static_cast<size_t>(child)], bytes);
          }
        }
        Number(child, next, bytes);
      }
      if (bytes != nullptr) bytes->push_back(')');
    }
    new_id_[i] = (*next)++;
  }

  // Visit's post-order position of `id` is the NodeId Number would give it.
  void CountPostOrder(NodeId id) {
    if (id != next_id_) renumbered_ = true;
    ++next_id_;
  }

  const AndXorTree& tree_;
  std::vector<uint64_t> hash_;     // per node: structural hash
  std::vector<size_t> order_at_;   // per inner node: its slice of order_
  std::vector<int> order_;         // canonical child permutations
  std::vector<uint8_t> moved_;     // per node: did a sort in it move?
  NodeId next_id_ = 0;
  bool renumbered_ = false;
  std::vector<NodeId> new_id_;     // per node: its canonical NodeId
  // Filled by Locate: byte offsets of each node's text in content_, and of
  // an XOR child's edge probability.
  std::string_view content_;
  std::vector<size_t> begin_;
  std::vector<size_t> end_;
  std::vector<size_t> prob_begin_;
};

Result<AndXorTree> CanonicalizeTree(const AndXorTree& tree) {
  if (tree.root() == kInvalidNode) {
    return Status::InvalidArgument(
        "cannot canonicalize a tree with no root");
  }
  // The canonical tree reuses a copy's nodes; an unvalidated input is
  // validated on that copy (validation (re)computes the leaf index).
  AndXorTree input = tree;
  if (!input.validated()) CPDB_RETURN_NOT_OK(input.Validate());
  Canonicalizer canon(input);
  canon.Visit(input.root());
  return canon.Reorient(&input, nullptr);
}

Result<CanonicalForm> CanonicalizeValidated(AndXorTree tree,
                                            std::string_view content) {
  if (!tree.validated()) {
    return Status::InvalidArgument(
        "CanonicalizeValidated needs a validated tree");
  }
  Canonicalizer canon(tree);
  canon.Visit(tree.root());
  CanonicalForm form;
  if (canon.unchanged()) {
    form.bytes = std::string(content);
    form.tree = std::move(tree);
    return form;
  }
  // A permutation of the same tokens: the canonical bytes are exactly as
  // long as the content bytes.
  canon.Locate(content);
  form.bytes.reserve(content.size());
  CPDB_ASSIGN_OR_RETURN(form.tree, canon.Reorient(&tree, &form.bytes));
  return form;
}

}  // namespace cpdb
