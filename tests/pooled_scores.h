// Copyright 2026 The ConsensusDB Authors
//
// Test-only tree rewrites that force score ties. The score-ordered scan
// (core/rank_distribution.h) handles a group of tied leaves apart from a
// lone leaf, and the Kendall q columns run on the same scan, so the suites
// that pin either redraw generated trees' scores from a small pool.

#ifndef CPDB_TESTS_POOLED_SCORES_H_
#define CPDB_TESTS_POOLED_SCORES_H_

#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "model/and_xor_tree.h"

namespace cpdb {

/// Copies `src`'s subtree at `id` into `dst` with every leaf score redrawn
/// from {1, ..., pool}: ties fall across keys and within a key.
/// Keys shift by `key_offset`.
inline NodeId CopyWithPooledScores(const AndXorTree& src, NodeId id, int pool,
                                   Rng* rng, AndXorTree* dst,
                                   KeyId key_offset = 0) {
  const TreeNode& node = src.node(id);
  if (node.kind == NodeKind::kLeaf) {
    TupleAlternative alt = node.leaf;
    alt.key += key_offset;
    alt.score = static_cast<double>(rng->UniformInt(1, pool));
    return dst->AddLeaf(alt);
  }
  std::vector<NodeId> children;
  for (NodeId child : node.children) {
    children.push_back(
        CopyWithPooledScores(src, child, pool, rng, dst, key_offset));
  }
  return node.kind == NodeKind::kAnd
             ? dst->AddAnd(std::move(children))
             : dst->AddXor(std::move(children), node.edge_probs);
}

/// Whether two leaves of one key share a score.
inline bool HasTieWithinKey(const AndXorTree& tree) {
  std::map<std::pair<KeyId, double>, int> seen;
  for (NodeId leaf : tree.LeafIds()) {
    const TupleAlternative& alt = tree.node(leaf).leaf;
    if (++seen[{alt.key, alt.score}] > 1) return true;
  }
  return false;
}

}  // namespace cpdb

#endif  // CPDB_TESTS_POOLED_SCORES_H_
