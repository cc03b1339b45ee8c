// Copyright 2026 The ConsensusDB Authors

#include "core/hardness.h"

#include <algorithm>
#include <map>

#include "core/jaccard.h"

namespace cpdb {

TreeHardness ComputeTreeHardness(const AndXorTree& tree) {
  TreeHardness stats;
  stats.nodes = tree.NumNodes();
  stats.leaves = static_cast<int64_t>(tree.LeafIds().size());
  std::map<KeyId, int64_t> leaves_per_key;
  for (NodeId l : tree.LeafIds()) ++leaves_per_key[tree.node(l).leaf.key];
  stats.keys = static_cast<int64_t>(leaves_per_key.size());
  for (const auto& [key, count] : leaves_per_key) {
    if (count > 1) ++stats.duplicated_keys;
    stats.max_leaves_per_key = std::max(stats.max_leaves_per_key, count);
  }
  stats.tuple_independent = IsTupleIndependent(tree);
  stats.block_independent = IsBlockIndependent(tree);
  return stats;
}

}  // namespace cpdb
