// Copyright 2026 The ConsensusDB Authors

#include "model/builders.h"

namespace cpdb {

Result<AndXorTree> MakeBlockIndependent(const std::vector<Block>& blocks) {
  AndXorTree tree;
  std::vector<NodeId> tops;
  tops.reserve(blocks.size());
  for (const Block& block : blocks) {
    if (block.empty()) {
      return Status::InvalidArgument("empty block in block-independent table");
    }
    std::vector<NodeId> leaves;
    std::vector<double> probs;
    leaves.reserve(block.size());
    probs.reserve(block.size());
    for (const BlockAlternative& alt : block) {
      leaves.push_back(tree.AddLeaf(alt.alt));
      probs.push_back(alt.prob);
    }
    tops.push_back(tree.AddXor(std::move(leaves), std::move(probs)));
  }
  if (tops.empty()) {
    return Status::InvalidArgument("block-independent table must be non-empty");
  }
  tree.SetRoot(tops.size() == 1 ? tops[0] : tree.AddAnd(std::move(tops)));
  CPDB_RETURN_NOT_OK(tree.Validate());
  return tree;
}

Result<AndXorTree> MakeAttributeUncertain(
    const std::vector<std::vector<double>>& probs) {
  std::vector<Block> blocks;
  blocks.reserve(probs.size());
  for (size_t i = 0; i < probs.size(); ++i) {
    Block block;
    for (size_t j = 0; j < probs[i].size(); ++j) {
      if (probs[i][j] == 0.0) continue;
      TupleAlternative alt;
      alt.key = static_cast<KeyId>(i);
      alt.label = static_cast<int32_t>(j);
      // A stable tie-free synthetic score so ranking queries remain
      // well-defined on these tables too.
      alt.score = static_cast<double>(i) + static_cast<double>(j) * 1e-6;
      block.push_back({alt, probs[i][j]});
    }
    if (block.empty()) {
      return Status::InvalidArgument("tuple " + std::to_string(i) +
                                     " has no positive-probability label");
    }
    blocks.push_back(std::move(block));
  }
  return MakeBlockIndependent(blocks);
}

}  // namespace cpdb
