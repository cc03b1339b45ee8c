// Copyright 2026 The ConsensusDB Authors

#include "oracle/table_generators.h"

#include <utility>
#include <vector>

namespace cpdb {

Result<AndXorTree> MakeTupleIndependent(
    const std::vector<IndependentTuple>& tuples) {
  AndXorTree tree;
  std::vector<NodeId> tops;
  tops.reserve(tuples.size());
  for (const IndependentTuple& t : tuples) {
    NodeId leaf = tree.AddLeaf(t.alt);
    tops.push_back(tree.AddXor({leaf}, {t.prob}));
  }
  if (tops.empty()) {
    return Status::InvalidArgument("tuple-independent table must be non-empty");
  }
  tree.SetRoot(tops.size() == 1 ? tops[0] : tree.AddAnd(std::move(tops)));
  CPDB_RETURN_NOT_OK(tree.Validate());
  return tree;
}

Result<AndXorTree> RandomTupleIndependent(int num_keys, Rng* rng) {
  ScorePool scores(num_keys, rng);
  std::vector<IndependentTuple> tuples;
  tuples.reserve(static_cast<size_t>(num_keys));
  for (int i = 0; i < num_keys; ++i) {
    IndependentTuple t;
    t.alt.key = i;
    t.alt.score = scores.Next();
    t.prob = rng->Uniform(0.05, 0.95);
    tuples.push_back(t);
  }
  return MakeTupleIndependent(tuples);
}

std::vector<Block> RandomBidBlocks(const RandomTreeOptions& opts, Rng* rng) {
  ScorePool scores(opts.num_keys * opts.max_alternatives, rng);
  std::vector<Block> blocks;
  blocks.reserve(static_cast<size_t>(opts.num_keys));
  for (int key = 0; key < opts.num_keys; ++key) {
    int alts = static_cast<int>(rng->UniformInt(1, opts.max_alternatives));
    double mass = rng->Uniform(opts.min_xor_mass, 1.0);
    // Random probability split of `mass` over the alternatives.
    std::vector<double> cuts(static_cast<size_t>(alts));
    double total = 0.0;
    for (double& c : cuts) {
      c = rng->Uniform(0.1, 1.0);
      total += c;
    }
    Block block;
    for (int a = 0; a < alts; ++a) {
      BlockAlternative alt;
      alt.alt.key = key;
      alt.alt.score = scores.Next();
      alt.alt.label = static_cast<int32_t>(rng->UniformInt(0, 7));
      alt.prob = mass * cuts[static_cast<size_t>(a)] / total;
      block.push_back(alt);
    }
    blocks.push_back(std::move(block));
  }
  return blocks;
}

Result<AndXorTree> RandomBid(const RandomTreeOptions& opts, Rng* rng) {
  return MakeBlockIndependent(RandomBidBlocks(opts, rng));
}

}  // namespace cpdb
