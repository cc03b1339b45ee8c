// Copyright 2026 The ConsensusDB Authors
//
// Table generators that no production binary calls, kept for the suites
// and benches that draw tuple-independent and BID instances:
//
//   * MakeTupleIndependent, the tuple-independent table as an and/xor tree
//     (AND over one XOR(leaf) per tuple);
//   * random tuple-independent and BID tables with globally distinct
//     scores, the paper's tie-free assumption (Section 5).
//
// Serve and perfbench draw only RandomAndXorTree (workload/generators.h).
// Linked only into the test and bench binaries (the cpdb_oracle target).

#ifndef CPDB_ORACLE_TABLE_GENERATORS_H_
#define CPDB_ORACLE_TABLE_GENERATORS_H_

#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "model/builders.h"
#include "workload/generators.h"

namespace cpdb {

/// \brief One independent probabilistic tuple: a single alternative that is
/// present with probability `prob` and absent otherwise.
struct IndependentTuple {
  TupleAlternative alt;
  double prob = 1.0;
};

/// \brief Builds a validated tree for a tuple-independent table:
/// AND over one XOR(leaf) per tuple.
Result<AndXorTree> MakeTupleIndependent(const std::vector<IndependentTuple>& tuples);

/// \brief A tuple-independent table with presence probabilities drawn
/// uniformly from [0.05, 0.95] and distinct scores.
Result<AndXorTree> RandomTupleIndependent(int num_keys, Rng* rng);

/// \brief BID blocks: each key gets 1..max_alternatives alternatives with a
/// random probability vector of total mass in [min_xor_mass, 1].
std::vector<Block> RandomBidBlocks(const RandomTreeOptions& opts, Rng* rng);

/// \brief A validated BID tree built from RandomBidBlocks.
Result<AndXorTree> RandomBid(const RandomTreeOptions& opts, Rng* rng);

}  // namespace cpdb

#endif  // CPDB_ORACLE_TABLE_GENERATORS_H_
