// Copyright 2026 The ConsensusDB Authors
//
// Convenience constructors for the special cases of the and/xor tree model
// that prior work studied (Section 3.1/3.2 of the paper): block-independent
// disjoint (BID) tables and x-tuples, and attribute-uncertain tables. The
// tuple-independent builder, which only tests and benches call, lives with
// the test oracles (tests/oracle/table_generators.h).

#ifndef CPDB_MODEL_BUILDERS_H_
#define CPDB_MODEL_BUILDERS_H_

#include <vector>

#include "common/result.h"
#include "model/and_xor_tree.h"

namespace cpdb {

/// \brief One alternative of a BID block / x-tuple, with its probability.
struct BlockAlternative {
  TupleAlternative alt;
  double prob = 1.0;
};

/// \brief A block of mutually exclusive alternatives. In a BID table all
/// alternatives share a key; in an x-tuple they may have distinct keys.
/// Probabilities must sum to at most 1; the leftover is "block absent".
using Block = std::vector<BlockAlternative>;

/// \brief Builds a validated tree for a set of independent blocks (covers
/// both the BID model and x-tuples): AND over one XOR per block.
Result<AndXorTree> MakeBlockIndependent(const std::vector<Block>& blocks);

/// \brief A group-by-count style table: n independent tuples, tuple i taking
/// label j with probability probs[i][j] (rows sum to <= 1; leftover means
/// the tuple is absent). Keys are 0..n-1, labels are column indices.
Result<AndXorTree> MakeAttributeUncertain(
    const std::vector<std::vector<double>>& probs);

}  // namespace cpdb

#endif  // CPDB_MODEL_BUILDERS_H_
