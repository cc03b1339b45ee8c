// Copyright 2026 The ConsensusDB Authors
//
// Exact references that no production binary calls, kept for the suites
// that compare served answers against them:
//
//   * the exact mean clustering (Section 6.2), by enumerating set
//     partitions, which the pivot, local-search and best-of-worlds
//     clusterings are checked against;
//   * the exact median group-by count vector (Section 6.1), by enumerating
//     every assignment, which the closest possible aggregate's
//     4-approximation is checked against;
//   * H_k, the factor the Top-k intersection approximation is bounded by;
//   * the BID table formatter, the inverse of ParseBidTable that the
//     round-trip and parser-robustness suites feed back into it.
//
// Linked only into the test and bench binaries (the cpdb_oracle target).

#ifndef CPDB_ORACLE_REFERENCES_H_
#define CPDB_ORACLE_REFERENCES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/aggregates.h"
#include "core/clustering.h"
#include "model/builders.h"

namespace cpdb {

/// \brief Exact mean clustering by enumerating set partitions (Bell(n);
/// requires num_keys <= max_keys).
Result<ClusteringAnswer> ExactClustering(const ClusteringProblem& problem,
                                         int max_keys = 10);

/// \brief Exact median answer by exhaustive enumeration of the (m+1)^n
/// assignments; fails beyond `max_assignments` enumerated states.
Result<std::vector<int64_t>> ExactMedianAggregate(
    const GroupByInstance& instance, int64_t max_assignments = 1 << 22);

/// \brief H_k, the k-th harmonic number (H_0 = 0).
double HarmonicNumber(int k);

/// \brief Formats blocks in the format accepted by ParseBidTable.
std::string FormatBidTable(const std::vector<Block>& blocks);

}  // namespace cpdb

#endif  // CPDB_ORACLE_REFERENCES_H_
