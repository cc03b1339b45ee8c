// Copyright 2026 The ConsensusDB Authors
//
// Dense rectangular assignment problem solver (Hungarian algorithm with
// potentials, the Jonker-Volgenant formulation; O(rows^2 * cols)).
//
// The paper reduces the mean Top-k answer under the intersection metric
// (Section 5.3) and under Spearman's footrule (Section 5.4) to an assignment
// problem between the k result positions and the n candidate tuples. The
// paper cites Micali-Vazirani general matching; for these dense bipartite
// instances the Hungarian algorithm is simpler and at least as fast in
// practice (see DESIGN.md, substitution notes).

#ifndef CPDB_MATCHING_HUNGARIAN_H_
#define CPDB_MATCHING_HUNGARIAN_H_

#include <vector>

#include "common/result.h"

namespace cpdb {

/// \brief Solution of an assignment problem.
struct Assignment {
  /// row_to_col[i] is the column assigned to row i (always valid: the solver
  /// requires rows <= cols, so every row is matched).
  std::vector<int> row_to_col;
  /// Total cost (for SolveAssignmentMin) or profit (for SolveAssignmentMax)
  /// of the returned assignment.
  double total = 0.0;
};

/// \brief Minimizes total cost over all assignments of each row to a
/// distinct column. Requires a rectangular matrix with rows <= cols and at
/// least one row.
///
/// Pure function of `cost` (no shared or global state), so distinct solves
/// may run concurrently — the serving layer fans the solves of a batch's
/// footrule/intersection queries across an engine's thread pool.
Result<Assignment> SolveAssignmentMin(
    const std::vector<std::vector<double>>& cost);

/// \brief Maximizes total profit; same preconditions (and the same
/// concurrency guarantee) as SolveAssignmentMin.
Result<Assignment> SolveAssignmentMax(
    const std::vector<std::vector<double>>& profit);

}  // namespace cpdb

#endif  // CPDB_MATCHING_HUNGARIAN_H_
