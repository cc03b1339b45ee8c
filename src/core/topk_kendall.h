// Copyright 2026 The ConsensusDB Authors
//
// Consensus Top-k answers under the Kendall tau distance K^(0) (Section 5.5
// of the paper). Exact optimization is NP-hard already for aggregating four
// rankings (Dwork et al.), hence the paper settles for constant-factor
// approximations driven by the pairwise statistics
// q(u, t) = Pr(r(u) <= k and r(u) < r(t)), which are poly-time computable
// on and/xor trees.
//
// The expected distance itself decomposes over key pairs:
//   E[d_K(tau, topk(pw))] = sum_{tau ranks t before u} q(u, t)
//                         + sum_{t in tau, u notin tau} q(u, t)
// so any candidate answer is evaluated exactly from the q columns of its
// own keys. The served mean answer is the footrule-optimal one, re-scored
// under d_K (a 2-approximation by the Fagin et al. equivalence class;
// Engine::ConsensusTopKWithDist). Ailon's 3/2-approximation rounds an LP
// and is not implemented.

#ifndef CPDB_CORE_TOPK_KENDALL_H_
#define CPDB_CORE_TOPK_KENDALL_H_

#include <vector>

#include "core/rank_distribution.h"
#include "model/flat_tree.h"
#include "model/types.h"

namespace cpdb {

/// \brief Column it of the q matrix over `keys` (sorted ascending, the
/// tree's Keys()): result[iu] = q(keys[iu], keys[it]) with
/// q(u, t) = Pr(r(u) <= k and r(u) < r(t)) — u makes the Top-k and ranks
/// ahead of t (t absent or ranked below both count) — and 0 at iu == it.
/// One pass of `scan`, built over the tree's FlatTree at cutoff k (no
/// chunks needed), with keys[it] excluded: each leaf b of another key
/// reads its first k cells with t's leaves above b set to zero. A cell
/// sums over the leaves of its key in leaf order, then over ranks, the
/// order of the pointer-fold oracle in tests/oracle/, so the column is
/// bitwise the oracle's. `scan` is only read, so columns in distinct
/// scratches may run concurrently.
std::vector<double> KendallQColumn(const RankDistributionScan& scan,
                                   const std::vector<KeyId>& keys, size_t it,
                                   FlatRefold::Scratch* scratch);

/// \brief E[d_K(answer, topk(pw))] from the q columns of the answer's own
/// keys: columns[a][iu] = q(keys[iu], answer[a]) over `keys` (sorted
/// ascending, the tree's Keys()), or null for a key outside `keys`, whose
/// terms are all zero. Every term of the decomposition has its t in the
/// answer, so these |answer| columns are all the sum reads. It adds the
/// answer's pairs a < b first, then each t of the answer over every u
/// outside it in key order: one fixed order, whoever supplies the columns.
double KendallExpectedFromColumns(
    const std::vector<KeyId>& keys, const std::vector<KeyId>& answer,
    const std::vector<const std::vector<double>*>& columns);

}  // namespace cpdb

#endif  // CPDB_CORE_TOPK_KENDALL_H_
