// Copyright 2026 The ConsensusDB Authors
//
// Distances between two Top-k lists (Fagin, Kumar, Sivakumar: "Comparing
// top k lists", SIAM J. Discrete Math 2003), as used in Section 5 of the
// paper:
//   * normalized symmetric difference d_Delta (membership only);
//   * intersection metric d_I (prefix-averaged d_Delta);
//   * Spearman footrule with location parameter k+1, F^(k+1);
//   * Kendall tau K^(0): pairs whose order provably disagrees in every pair
//     of full-ranking extensions.
//
// Lists are sequences of distinct keys in rank order; they may be shorter
// than k (a possible world can have fewer than k tuples).

#ifndef CPDB_CORE_TOPK_METRICS_H_
#define CPDB_CORE_TOPK_METRICS_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "model/types.h"

namespace cpdb {

/// \brief The four Top-k list metrics of Section 5, selectable wherever a
/// distance is a runtime parameter (the generic evaluators, the Monte-Carlo
/// estimators, the engine's query API, the CLI's --metric flag).
enum class TopKMetric { kSymDiff, kIntersection, kFootrule, kKendall };

/// \brief The metric's textual name ("symdiff", "intersection", "footrule",
/// "kendall") — the single vocabulary shared by the CLI's --metric flag and
/// the serve protocol's metric= field. "?" for unknown enum values.
const char* TopKMetricName(TopKMetric metric);

/// \brief The inverse of TopKMetricName; InvalidArgument (naming the
/// accepted values) for anything else. Strict: callers must not default.
Result<TopKMetric> ParseTopKMetricName(const std::string& name);

/// \brief d(a, b) under `metric` — the single distance dispatch, called only
/// by the test oracles and the differential suite. Unknown enums return 0.
double TopKListDistance(const std::vector<KeyId>& a,
                        const std::vector<KeyId>& b, int k, TopKMetric metric);

/// \brief The normalized symmetric difference d_Delta(a, b) =
/// (1/2k) |a Δ b| over the key sets (Section 5.2); order within the lists
/// is ignored, so this is the pure membership distance. Range [0, 1].
///
/// Complexity: O((|a| + |b|) log(|a| + |b|)) via ordered-set
/// membership.
double TopKSymmetricDifference(const std::vector<KeyId>& a,
                               const std::vector<KeyId>& b, int k);

/// \brief The intersection metric d_I(a, b) =
/// (1/k) sum_{i=1..k} (1/2i) |a^i Δ b^i| where x^i is the length-min(i,|x|)
/// prefix (Section 5.3): a prefix-averaged d_Delta, so agreement near the
/// top of the lists counts more. Range [0, 1].
///
/// Complexity: O(k^2 log k) (each of the k prefixes is diffed
/// independently).
double TopKIntersectionDistance(const std::vector<KeyId>& a,
                                const std::vector<KeyId>& b, int k);

/// \brief The Spearman footrule with location parameter k+1, F^(k+1)(a, b)
/// (Section 5.4): every key of a ∪ b contributes |pos_a - pos_b| with keys
/// missing from a list placed at position k+1. A true metric on Top-k
/// lists; range [0, k(k+1)].
///
/// Complexity: O((|a| + |b|) log(|a| + |b|)).
double TopKFootrule(const std::vector<KeyId>& a, const std::vector<KeyId>& b,
                    int k);

/// \brief The Kendall distance K^(0)(a, b) (Section 5.5): the number of
/// unordered pairs {t, u} of a ∪ b whose relative order provably differs in
/// every pair of full rankings extending a and b — the optimistic variant,
/// so pairs whose order is unconstrained by either list cost nothing.
/// Range [0, k^2].
///
/// Complexity: O(m^2 log m) for m = |a ∪ b| <= 2k pair enumeration.
double TopKKendall(const std::vector<KeyId>& a, const std::vector<KeyId>& b,
                   int k);

}  // namespace cpdb

#endif  // CPDB_CORE_TOPK_METRICS_H_
