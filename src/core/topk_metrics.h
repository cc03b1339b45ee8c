// Copyright 2026 The ConsensusDB Authors
//
// The four Top-k list metrics of Section 5 (Fagin, Kumar, Sivakumar:
// "Comparing top k lists", SIAM J. Discrete Math 2003) as a runtime
// parameter, and their names: normalized symmetric difference d_Delta,
// the intersection metric d_I, the Spearman footrule F^(k+1) and Kendall
// tau K^(0). The library computes expected distances in closed form (the
// core/topk_* modules); the distance between two given lists is a test
// oracle (tests/oracle/list_distances.h).

#ifndef CPDB_CORE_TOPK_METRICS_H_
#define CPDB_CORE_TOPK_METRICS_H_

#include <string>

#include "common/result.h"

namespace cpdb {

/// \brief The four Top-k list metrics of Section 5, selectable wherever a
/// distance is a runtime parameter (the engine's query API, the CLI's
/// --metric flag, the serve protocol, the test oracles' estimators).
enum class TopKMetric { kSymDiff, kIntersection, kFootrule, kKendall };

/// \brief The metric's textual name ("symdiff", "intersection", "footrule",
/// "kendall") — the single vocabulary shared by the CLI's --metric flag and
/// the serve protocol's metric= field. "?" for unknown enum values.
const char* TopKMetricName(TopKMetric metric);

/// \brief The inverse of TopKMetricName; InvalidArgument (naming the
/// accepted values) for anything else. Strict: callers must not default.
Result<TopKMetric> ParseTopKMetricName(const std::string& name);

}  // namespace cpdb

#endif  // CPDB_CORE_TOPK_METRICS_H_
