// Copyright 2026 The ConsensusDB Authors

#include "core/topk_metrics.h"

namespace cpdb {

const char* TopKMetricName(TopKMetric metric) {
  switch (metric) {
    case TopKMetric::kSymDiff:
      return "symdiff";
    case TopKMetric::kIntersection:
      return "intersection";
    case TopKMetric::kFootrule:
      return "footrule";
    case TopKMetric::kKendall:
      return "kendall";
  }
  return "?";
}

Result<TopKMetric> ParseTopKMetricName(const std::string& name) {
  for (TopKMetric metric :
       {TopKMetric::kSymDiff, TopKMetric::kIntersection, TopKMetric::kFootrule,
        TopKMetric::kKendall}) {
    if (name == TopKMetricName(metric)) return metric;
  }
  return Status::InvalidArgument(
      "unknown metric '" + name +
      "' (expected symdiff, intersection, footrule or kendall)");
}

}  // namespace cpdb
