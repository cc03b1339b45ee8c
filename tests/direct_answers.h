// Copyright 2026 The ConsensusDB Authors
//
// The serving suites' parity reference: the answer to a tree-addressed
// request computed by direct calls on a single-thread Engine over the
// catalog's tree (the canonical orientation serve folds), without a
// scheduler, a cache or an OpHost. Only the response assembly is restated
// here, field for field as the op rows fill it, so a wire line rendered
// from it is byte-comparable with serve's.

#ifndef CPDB_TESTS_DIRECT_ANSWERS_H_
#define CPDB_TESTS_DIRECT_ANSWERS_H_

#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/ranking_baselines.h"
#include "core/topk_metrics.h"
#include "engine/engine.h"
#include "io/request_protocol.h"
#include "model/possible_worlds.h"
#include "service/query_scheduler.h"
#include "service/tree_catalog.h"

namespace cpdb {

/// The serve response to `request` against `catalog`, from direct Engine
/// calls. An unknown tree is the catalog's lookup error, as in serve. The
/// admin ops (stats, metrics) describe a scheduler, which the reference
/// has none of: they echo their op only, so callers skip them.
inline Result<ServiceResponse> DirectAnswer(const TreeCatalog& catalog,
                                            const ServiceRequest& request) {
  ServiceResponse response;
  response.op = request.op;
  if (request.op == ServiceRequest::Op::kStats ||
      request.op == ServiceRequest::Op::kMetrics) {
    return response;
  }
  CPDB_ASSIGN_OR_RETURN(CatalogEntry entry, catalog.Lookup(request.tree_name));
  const AndXorTree& tree = *entry.tree;
  EngineOptions options;
  options.num_threads = 1;
  const Engine engine(options);
  response.tree_name = request.tree_name;
  switch (request.op) {
    case ServiceRequest::Op::kTopK: {
      CPDB_ASSIGN_OR_RETURN(
          TopKResult result,
          engine.ConsensusTopK(tree, request.k, request.metric,
                               request.answer));
      response.k = request.k;
      response.metric = TopKMetricName(request.metric);
      response.answer = TopKAnswerName(request.answer);
      response.keys = std::move(result.keys);
      response.expected_distance = result.expected_distance;
      return response;
    }
    case ServiceRequest::Op::kWorld: {
      CPDB_ASSIGN_OR_RETURN(
          Engine::WorldResult world,
          engine.ConsensusWorldWithMarginals(tree, engine.LeafMarginals(tree),
                                             request.median_world));
      response.metric = "symdiff";
      response.answer = request.median_world ? "median" : "mean";
      response.expected_distance = world.expected_distance;
      for (const TupleAlternative& tuple : WorldTuples(tree, world.leaf_ids)) {
        response.keys.push_back(tuple.key);
      }
      return response;
    }
    case ServiceRequest::Op::kBaseline: {
      response.method = request.baseline_method;
      response.k = request.k;
      const std::string& method = request.baseline_method;
      if (method == "global") {
        response.keys =
            GlobalTopK(engine.ComputeRankDistribution(tree, request.k));
      } else if (method == "prf") {
        response.keys =
            TopKByPRF(engine.ComputeRankDistribution(tree, request.k),
                      PrfUpsilonHWeights(request.k));
      } else if (method == "escore") {
        response.keys = TopKByExpectedScore(tree, request.k);
      } else {
        response.keys = TopKByExpectedRank(tree, request.k);
      }
      return response;
    }
    default:
      return Status::InvalidArgument("no direct reference for op " +
                                     std::to_string(static_cast<int>(
                                         request.op)));
  }
}

/// DirectAnswer for every request of a batch, in slot order.
inline std::vector<Result<ServiceResponse>> DirectAnswers(
    const TreeCatalog& catalog, const std::vector<ServiceRequest>& batch) {
  std::vector<Result<ServiceResponse>> answers;
  answers.reserve(batch.size());
  for (const ServiceRequest& request : batch) {
    answers.push_back(DirectAnswer(catalog, request));
  }
  return answers;
}

}  // namespace cpdb

#endif  // CPDB_TESTS_DIRECT_ANSWERS_H_
