// Copyright 2026 The ConsensusDB Authors

#include "oracle/world_estimators.h"

#include <cmath>
#include <cstdint>

#include "model/possible_worlds.h"
#include "oracle/list_distances.h"

namespace cpdb {

namespace {

using WorldFunction = std::function<double(const std::vector<NodeId>&)>;

/// Welford's numerically stable running mean and sum of squared deviations.
struct Welford {
  int64_t n = 0;
  double mean = 0.0;
  double m2 = 0.0;

  void Add(double x) {
    ++n;
    double delta = x - mean;
    mean += delta / static_cast<double>(n);
    m2 += delta * (x - mean);
  }
};

/// E[f(pw)] summed over every enumerated world, in enumeration order.
Result<double> EnumExpectation(const AndXorTree& tree, size_t max_worlds,
                               const WorldFunction& f) {
  CPDB_ASSIGN_OR_RETURN(std::vector<World> worlds,
                        EnumerateWorlds(tree, max_worlds));
  double expected = 0.0;
  for (const World& w : worlds) expected += w.prob * f(w.leaf_ids);
  return expected;
}

/// The per-world top-k distance d(answer, topk(pw)).
WorldFunction TopKDistanceTo(const AndXorTree& tree,
                             const std::vector<KeyId>& answer, int k,
                             TopKMetric metric) {
  return [&tree, &answer, k, metric](const std::vector<NodeId>& world) {
    return TopKListDistance(answer, TopKOfWorld(tree, world, k), k, metric);
  };
}

/// The per-world set distance d(a, b) over sorted leaf-id vectors.
double SetDistance(const std::vector<NodeId>& a, const std::vector<NodeId>& b,
                   SetMetric metric) {
  switch (metric) {
    case SetMetric::kSymDiff: {
      size_t i = 0, j = 0, inter = 0;
      while (i < a.size() && j < b.size()) {
        if (a[i] == b[j]) {
          ++inter;
          ++i;
          ++j;
        } else if (a[i] < b[j]) {
          ++i;
        } else {
          ++j;
        }
      }
      return static_cast<double>(a.size() + b.size() - 2 * inter);
    }
    case SetMetric::kJaccard:
      return JaccardDistance(a, b);
  }
  return 0.0;
}

}  // namespace

McEstimate EstimateOverWorlds(const AndXorTree& tree, int num_samples,
                              Rng* rng, const WorldFunction& f) {
  Welford acc;
  for (int s = 0; s < num_samples; ++s) acc.Add(f(SampleWorld(tree, rng)));
  McEstimate e;
  e.mean = acc.mean;
  e.samples = static_cast<int>(acc.n);
  if (acc.n > 1) {
    double variance = acc.m2 / static_cast<double>(acc.n - 1);
    e.std_error = std::sqrt(variance / static_cast<double>(acc.n));
  }
  return e;
}

double ClusteringDistance(const ClusteringAnswer& a,
                          const ClusteringAnswer& b) {
  double d = 0.0;
  for (size_t i = 0; i < a.cluster_of.size(); ++i) {
    for (size_t j = i + 1; j < a.cluster_of.size(); ++j) {
      bool ta = a.cluster_of[i] == a.cluster_of[j];
      bool tb = b.cluster_of[i] == b.cluster_of[j];
      if (ta != tb) d += 1.0;
    }
  }
  return d;
}

Result<double> EnumExpectedTopKDistance(const AndXorTree& tree,
                                        const std::vector<KeyId>& answer,
                                        int k, TopKMetric metric,
                                        size_t max_worlds) {
  return EnumExpectation(tree, max_worlds,
                         TopKDistanceTo(tree, answer, k, metric));
}

Result<double> EnumExpectedSetDistance(const AndXorTree& tree,
                                       const std::vector<NodeId>& world,
                                       SetMetric metric, size_t max_worlds) {
  return EnumExpectation(tree, max_worlds,
                         [&](const std::vector<NodeId>& pw) {
                           return SetDistance(world, pw, metric);
                         });
}

Result<double> EnumExpectedClusteringDistance(const AndXorTree& tree,
                                              const ClusteringAnswer& answer,
                                              size_t max_worlds) {
  std::vector<KeyId> keys = tree.Keys();
  return EnumExpectation(tree, max_worlds, [&](const std::vector<NodeId>& pw) {
    return ClusteringDistance(answer, ClusteringOfWorld(tree, keys, pw));
  });
}

McEstimate McExpectedTopKDistance(const AndXorTree& tree,
                                  const std::vector<KeyId>& answer, int k,
                                  TopKMetric metric, int num_samples,
                                  Rng* rng) {
  return EstimateOverWorlds(tree, num_samples, rng,
                            TopKDistanceTo(tree, answer, k, metric));
}

McEstimate McExpectedSetDistance(const AndXorTree& tree,
                                 const std::vector<NodeId>& world,
                                 SetMetric metric, int num_samples, Rng* rng) {
  return EstimateOverWorlds(tree, num_samples, rng,
                            [&](const std::vector<NodeId>& pw) {
                              return SetDistance(world, pw, metric);
                            });
}

}  // namespace cpdb
