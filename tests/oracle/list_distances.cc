// Copyright 2026 The ConsensusDB Authors

#include "oracle/list_distances.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>

namespace cpdb {

namespace {

// Number of elements in exactly one of the two key sets.
int SymDiffSize(const std::vector<KeyId>& a, const std::vector<KeyId>& b) {
  std::set<KeyId> sa(a.begin(), a.end());
  std::set<KeyId> sb(b.begin(), b.end());
  int diff = 0;
  for (KeyId t : sa) {
    if (sb.count(t) == 0) ++diff;
  }
  for (KeyId t : sb) {
    if (sa.count(t) == 0) ++diff;
  }
  return diff;
}

// Positions (1-based) of each key; missing keys are absent from the map.
std::map<KeyId, int> Positions(const std::vector<KeyId>& list) {
  std::map<KeyId, int> pos;
  for (size_t i = 0; i < list.size(); ++i) {
    pos[list[i]] = static_cast<int>(i) + 1;
  }
  return pos;
}

}  // namespace

double TopKListDistance(const std::vector<KeyId>& a,
                        const std::vector<KeyId>& b, int k, TopKMetric metric) {
  switch (metric) {
    case TopKMetric::kSymDiff:
      return TopKSymmetricDifference(a, b, k);
    case TopKMetric::kIntersection:
      return TopKIntersectionDistance(a, b, k);
    case TopKMetric::kFootrule:
      return TopKFootrule(a, b, k);
    case TopKMetric::kKendall:
      return TopKKendall(a, b, k);
  }
  return 0.0;
}

double TopKSymmetricDifference(const std::vector<KeyId>& a,
                               const std::vector<KeyId>& b, int k) {
  return static_cast<double>(SymDiffSize(a, b)) / (2.0 * k);
}

double TopKIntersectionDistance(const std::vector<KeyId>& a,
                                const std::vector<KeyId>& b, int k) {
  double total = 0.0;
  for (int i = 1; i <= k; ++i) {
    std::vector<KeyId> pa(a.begin(),
                          a.begin() + std::min<size_t>(a.size(), static_cast<size_t>(i)));
    std::vector<KeyId> pb(b.begin(),
                          b.begin() + std::min<size_t>(b.size(), static_cast<size_t>(i)));
    total += static_cast<double>(SymDiffSize(pa, pb)) / (2.0 * i);
  }
  return total / k;
}

double TopKFootrule(const std::vector<KeyId>& a, const std::vector<KeyId>& b,
                    int k) {
  std::map<KeyId, int> pa = Positions(a);
  std::map<KeyId, int> pb = Positions(b);
  std::set<KeyId> all;
  for (KeyId t : a) all.insert(t);
  for (KeyId t : b) all.insert(t);
  double total = 0.0;
  for (KeyId t : all) {
    auto ia = pa.find(t);
    auto ib = pb.find(t);
    int posa = ia == pa.end() ? k + 1 : ia->second;
    int posb = ib == pb.end() ? k + 1 : ib->second;
    total += std::abs(posa - posb);
  }
  return total;
}

double TopKKendall(const std::vector<KeyId>& a, const std::vector<KeyId>& b,
                   int /*k*/) {
  std::map<KeyId, int> pa = Positions(a);
  std::map<KeyId, int> pb = Positions(b);
  std::vector<KeyId> all;
  for (const auto& [t, p] : pa) all.push_back(t);
  for (const auto& [t, p] : pb) {
    if (pa.count(t) == 0) all.push_back(t);
  }
  double disagreements = 0.0;
  for (size_t x = 0; x < all.size(); ++x) {
    for (size_t y = x + 1; y < all.size(); ++y) {
      KeyId t = all[x], u = all[y];
      bool t_in_a = pa.count(t) > 0, u_in_a = pa.count(u) > 0;
      bool t_in_b = pb.count(t) > 0, u_in_b = pb.count(u) > 0;
      if (t_in_a && u_in_a && t_in_b && u_in_b) {
        // Both lists rank both: disagreement iff the order flips.
        bool order_a = pa[t] < pa[u];
        bool order_b = pb[t] < pb[u];
        if (order_a != order_b) disagreements += 1.0;
      } else if (t_in_a && u_in_a) {
        // Only list a ranks both. In any extension of b, a present key
        // precedes an absent one; disagreement iff a ranks them oppositely.
        if (t_in_b && pa[u] < pa[t]) disagreements += 1.0;
        if (u_in_b && pa[t] < pa[u]) disagreements += 1.0;
        // Neither in b: order in b's extensions is unconstrained -> 0.
      } else if (t_in_b && u_in_b) {
        if (t_in_a && pb[u] < pb[t]) disagreements += 1.0;
        if (u_in_a && pb[t] < pb[u]) disagreements += 1.0;
      } else {
        // Each list ranks exactly one of {t, u}; the ranked one precedes the
        // unranked one in every extension, so the orders provably flip iff
        // the lists rank different elements.
        bool a_ranks_t = t_in_a;  // exactly one of t_in_a/u_in_a holds here
        bool b_ranks_t = t_in_b;
        if (a_ranks_t != b_ranks_t) disagreements += 1.0;
      }
    }
  }
  return disagreements;
}

double JaccardDistance(const std::vector<NodeId>& s1,
                       const std::vector<NodeId>& s2) {
  size_t inter = 0;
  size_t i = 0, j = 0;
  while (i < s1.size() && j < s2.size()) {
    if (s1[i] == s2[j]) {
      ++inter;
      ++i;
      ++j;
    } else if (s1[i] < s2[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  size_t uni = s1.size() + s2.size() - inter;
  if (uni == 0) return 0.0;
  return static_cast<double>(uni - inter) / static_cast<double>(uni);
}

}  // namespace cpdb
