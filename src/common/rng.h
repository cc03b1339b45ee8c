// Copyright 2026 The ConsensusDB Authors
//
// Deterministic pseudo-random number generation used across the library.
// All randomized algorithms and workload generators take an explicit Rng so
// that tests and benchmarks are reproducible from a single seed.

#ifndef CPDB_COMMON_RNG_H_
#define CPDB_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace cpdb {

/// \brief A small, fast, seedable generator (xoshiro256**).
///
/// Not cryptographically secure; statistical quality is more than adequate
/// for Monte-Carlo estimation and synthetic workload generation.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// \brief Next raw 64-bit value.
  uint64_t Next();

  /// \brief Uniform double in [0, 1).
  double Uniform01();

  /// \brief Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// \brief Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// \brief Bernoulli draw with success probability p.
  bool Bernoulli(double p);

  /// \brief Zipf-like draw over {0,...,n-1} with exponent `theta`
  /// (theta = 0 is uniform). Uses the normalized CDF; O(log n) per draw
  /// after O(n) setup amortized per (n, theta) pair.
  int64_t Zipf(int64_t n, double theta);

  /// \brief In-place Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

 private:
  uint64_t s_[4];
  // Cache for Zipf CDF, keyed by (n, theta).
  int64_t zipf_n_ = -1;
  double zipf_theta_ = -1.0;
  std::vector<double> zipf_cdf_;
};

}  // namespace cpdb

#endif  // CPDB_COMMON_RNG_H_
