// Copyright 2026 The ConsensusDB Authors

#include "common/rng.h"

#include <cmath>

namespace cpdb {

namespace {
inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// splitmix64, used to expand a single seed into the xoshiro state.
inline uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}
}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
  // Avoid the all-zero state, which is a fixed point of xoshiro.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::Uniform01() {
  // 53 random mantissa bits.
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform01(); }

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<int64_t>(Next());  // full 64-bit range
  // Rejection sampling to remove modulo bias.
  uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  uint64_t v;
  do {
    v = Next();
  } while (v >= limit);
  return lo + static_cast<int64_t>(v % range);
}

bool Rng::Bernoulli(double p) { return Uniform01() < p; }

int64_t Rng::Zipf(int64_t n, double theta) {
  if (n <= 1) return 0;
  if (zipf_n_ != n || zipf_theta_ != theta) {
    zipf_cdf_.assign(static_cast<size_t>(n), 0.0);
    double acc = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      zipf_cdf_[static_cast<size_t>(i)] = acc;
    }
    for (auto& c : zipf_cdf_) c /= acc;
    zipf_n_ = n;
    zipf_theta_ = theta;
  }
  double u = Uniform01();
  // Binary search for the first CDF entry >= u.
  int64_t lo = 0, hi = n - 1;
  while (lo < hi) {
    int64_t mid = (lo + hi) / 2;
    if (zipf_cdf_[static_cast<size_t>(mid)] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace cpdb
