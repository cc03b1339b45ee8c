// Copyright 2026 The ConsensusDB Authors

#include "common/math_utils.h"

#include <algorithm>

namespace cpdb {

double HarmonicNumber(int k) {
  double h = 0.0;
  for (int i = 1; i <= k; ++i) h += 1.0 / i;
  return h;
}

bool ApproxEqual(double a, double b, double abs_tol, double rel_tol) {
  double diff = std::fabs(a - b);
  if (diff <= abs_tol) return true;
  return diff <= rel_tol * std::max(std::fabs(a), std::fabs(b));
}

double ClampProbability(double p) {
  if (p < 0.0) return 0.0;
  if (p > 1.0) return 1.0;
  return p;
}

std::vector<double> MaxPlusConvolve(const std::vector<double>& a,
                                    const std::vector<double>& b,
                                    size_t max_size) {
  std::vector<double> out(std::min(max_size + 1, a.size() + b.size() - 1));
  MaxPlusConvolveInto(a.data(), a.size(), b.data(), b.size(), out.data(),
                      out.size());
  return out;
}

void MaxPlusConvolveInto(const double* a, size_t a_size, const double* b,
                         size_t b_size, double* out, size_t out_size) {
  std::fill(out, out + out_size, kNegInf);
  for (size_t i = 0; i < a_size && i < out_size; ++i) {
    if (a[i] == kNegInf) continue;
    for (size_t j = 0; j < b_size && i + j < out_size; ++j) {
      if (b[j] == kNegInf) continue;
      out[i + j] = std::max(out[i + j], a[i] + b[j]);
    }
  }
}

double StableSum(const std::vector<double>& values) {
  double sum = 0.0, comp = 0.0;
  for (double v : values) {
    double y = v - comp;
    double t = sum + y;
    comp = (t - sum) - y;
    sum = t;
  }
  return sum;
}

}  // namespace cpdb
