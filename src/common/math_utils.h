// Copyright 2026 The ConsensusDB Authors
//
// Small numeric helpers shared across modules.

#ifndef CPDB_COMMON_MATH_UTILS_H_
#define CPDB_COMMON_MATH_UTILS_H_

#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace cpdb {

/// \brief Negative infinity sentinel used by max-plus dynamic programs.
inline constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// \brief H_k, the k-th harmonic number (H_0 = 0).
double HarmonicNumber(int k);

/// \brief True iff |a - b| <= abs_tol + rel_tol * max(|a|, |b|).
bool ApproxEqual(double a, double b, double abs_tol = 1e-9,
                 double rel_tol = 1e-9);

/// \brief Clamps a probability into [0, 1], absorbing tiny FP drift.
double ClampProbability(double p);

/// \brief Max-plus convolution of two value vectors truncated to
/// `max_size + 1` entries: out[i] = max_{p+q=i} a[p] + b[q]. Entries equal
/// to kNegInf mark infeasible sizes.
std::vector<double> MaxPlusConvolve(const std::vector<double>& a,
                                    const std::vector<double>& b,
                                    size_t max_size);

/// \brief The MaxPlusConvolve kernel over raw rows: writes out[0, out_size)
/// (distinct from a and b), kNegInf where no pair is feasible. Same
/// comparisons in the same order as MaxPlusConvolve, which calls it.
void MaxPlusConvolveInto(const double* a, size_t a_size, const double* b,
                         size_t b_size, double* out, size_t out_size);

/// \brief Kahan-compensated sum, used where many small probabilities
/// accumulate.
double StableSum(const std::vector<double>& values);

}  // namespace cpdb

#endif  // CPDB_COMMON_MATH_UTILS_H_
