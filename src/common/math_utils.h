// Copyright 2026 The ConsensusDB Authors
//
// Small numeric helpers shared across modules.

#ifndef CPDB_COMMON_MATH_UTILS_H_
#define CPDB_COMMON_MATH_UTILS_H_

#include <cstddef>
#include <limits>

namespace cpdb {

/// \brief Negative infinity sentinel used by max-plus dynamic programs.
inline constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// \brief Max-plus convolution of two value rows truncated to `out_size`
/// entries: out[i] = max_{p+q=i} a[p] + b[q] over out[0, out_size)
/// (distinct from a and b). Entries equal to kNegInf mark infeasible
/// sizes, in the inputs and in the output where no pair is feasible.
void MaxPlusConvolveInto(const double* a, size_t a_size, const double* b,
                         size_t b_size, double* out, size_t out_size);

}  // namespace cpdb

#endif  // CPDB_COMMON_MATH_UTILS_H_
