// Copyright 2026 The ConsensusDB Authors

#include "common/math_utils.h"

#include <algorithm>

namespace cpdb {

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

}  // namespace cpdb
