// Copyright 2026 The ConsensusDB Authors
//
// The structural statistics behind the paper's tractability frontier
// (Section 4.1), which serve reports through op=hardness. Median worlds are
// NP-hard under arbitrary correlations; tests/hardness_test.cc builds the
// paper's MAX-2-SAT reduction on small instances.

#ifndef CPDB_CORE_HARDNESS_H_
#define CPDB_CORE_HARDNESS_H_

#include <cstdint>

#include "model/and_xor_tree.h"

namespace cpdb {

/// \brief Descriptive hardness statistics for one tree — the structural
/// signals behind the paper's tractability frontier. Key duplication is
/// the load-bearing one: the hardness construction duplicates clause keys
/// across assignment branches, which is exactly what divorces the
/// tractable leaf-level median from the NP-hard key-level one, while
/// tuple-/block-independent shapes admit the fast paths. All fields are
/// exact integer/boolean counts, so the stats are trivially deterministic.
struct TreeHardness {
  int64_t nodes = 0;   ///< total tree nodes (internal + leaves)
  int64_t leaves = 0;  ///< alternative leaves
  int64_t keys = 0;    ///< distinct keys across the leaves
  /// Keys appearing on more than one leaf — 0 means leaf-level and
  /// key-level answers coincide per alternative.
  int64_t duplicated_keys = 0;
  int64_t max_leaves_per_key = 0;  ///< worst-case duplication degree
  bool tuple_independent = false;  ///< core/jaccard.h IsTupleIndependent
  bool block_independent = false;  ///< core/jaccard.h IsBlockIndependent
};

/// \brief Computes the hardness statistics of a validated tree. One O(N)
/// pass plus the two independence shape checks.
TreeHardness ComputeTreeHardness(const AndXorTree& tree);

}  // namespace cpdb

#endif  // CPDB_CORE_HARDNESS_H_
