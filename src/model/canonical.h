// Copyright 2026 The ConsensusDB Authors
//
// Structural canonicalization: the orientation-normal form underneath the
// two-level identity model.
//
// AND and XOR are commutative — permuting an AND node's children, or an XOR
// node's (probability, child) pairs, does not change the distribution over
// possible worlds — yet the canonical *serialization* (io/tree_text.h) is
// order-sensitive, so permuted presentations of one structure hash to
// distinct ContentFps. CanonicalizeTree rewrites a tree into a deterministic
// canonical ORIENTATION: every commutative child list is sorted by a
// bottom-up structural hash of the subtree, with hash ties broken by a
// recursive structural comparison (kind, leaf fields, probabilities, and
// children in canonical order). The comparison returns "equal" only for
// structurally identical subtrees — the same criterion as comparing
// canonical subtree bytes (FormatTree is injective on validated trees) —
// so the induced order is a deterministic total order without
// materializing the bytes per node.
//
// Properties (pinned by tests/canonical_test.cc):
//  * orbit collapse — any commutative permutation of a tree canonicalizes
//    to the same orientation, hence the same serialization;
//  * sensitivity — changing any leaf key/score/label, edge probability, or
//    the shape itself changes the canonical serialization;
//  * idempotence — Canonicalize(Canonicalize(t)) == Canonicalize(t);
//  * answer preservation — the possible-worlds distribution is untouched,
//    and for an input already in canonical orientation the rebuilt tree has
//    identical NodeIds (nodes are re-added in ParseTree's post-order), so
//    folds over it are bitwise identical to folds over the input.
//
// StructKey (common/hash.h) is defined as the content fingerprint OF THIS
// ORIENTATION: Fnv1a64(FormatTree(CanonicalizeTree(t), /*indent=*/false)).
// The catalog computes it via TreeCatalog::ComputeIdentity.

#ifndef CPDB_MODEL_CANONICAL_H_
#define CPDB_MODEL_CANONICAL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "model/and_xor_tree.h"

namespace cpdb {

/// \brief Rewrites `tree` into its canonical orientation: commutative AND /
/// XOR child lists sorted by bottom-up structural hash (ties broken by
/// structural comparison). The input must be a valid Definition 1 tree; an
/// input whose `validated()` flag is unset is validated on a copy first,
/// and its error propagated. The returned tree is validated and its nodes
/// are numbered in serialization post-order.
Result<AndXorTree> CanonicalizeTree(const AndXorTree& tree);

/// \brief A canonical orientation and its single-line serialization.
struct CanonicalForm {
  /// Validated; nodes numbered in serialization post-order.
  AndXorTree tree;
  /// FormatTree(tree, /*indent=*/false): the bytes StructKey hashes.
  std::string bytes;
};

/// \brief CanonicalizeTree for the load path, which has already validated
/// `tree` and serialized it as `content` (FormatTree(tree, false)); neither
/// is checked again. One walk derives the canonical tree and its bytes
/// together. An input already in canonical form — every child list in
/// canonical order and its nodes numbered as the walk would number them,
/// as ParseTree numbers them — is moved through unchanged, with `content`
/// as its bytes.
Result<CanonicalForm> CanonicalizeValidated(AndXorTree tree,
                                            std::string_view content);

}  // namespace cpdb

#endif  // CPDB_MODEL_CANONICAL_H_
