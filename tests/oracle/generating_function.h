// Copyright 2026 The ConsensusDB Authors
//
// The generating-function fold over and/xor trees (Section 3.3, Theorem 1).
// Every probability computation in the paper instantiates this one fold with
// a different polynomial type and leaf-to-polynomial assignment:
//
//   * leaf v:        F_v = s(v)                         (the leaf's monomial)
//   * XOR node v:    F_v = (1 - sum_h p(v, v_h)) + sum_h p(v, v_h) F_{v_h}
//   * AND node v:    F_v = prod_h F_{v_h}
//
// Theorem 1: the coefficient of prod_j x_j^{i_j} in F_root is the total
// probability of the possible worlds containing exactly i_j leaves tagged
// with variable x_j, for all j.
//
// This header is the generic pointer-tree fold, kept as a test oracle: the
// library folds only through model/flat_tree.h, which compiles the same
// recurrence into a flat instruction stream over arena rows. The
// differential suites (tests/flat_tree_test.cc) pin the two bit for bit.

#ifndef CPDB_ORACLE_GENERATING_FUNCTION_H_
#define CPDB_ORACLE_GENERATING_FUNCTION_H_

#include <optional>
#include <utility>
#include <vector>

#include "model/and_xor_tree.h"

namespace cpdb {

/// \brief Instrumentation for EvalGeneratingFunction's slot recycling.
struct GenFunFoldStats {
  /// Peak number of simultaneously live intermediate polynomials. Bounded by
  /// O(depth × log fan-in), not O(nodes): a child's slot is recycled the
  /// moment its parent consumes it (a 20000-deep XOR chain peaks at 2, a
  /// 500-child AND of single-leaf XORs at 10).
  int max_live_slots = 0;
};

/// \brief Evaluates the generating function of `tree`.
///
/// \param tree       a validated and/xor tree.
/// \param leaf_poly  functor NodeId -> PolyT giving each leaf's polynomial
///                   (typically a variable monomial or the constant 1).
/// \param make_const functor double -> PolyT building a constant polynomial
///                   with the right truncation bounds.
/// \param stats      optional: receives the live-slot high-water mark.
///
/// PolyT must support operator*(PolyT, PolyT), AddScaled(PolyT, double) and
/// AddConstant(double). The fold is iterative (explicit frame stack) so
/// arbitrarily deep trees do not overflow the call stack.
///
/// Memory: intermediate polynomials live in a recycled slot pool. Each
/// parent consumes a child's result as soon as that child's subtree
/// completes — XOR children are AddScaled into the accumulator one by one,
/// AND children are multiplied as a binary counter of partial products —
/// and each consumed slot is immediately freed for reuse, so peak memory is
/// O(max live slots × poly bytes) instead of O(nodes × poly bytes).
///
/// The combination order is FlatTree::Compile's, so the two folds agree
/// bit for bit: a XOR starts from its leftover and AddScaled's its
/// children in child order. An AND's finished child is a partial of level
/// 0; while the newest earlier partial has the same level, the two multiply
/// into one of the next level (the earlier on the left). The partials left
/// at the end multiply from the newest back, the earlier on the left. Two
/// or three children multiply left to right; more form a balanced product
/// tree with at most ceil(log2 fan-in) + 1 partials live.
template <typename PolyT, typename LeafPolyFn, typename MakeConstFn>
PolyT EvalGeneratingFunction(const AndXorTree& tree, LeafPolyFn&& leaf_poly,
                             MakeConstFn&& make_const,
                             GenFunFoldStats* stats = nullptr) {
  // Slot pool with a LIFO free list; slot.size() only grows when every slot
  // is live, so it is exactly the live high-water mark.
  std::vector<std::optional<PolyT>> slot;
  std::vector<int> free_slots;
  auto alloc = [&]() {
    if (!free_slots.empty()) {
      int s = free_slots.back();
      free_slots.pop_back();
      return s;
    }
    slot.emplace_back();
    return static_cast<int>(slot.size()) - 1;
  };
  auto release = [&](int s) {
    slot[static_cast<size_t>(s)].reset();
    free_slots.push_back(s);
  };

  struct Frame {
    NodeId id;
    size_t next_child;
    int acc;  // XOR: accumulator slot; AND: the product's slot; -1 if none
    size_t partial_base;  // AND: its partials are partials[partial_base..]
  };
  struct Partial {
    int slot;
    int level;  // the product covers 2^level children
  };
  std::vector<Frame> stack = {Frame{tree.root(), 0, -1, 0}};
  std::vector<Partial> partials;  // every open AND's, innermost last
  int last = -1;  // result slot of the most recently completed subtree
  auto multiply = [&](int lhs, int rhs) {
    int out = alloc();
    slot[static_cast<size_t>(out)] =
        *slot[static_cast<size_t>(lhs)] * *slot[static_cast<size_t>(rhs)];
    release(lhs);
    release(rhs);
    return out;
  };

  while (!stack.empty()) {
    Frame& f = stack.back();
    const TreeNode& n = tree.node(f.id);

    if (n.kind == NodeKind::kLeaf) {
      int s = alloc();
      slot[static_cast<size_t>(s)] = leaf_poly(f.id);
      last = s;
      stack.pop_back();
      continue;
    }

    if (f.next_child > 0) {
      // The child that just completed sits in `last`; consume and free it.
      if (n.kind == NodeKind::kXor) {
        if (f.acc < 0) {
          // Accumulator is materialized lazily, at the first child's
          // completion, so a descending chain of XOR nodes holds no slots.
          double leftover = 1.0;
          for (double p : n.edge_probs) leftover -= p;
          f.acc = alloc();
          slot[static_cast<size_t>(f.acc)] = make_const(leftover);
        }
        slot[static_cast<size_t>(f.acc)]->AddScaled(
            *slot[static_cast<size_t>(last)], n.edge_probs[f.next_child - 1]);
        release(last);
      } else {
        Partial p{last, 0};
        while (partials.size() > f.partial_base &&
               partials.back().level == p.level) {
          p = Partial{multiply(partials.back().slot, p.slot), p.level + 1};
          partials.pop_back();
        }
        partials.push_back(p);
      }
    }

    if (f.next_child < n.children.size()) {
      const NodeId child = n.children[f.next_child];
      ++f.next_child;
      // push_back may invalidate `f`; it is not used past this point.
      stack.push_back(Frame{child, 0, -1, partials.size()});
      continue;
    }

    if (n.kind == NodeKind::kAnd) {
      f.acc = partials.back().slot;
      partials.pop_back();
      while (partials.size() > f.partial_base) {
        f.acc = multiply(partials.back().slot, f.acc);
        partials.pop_back();
      }
    }
    last = f.acc;
    stack.pop_back();
  }

  if (stats != nullptr) stats->max_live_slots = static_cast<int>(slot.size());
  return PolyT(std::move(*slot[static_cast<size_t>(last)]));
}

}  // namespace cpdb

#endif  // CPDB_ORACLE_GENERATING_FUNCTION_H_
