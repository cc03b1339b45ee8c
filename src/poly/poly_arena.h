#ifndef CPDB_POLY_POLY_ARENA_H_
#define CPDB_POLY_POLY_ARENA_H_

#include <cstddef>
#include <vector>

// Arena scratch for the flattened generating-function fold, plus the shared
// raw-row convolution kernels that Poly1 multiplication, the flat fold and
// the pointer-fold test oracle (tests/oracle/, with its Poly2) all compile
// down to.
//
// The pointer-tree fold heap-allocates one coefficient vector per tree node.
// The flat fold instead works on a fixed number of equally sized coefficient
// rows ("slots") whose lifetimes were computed when the tree was compiled
// (see model/flat_tree.h): a child's row is recycled the moment its parent
// consumes it, so the working set is O(max live slots), not O(nodes). The
// arena owns one contiguous buffer of num_slots × row_len doubles and is
// grow-only: repeated folds over same-shaped problems reuse the same
// allocation, so a steady-state serving loop performs no per-query heap
// traffic for polynomial scratch.

namespace cpdb {

#if defined(__GNUC__) || defined(__clang__)
#define CPDB_RESTRICT __restrict__
#else
#define CPDB_RESTRICT
#endif

/// out[i] += scale * src[i] for i in [0, n). Matches Poly1/Poly2::AddScaled
/// elementwise (ascending index order), so substituting it for those loops
/// cannot change a single output bit.
void AddScaledRow(double* CPDB_RESTRICT out, const double* CPDB_RESTRICT src,
                  double scale, int n);

/// Truncated bivariate convolution, accumulated into `out`:
///
///   out[ia+ib, ja+jb] += a[ia, ja] * b[ib, jb]
///
/// over all index pairs with ia+ib <= max_dx and ja+jb <= max_dy, where rows
/// are laid out row-major with stride (max_dy + 1) — exactly Poly2's layout
/// (Poly1 is the max_dy == 0 special case). `out` must be distinct from both
/// operands and is accumulated into, not overwritten; callers zero it first.
///
/// Bitwise contract: the result is bit-identical to the historical
/// Poly2::operator* nested loop (and Poly1's degree-limited variant). Two
/// loop-shape changes are made for vectorization, and neither can move a bit:
///
///  1. a-elements are visited in the same ascending (ia, ja) row-major order
///     as before and each contributes at most one term per output cell, so
///     the sequence of nonzero terms accumulated into any given out cell is
///     unchanged.
///  2. Zero skipping moves from per-b-element tests (`if (cb == 0) continue`,
///     and Poly1's Degree() bounds) to a-row granularity. The extra terms
///     this admits are all of the form acc += ca * 0.0, i.e. adding ±0.0.
///     Every out cell starts at +0.0 and is only ever += into; under
///     round-to-nearest an accumulator that starts at +0.0 can never become
///     -0.0 (x + y is -0.0 only when both operands are -0.0, and exact
///     cancellation yields +0.0), and adding ±0.0 to a value that is not
///     -0.0 returns it unchanged. So the admitted terms are bitwise no-ops.
///
/// The ja == 0 column is the hot case (every leaf polynomial the fold builds
/// is a monomial with a single nonzero in column 0 or 1): there the inner
/// accumulation collapses to one contiguous fused-multiply-add loop over
/// (max_dx - ia + 1) * stride doubles, which autovectorizes.
///
/// Coefficients are assumed finite (parse-time validation rejects
/// non-finite inputs); with an Inf operand the relaxed zero-skip could
/// manufacture NaNs the old loop avoided.
void ConvolveRowsTruncated(const double* CPDB_RESTRICT a,
                           const double* CPDB_RESTRICT b,
                           double* CPDB_RESTRICT out, int max_dx, int max_dy);

/// A pool of equally sized coefficient rows backing one flat fold.
///
/// Reserve(num_slots, row_len) establishes the current geometry; Row(slot)
/// returns the backing storage for a slot id in [0, num_slots). Rows are
/// handed out uninitialized — the flat instruction stream zeroes every row
/// before first use — and the underlying buffer only ever grows, so a
/// thread_local arena reaches zero-allocation steady state after the largest
/// fold shape it has seen.
class PolyArena {
 public:
  PolyArena() = default;

  // Movable, not copyable: an arena is scratch identity, not a value.
  PolyArena(const PolyArena&) = delete;
  PolyArena& operator=(const PolyArena&) = delete;
  PolyArena(PolyArena&&) = default;
  PolyArena& operator=(PolyArena&&) = default;

  /// Sets the row geometry for subsequent Row() calls, growing the backing
  /// buffer if this fold needs more than any previous one. Contents of the
  /// rows are unspecified afterwards.
  void Reserve(int num_slots, int row_len);

  double* Row(int slot) {
    return buf_.data() + static_cast<size_t>(slot) * row_len_;
  }
  const double* Row(int slot) const {
    return buf_.data() + static_cast<size_t>(slot) * row_len_;
  }

  int num_slots() const { return num_slots_; }
  int row_len() const { return row_len_; }

  /// Bytes currently held by the backing buffer (high-water, not the last
  /// Reserve geometry) — exposed for tests pinning the working-set claim.
  size_t CapacityBytes() const { return buf_.capacity() * sizeof(double); }

 private:
  std::vector<double> buf_;
  int num_slots_ = 0;
  int row_len_ = 0;
};

}  // namespace cpdb

#endif  // CPDB_POLY_POLY_ARENA_H_
