#ifndef CPDB_MODEL_FLAT_TREE_H_
#define CPDB_MODEL_FLAT_TREE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "model/and_xor_tree.h"
#include "model/types.h"
#include "poly/poly_arena.h"

// A flattened, cache-friendly compilation of a validated AndXorTree.
//
// This is the library's one generating-function fold. A pointer-tree fold
// (the test oracle EvalGeneratingFunction in tests/oracle/) re-walks
// parent/child pointers and allocates a fresh coefficient vector per node on
// every evaluation. FlatTree::Compile walks the tree ONCE and emits:
//
//   * an instruction stream of fixed-stride FlatOp records in evaluation
//     (post-order) order — evaluating the fold becomes one linear pass over
//     a contiguous array, no pointer chasing;
//   * compile-time slot lifetimes: each op names which scratch rows it reads
//     and writes, slot ids are assigned from a LIFO free list, and a child's
//     row is recycled the moment its parent consumes it, so num_slots() is
//     the fold's live high-water mark (O(depth), not O(nodes)) and all
//     scratch lives in one reusable PolyArena buffer;
//   * a leaf table (FlatLeaf) in left-to-right DFS order — identical to
//     AndXorTree::LeafIds() order — carrying (key, score, label, node id)
//     so per-target leaf classification is a linear scan over a packed
//     array, plus each leaf's precomputed marginal probability;
//   * precomputed XOR leftover mass per node (stored on the kXorInit op).
//
// Bitwise contract: EvalGeneratingFunction here performs the same arithmetic
// operations in the same order as the pointer fold — leaves combine into XOR
// accumulators via AddScaledRow in child order, AND children combine
// left-to-right via ConvolveRowsTruncated — so for identical leaf
// polynomials the resulting coefficients are bit-identical. Only the memory
// layout and allocation strategy change. The pointer fold lives on as the
// differential reference in tests/oracle/ (tests/flat_tree_test.cc).
// FlatRefold (below) keeps the same arithmetic but holds every row
// resident, so a fold that differs in a few zeroed leaves recomputes only
// their ancestors.
//
// A compiled FlatTree is immutable and safe to share across threads; each
// evaluating thread supplies its own PolyArena (see FlatFoldScratch()).

namespace cpdb {

enum class FlatOpKind : int32_t {
  kLeaf,      // zero row out_slot, then caller's leaf_init writes the monomial
  kXorInit,   // zero row out_slot, set coefficient 0 to `weight` (leftover)
  kXorAccum,  // row out_slot += weight * row arg_slot; frees arg_slot
  kMul,       // row out_slot = conv(row lhs_slot, row arg_slot); frees both
};

/// One fixed-stride instruction of the flattened fold.
struct FlatOp {
  FlatOpKind kind;
  int32_t out_slot;  // row written (kXorAccum: accumulated into)
  int32_t lhs_slot;  // kMul: left operand row; otherwise -1
  int32_t arg_slot;  // kMul: right operand row; kXorAccum: child row; else -1
  NodeId node;       // originating AndXorTree node (debugging / dump-flat)
  double weight;     // kXorInit: XOR leftover mass; kXorAccum: edge prob
};

/// One leaf record, in left-to-right DFS order (== AndXorTree::LeafIds()).
struct FlatLeaf {
  KeyId key;
  double score;
  int32_t label;
  NodeId node;       // originating AndXorTree node id
  int32_t op_index;  // index of this leaf's kLeaf op in ops()
  double marginal;   // Pr[leaf present]; bitwise == AndXorTree::LeafMarginal
};

class FlatTree {
 public:
  /// Compiles a validated tree. The tree must have passed Validate(); an
  /// unvalidated/empty tree yields an empty FlatTree (no ops, no leaves).
  static FlatTree Compile(const AndXorTree& tree);

  int num_leaves() const { return static_cast<int>(leaves_.size()); }
  int num_slots() const { return num_slots_; }
  int32_t root_slot() const { return root_slot_; }
  const std::vector<FlatOp>& ops() const { return ops_; }
  const std::vector<FlatLeaf>& leaves() const { return leaves_; }

  /// Runs the generating-function fold over coefficient rows of logical
  /// shape (max_dx + 1) × (max_dy + 1), row-major (Poly2 layout; Poly1 is
  /// max_dy == 0). For each leaf, in leaf-table order, `leaf_init(i, row)`
  /// is called with a zeroed row to write leaf i's polynomial. The root
  /// polynomial's coefficients are copied into `out` (length
  /// (max_dx + 1) * (max_dy + 1)). `arena` provides the scratch rows and is
  /// resized to this fold's geometry; pass FlatFoldScratch() on hot paths.
  void EvalGeneratingFunction(
      int max_dx, int max_dy,
      const std::function<void(int leaf_index, double* row)>& leaf_init,
      double* out, PolyArena* arena) const;

  /// Human-readable record table (op stream + leaf table), for
  /// `cpdb_cli dump-flat` and debugging.
  std::string ToString() const;

 private:
  std::vector<FlatOp> ops_;
  std::vector<FlatLeaf> leaves_;
  int32_t num_slots_ = 0;
  int32_t root_slot_ = -1;
};

/// This thread's reusable fold scratch. Hot paths evaluate many same-shaped
/// folds back to back (one per leaf, one per pairwise cell); routing them
/// all through one thread_local arena means zero-allocation steady state,
/// including across Engine::ParallelFor task boundaries on a pool thread.
PolyArena& FlatFoldScratch();

/// The resident-row form of a FlatTree's fold, for folds that differ from
/// a base fold only in a few zeroed leaves.
///
/// The constructor derives, once, the row graph of the op stream: one row
/// per leaf, per XOR node (its kXorInit accumulator plus every kXorAccum
/// into it) and per kMul product, each knowing its inputs and the one row
/// that consumes it, numbered so inputs come first. Fold() then runs the
/// fold with every row kept resident instead of slot-recycled.
/// RefoldZeroed() recomputes only the zeroed leaves' ancestors, in row
/// order, into overlay rows: a dirty row re-runs exactly its own ops (XOR:
/// init to the leftover, then AddScaledRow over its children in child
/// order; kMul: ConvolveRowsTruncated), reading clean inputs from the
/// resident rows. Every row is a pure function of its inputs' bits, and a
/// clean row's subtree holds no zeroed leaf, so the root is bitwise the
/// full EvalGeneratingFunction fold with those leaves' rows left zero.
///
/// Immutable after construction and shareable across threads; each thread
/// brings its own Scratch. `flat` must outlive the FlatRefold.
class FlatRefold {
 public:
  explicit FlatRefold(const FlatTree& flat);

  const FlatTree& flat() const { return *flat_; }

  /// One thread's refold state. The rows live in `rows` (resident ones
  /// first, then one overlay row each); the dirty marks are versioned, so
  /// starting a refold clears the previous one's marks in O(1).
  struct Scratch {
    explicit Scratch(PolyArena* rows_arena) : rows(rows_arena) {}
    PolyArena* rows;
    std::vector<uint32_t> stamp;  // stamp[r] == epoch: row r is dirty
    uint32_t epoch = 0;
    std::vector<int32_t> dirty;
    int max_dx = 0;
    int max_dy = 0;
  };

  /// The full fold, as FlatTree::EvalGeneratingFunction with the same
  /// geometry and leaf_init (called once per leaf, in unspecified order),
  /// keeping every row resident in `scratch`. Returns the root row, valid
  /// until the next Fold on `scratch`.
  const double* Fold(
      int max_dx, int max_dy,
      const std::function<void(int leaf_index, double* row)>& leaf_init,
      Scratch* scratch) const;

  /// The root row of the last Fold() on `scratch` with the leaves
  /// `zeroed` (leaf-table indices) replaced by the zero polynomial. The
  /// resident rows stay as Fold() left them, so refolds over different
  /// leaf sets may follow one another. The returned row is valid until
  /// the next Fold or RefoldZeroed on `scratch`.
  const double* RefoldZeroed(const std::vector<int>& zeroed,
                             Scratch* scratch) const;

 private:
  struct Row {
    FlatOpKind kind;  // kLeaf, kXorInit (the whole XOR node) or kMul
    int32_t parent;   // the row consuming this one; -1 at the root
    int32_t in_begin;  // inputs_[in_begin, in_end); kMul: {lhs, arg}
    int32_t in_end;
    int32_t leaf;   // kLeaf: leaf-table index
    double weight;  // kXorInit: the leftover mass
  };
  struct Input {
    int32_t row;
    double weight;  // kXorInit inputs: the edge probability
  };

  // Recomputes row r into `out`, reading each input from its overlay row
  // when it is dirty in `scratch`'s current epoch.
  void EvalRow(int32_t r, double* out, const Scratch& scratch) const;

  const FlatTree* flat_;
  std::vector<Row> rows_;  // inputs first; the root is last
  std::vector<Input> inputs_;
  std::vector<int32_t> leaf_row_;  // leaf-table index -> row
};

}  // namespace cpdb

#endif  // CPDB_MODEL_FLAT_TREE_H_
