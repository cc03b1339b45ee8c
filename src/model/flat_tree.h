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
// (the test oracle in tests/oracle/generating_function.h) re-walks
// parent/child pointers and allocates a fresh coefficient vector per node on
// every evaluation. FlatTree::Compile walks the tree ONCE and emits:
//
//   * an instruction stream of fixed-stride FlatOp records in evaluation
//     (post-order) order — evaluating the fold becomes one linear pass over
//     a contiguous array, no pointer chasing;
//   * compile-time slot lifetimes: each op names which scratch rows it reads
//     and writes, slot ids are assigned from a LIFO free list, and a child's
//     row is recycled the moment its parent consumes it, so num_slots() is
//     the op stream's live high-water mark (O(depth × log fan-in), not
//     O(nodes)) and a one-shot fold needs only that many rows;
//   * a leaf table (FlatLeaf) in left-to-right DFS order — identical to
//     AndXorTree::LeafIds() order — carrying (key, score, label, node id)
//     so per-target leaf classification is a linear scan over a packed
//     array, plus each leaf's precomputed marginal probability;
//   * precomputed XOR leftover mass per node (stored on the kXorInit op).
//
// FlatRefold (below) is the op stream's one executor, over monomial
// leaves: FoldOnce() runs the stream in its recycled slots, for folds that
// are read once; Fold() holds every row resident, so a later fold that
// differs in a few leaves recomputes only their ancestors.
//
// Bitwise contract: a fold here performs the same arithmetic operations in
// the same order as the pointer fold — leaves combine into XOR accumulators
// via AddScaledRow in child order, and AND children multiply via
// ConvolveRowsTruncated as balanced products, not left to right: a binary
// counter pairs equal-sized partial products as children finish, earlier
// on the left, then multiplies the partials left from the newest back (see
// Compile) — so for identical leaf polynomials the resulting coefficients
// are bit-identical. An AND of two or three children multiplies left to
// right either way. Only the memory layout and allocation strategy change.
// The pointer fold lives on as the differential reference in tests/oracle/
// (tests/flat_tree_test.cc).
//
// A compiled FlatTree is immutable and safe to share across threads; each
// evaluating thread supplies its own scratch.

namespace cpdb {

enum class FlatOpKind : int32_t {
  kLeaf,      // row out_slot holds the leaf's polynomial
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
  double marginal;   // Pr[leaf present]; bitwise == tree.LeafMarginals()
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

  /// Human-readable record table (op stream + leaf table), for
  /// `cpdb_cli dump-flat` and debugging.
  std::string ToString() const;

 private:
  std::vector<FlatOp> ops_;
  std::vector<FlatLeaf> leaves_;
  int32_t num_slots_ = 0;
  int32_t root_slot_ = -1;
};

/// The resident-row form of a FlatTree's fold, for folds that differ from
/// a base fold only in a few leaves, each leaf a monomial.
///
/// The constructor derives, once, the row graph of the op stream: one row
/// per leaf, per XOR node (its kXorInit accumulator plus every kXorAccum
/// into it) and per kMul product, each knowing its inputs and the one row
/// that consumes it, numbered so inputs come first. Fold() then runs the
/// fold with every row kept resident instead of slot-recycled. Leaf
/// polynomials are unit monomials, so a leaf row is not stored: it reads
/// one of the scratch's shared unit rows. Refold() re-sets a leaf set's
/// monomials and recomputes only those leaves' ancestors, in row order,
/// into overlay rows: a dirty row re-runs exactly its own ops (XOR: init to
/// the leftover, then AddScaledRow over its children in child order; kMul:
/// ConvolveRowsTruncated), reading clean inputs from the resident rows.
/// Every row is a pure function of its inputs' bits, and a clean row's
/// subtree holds no re-set leaf, so the root is bitwise the full Fold()
/// with those leaves' rows holding the new monomials. Commit() makes such a
/// change permanent by recomputing the same rows in place. FoldOnce() runs
/// the same fold without the row graph, so without a FlatRefold, over the
/// op stream's recycled slots, for folds no refold follows.
///
/// Immutable after construction and shareable across threads; each thread
/// brings its own Scratch. `flat` must outlive the FlatRefold.
class FlatRefold {
 public:
  /// A leaf's polynomial: the row-major index (max_dy + 1) * i + j of its
  /// one coefficient x^i y^j, which is 1. An index outside the row (-1, or
  /// a power beyond the truncation) is the zero polynomial.
  using LeafTerm = std::function<int(int leaf_index)>;

  explicit FlatRefold(const FlatTree& flat);

  const FlatTree& flat() const { return *flat_; }

  /// One refold's state, used by one thread at a time: the resident rows
  /// in `rows` (one per non-leaf row of the graph), the leaf monomials in
  /// `units`, each leaf's resident unit row, and one `overlay` row per
  /// dirty non-leaf row of the last Refold (or the last FoldOnce's slot
  /// rows). The dirty marks are versioned, so starting a refold clears the
  /// previous one's marks in O(1).
  struct Scratch {
    PolyArena rows;
    // Row 0 is the zero polynomial and row 1 the two-term leaf of the
    // running CommitAndQuery; row t + 2 holds term t's monomial for every
    // term t < unit_terms (added on first use).
    PolyArena units;
    int32_t unit_terms = 0;
    PolyArena overlay;
    std::vector<int32_t> leaf_unit;  // leaf -> its resident unit row
    std::vector<uint32_t> stamp;  // stamp[r] == epoch: row r is dirty
    // Dirty row r: its overlay row, or for a leaf row its unit row.
    std::vector<int32_t> overlay_row;
    uint32_t epoch = 0;
    std::vector<int32_t> dirty;  // the dirty rows, ascending
    int max_dx = 0;
    int max_dy = 0;

    /// Bytes held by the three coefficient arenas.
    size_t CapacityBytes() const {
      return rows.CapacityBytes() + units.CapacityBytes() +
             overlay.CapacityBytes();
    }
  };

  /// Sizes every buffer of `scratch` for a Fold of this geometry and
  /// refolds of one leaf at a time. Fold, Refold and Commit grow a scratch
  /// on demand anyway; reserving first lets one thread allocate a scratch
  /// that another then uses without allocating.
  void Reserve(int max_dx, int max_dy, Scratch* scratch) const;

  /// The full fold over coefficient rows of logical shape
  /// (max_dx + 1) × (max_dy + 1), row-major (Poly2 layout; Poly1 is
  /// max_dy == 0), each leaf's row holding the monomial `leaf_term` names
  /// (called once per leaf, in leaf order), keeping every row resident in
  /// `scratch`. An empty tree folds to the zero row. Returns the root row,
  /// valid until the next Fold or Commit on `scratch`.
  const double* Fold(int max_dx, int max_dy, const LeafTerm& leaf_term,
                     Scratch* scratch) const;

  /// Fold()'s root row, bitwise, computed in the op stream's order in
  /// FlatTree::num_slots() recycled rows instead of one resident row per
  /// node: for folds that are read once, whose width would make resident
  /// rows costly (Lemma 1's rows are (|W| + 1) × (L − |W| + 1)). Uses only
  /// `scratch`'s overlay rows, so a resident fold in it stays as it is.
  /// The returned row is valid until the next call on `scratch`.
  static const double* FoldOnce(const FlatTree& flat, int max_dx, int max_dy,
                                const LeafTerm& leaf_term, Scratch* scratch);

  /// The root row of the resident fold with the leaves `leaves`
  /// (leaf-table indices) set to the monomials `leaf_term` names. The
  /// resident rows are left as they are, so refolds over different leaf
  /// sets may follow one another. The returned row is valid until the next
  /// Fold, Refold or Commit on `scratch`.
  const double* Refold(const std::vector<int>& leaves,
                       const LeafTerm& leaf_term, Scratch* scratch) const;

  /// Sets `leaves` as Refold() does, but in the resident rows: every row on
  /// their root paths is recomputed in place, in row order, so later
  /// folds, refolds and commits start from the changed leaves.
  void Commit(const std::vector<int>& leaves, const LeafTerm& leaf_term,
              Scratch* scratch) const;

  /// Commit() of `leaf` to the term `commit` and Refold() of it to the
  /// term `query`, in one in-place pass over its root path. For rows with
  /// max_dy == 1 whose resident y^1 columns are all +0.0, as every Fold and
  /// Commit to y^0-column terms leaves them; `commit` must lie in the y^0
  /// column (an even index) and `query` in the y^1 column (an odd index).
  /// The pass sets the leaf to the two-term polynomial commit + query. A
  /// y^0 cell takes terms only from its inputs' y^0 cells, so every path
  /// row's y^0 column is bitwise Commit()'s. A y^1 cell takes the terms of
  /// Refold()'s y^1 cell plus, in products, a path row's y^0 cell times a
  /// clean sibling's +0.0 y^1 cell: ±0.0 terms added to accumulators that
  /// are never -0.0, which move no bit (see RankDistributionScan). So the
  /// root's y^1 column is bitwise Refold()'s; it is copied into
  /// `query_column` (max_dx + 1 values, x^0 first). The pass then clears
  /// each path row's y^1 column to +0.0, which is what Commit() leaves.
  void CommitAndQuery(int leaf, int commit, int query, double* query_column,
                      Scratch* scratch) const;

 private:
  struct Row {
    FlatOpKind kind;  // kLeaf, kXorInit (the whole XOR node) or kMul
    int32_t parent;   // the row consuming this one; -1 at the root
    int32_t in_begin;  // inputs_[in_begin, in_end); kMul: {lhs, arg}
    int32_t in_end;
    int32_t leaf;      // kLeaf: leaf-table index
    int32_t resident;  // otherwise: its row in Scratch::rows
    double weight;     // kXorInit: the leftover mass
  };
  struct Input {
    int32_t row;
    double weight;  // kXorInit inputs: the edge probability
  };

  // Marks `leaves` and their ancestors dirty in a new epoch and lists the
  // dirty rows, ascending, in scratch->dirty.
  void MarkPaths(const std::vector<int>& leaves, Scratch* scratch) const;

  // Row r's coefficients: a leaf row's unit row; otherwise its overlay row
  // when it is dirty in `scratch`'s current epoch, else its resident row.
  const double* RowData(int32_t r, const Scratch& scratch) const;

  // Recomputes non-leaf row r into `out` from its inputs' RowData.
  void EvalRow(int32_t r, double* out, const Scratch& scratch) const;

  const FlatTree* flat_;
  std::vector<Row> rows_;  // inputs first; the root is last
  std::vector<Input> inputs_;
  std::vector<int32_t> leaf_row_;  // leaf-table index -> row
  int32_t num_resident_ = 0;       // non-leaf rows
  int32_t max_path_ = 0;  // the most non-leaf rows on one leaf's root path
};

/// This thread's reusable refold state, for refold users that run as pool
/// tasks (the Kendall q columns) and for one-shot folds (Lemma 1, the
/// clustering co-occurrence folds), whose slot rows it keeps allocated from
/// one fold to the next. Safe because no such user calls back into a
/// thread pool while its rows are live: nothing else can run on the thread
/// between its Fold and its last refold, or inside a FoldOnce.
FlatRefold::Scratch& FlatRefoldScratch();

}  // namespace cpdb

#endif  // CPDB_MODEL_FLAT_TREE_H_
