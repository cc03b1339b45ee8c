#include "model/flat_tree.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace cpdb {

namespace {

// Compile-time slot allocator: LIFO free list over a dense id space. LIFO
// keeps recycled rows hot in cache (the row a parent just consumed is the
// first one handed back out).
class SlotAllocator {
 public:
  int32_t Alloc() {
    if (!free_.empty()) {
      int32_t s = free_.back();
      free_.pop_back();
      return s;
    }
    return next_++;
  }
  void Release(int32_t slot) { free_.push_back(slot); }
  int32_t high_water() const { return next_; }

 private:
  std::vector<int32_t> free_;
  int32_t next_ = 0;
};

const char* KindName(FlatOpKind kind) {
  switch (kind) {
    case FlatOpKind::kLeaf:
      return "leaf";
    case FlatOpKind::kXorInit:
      return "xor_init";
    case FlatOpKind::kXorAccum:
      return "xor_accum";
    case FlatOpKind::kMul:
      return "mul";
  }
  return "?";
}

}  // namespace

FlatTree FlatTree::Compile(const AndXorTree& tree) {
  FlatTree flat;
  if (tree.root() == kInvalidNode) return flat;

  // Iterative DFS with an interleaved consume-and-free schedule: a parent
  // consumes each child's result as soon as that child completes (instead
  // of waiting for all siblings). A XOR adds it to its accumulator, which
  // is allocated lazily at the first child's completion, so a chain of XOR
  // nodes does not pre-allocate an accumulator per level on the way down.
  // An AND multiplies its children as a binary counter: each finished
  // child is a partial product of level 0, and while the newest earlier
  // partial has the same level the two multiply into one of the next
  // level, the earlier on the left. When the children run out, the
  // partials left (at most one per level, levels falling) multiply from
  // the newest back, the earlier on the left. Two or three children thus
  // multiply left to right; more form a balanced product tree, so a leaf's
  // root path crosses O(log fan-in) products and an AND keeps at most
  // ceil(log2 fan-in) + 1 partials live.
  struct Frame {
    NodeId id;
    size_t next_child;
    int32_t acc_slot;  // XOR: accumulator; AND: the product; -1 if none
    size_t partial_base;  // AND: its partials are partials[partial_base..]
    double path_prob;  // product of XOR edge probs root -> this node
  };
  struct Partial {
    int32_t slot;
    int32_t level;  // the product covers 2^level children
  };

  SlotAllocator slots;
  std::vector<Frame> stack;
  std::vector<Partial> partials;  // every open AND's, innermost last
  stack.push_back(Frame{tree.root(), 0, -1, 0, 1.0});
  int32_t last_slot = -1;  // result slot of the most recently completed node
  auto multiply = [&](int32_t lhs, int32_t rhs, NodeId node) {
    const int32_t out = slots.Alloc();
    flat.ops_.push_back(FlatOp{FlatOpKind::kMul, out, lhs, rhs, node, 0.0});
    slots.Release(lhs);
    slots.Release(rhs);
    return out;
  };

  while (!stack.empty()) {
    Frame& f = stack.back();
    const TreeNode& n = tree.node(f.id);

    if (n.kind == NodeKind::kLeaf) {
      int32_t s = slots.Alloc();
      flat.ops_.push_back(FlatOp{FlatOpKind::kLeaf, s, -1, -1, f.id, 0.0});
      flat.leaves_.push_back(FlatLeaf{
          n.leaf.key, n.leaf.score, n.leaf.label, f.id,
          static_cast<int32_t>(flat.ops_.size()) - 1, f.path_prob});
      last_slot = s;
      stack.pop_back();
      continue;
    }

    if (f.next_child > 0) {
      // The child evaluated on the previous iteration finished in last_slot;
      // fold it into this node and recycle its row.
      if (n.kind == NodeKind::kXor) {
        if (f.acc_slot < 0) {
          // First child done: materialize the accumulator seeded with the
          // leftover mass 1 - sum(edge_probs). Same subtraction order as the
          // pointer fold.
          double leftover = 1.0;
          for (double p : n.edge_probs) leftover -= p;
          f.acc_slot = slots.Alloc();
          flat.ops_.push_back(FlatOp{FlatOpKind::kXorInit, f.acc_slot, -1, -1,
                                     f.id, leftover});
        }
        flat.ops_.push_back(FlatOp{FlatOpKind::kXorAccum, f.acc_slot, -1,
                                   last_slot, f.id,
                                   n.edge_probs[f.next_child - 1]});
        slots.Release(last_slot);
      } else {
        Partial p{last_slot, 0};
        while (partials.size() > f.partial_base &&
               partials.back().level == p.level) {
          p = Partial{multiply(partials.back().slot, p.slot, f.id),
                      p.level + 1};
          partials.pop_back();
        }
        partials.push_back(p);
      }
    }

    if (f.next_child < n.children.size()) {
      const NodeId child = n.children[f.next_child];
      // Leaf marginals multiply only at XOR edges; the pointer walk's
      // AND-edge factor is exactly 1.0 and p * 1.0 == p bitwise, so
      // skipping it preserves LeafMarginal()'s bits.
      const double child_prob = n.kind == NodeKind::kXor
                                    ? f.path_prob * n.edge_probs[f.next_child]
                                    : f.path_prob;
      ++f.next_child;
      // Note: push_back may invalidate `f`; it is not used past this point.
      stack.push_back(Frame{child, 0, -1, partials.size(), child_prob});
      continue;
    }

    if (n.kind == NodeKind::kAnd) {
      f.acc_slot = partials.back().slot;
      partials.pop_back();
      while (partials.size() > f.partial_base) {
        f.acc_slot = multiply(partials.back().slot, f.acc_slot, f.id);
        partials.pop_back();
      }
    }
    last_slot = f.acc_slot;
    stack.pop_back();
  }

  flat.root_slot_ = last_slot;
  flat.num_slots_ = slots.high_water();
  return flat;
}

std::string FlatTree::ToString() const {
  std::string s;
  char line[160];
  std::snprintf(line, sizeof(line),
                "flat_tree ops=%zu leaves=%zu slots=%d root_slot=%d\n",
                ops_.size(), leaves_.size(), num_slots_, root_slot_);
  s += line;
  s += "  op   kind       out  lhs  arg  node  weight\n";
  for (size_t i = 0; i < ops_.size(); ++i) {
    const FlatOp& op = ops_[i];
    std::snprintf(line, sizeof(line), "  %-4zu %-10s %-4d %-4d %-4d %-5d %.17g\n",
                  i, KindName(op.kind), op.out_slot, op.lhs_slot, op.arg_slot,
                  op.node, op.weight);
    s += line;
  }
  s += "  leaf key  score                  label  node  op    marginal\n";
  for (size_t i = 0; i < leaves_.size(); ++i) {
    const FlatLeaf& leaf = leaves_[i];
    std::snprintf(line, sizeof(line),
                  "  %-4zu %-4d %-22.17g %-6d %-5d %-5d %.17g\n", i, leaf.key,
                  leaf.score, leaf.label, leaf.node, leaf.op_index,
                  leaf.marginal);
    s += line;
  }
  return s;
}

FlatRefold::FlatRefold(const FlatTree& flat) : flat_(&flat) {
  if (flat.root_slot() < 0) return;
  // Replay the op stream tracking which draft row each slot holds; drafts
  // number in op order. A row is numbered when its consumer reads it, and
  // the root last: every input is consumed while the row reading it is
  // still being built, so inputs always number below their consumer. Each
  // draft is consumed once (or is the root), so this numbers every draft.
  struct Edge {
    int32_t consumer;  // drafts
    int32_t input;
    double weight;
  };
  const std::vector<FlatOp>& ops = flat.ops();
  std::vector<int32_t> slot_draft(static_cast<size_t>(flat.num_slots()), -1);
  std::vector<Row> drafts;
  std::vector<Edge> edges;  // in op order, hence child order per consumer
  drafts.reserve(ops.size());
  edges.reserve(ops.size());
  int32_t next_leaf = 0;
  auto open = [&](int32_t slot, FlatOpKind kind, int32_t leaf, double weight) {
    slot_draft[static_cast<size_t>(slot)] = static_cast<int32_t>(drafts.size());
    drafts.push_back(Row{kind, -1, 0, 0, leaf, -1, weight});
  };
  auto consume = [&](int32_t slot, int32_t consumer, double weight) {
    edges.push_back(
        Edge{consumer, slot_draft[static_cast<size_t>(slot)], weight});
  };
  for (const FlatOp& op : ops) {
    switch (op.kind) {
      case FlatOpKind::kLeaf:
        open(op.out_slot, FlatOpKind::kLeaf, next_leaf++, 0.0);
        break;
      case FlatOpKind::kXorInit:
        open(op.out_slot, FlatOpKind::kXorInit, -1, op.weight);
        break;
      case FlatOpKind::kXorAccum:
        consume(op.arg_slot, slot_draft[static_cast<size_t>(op.out_slot)],
                op.weight);
        break;
      case FlatOpKind::kMul: {
        const int32_t product = static_cast<int32_t>(drafts.size());
        consume(op.lhs_slot, product, 0.0);
        consume(op.arg_slot, product, 0.0);
        open(op.out_slot, FlatOpKind::kMul, -1, 0.0);
        break;
      }
    }
  }

  std::vector<int32_t> number(drafts.size(), -1);
  for (size_t i = 0; i < edges.size(); ++i) {
    number[static_cast<size_t>(edges[i].input)] = static_cast<int32_t>(i);
  }
  number[static_cast<size_t>(slot_draft[static_cast<size_t>(flat.root_slot())])] =
      static_cast<int32_t>(edges.size());
  rows_.resize(drafts.size());
  leaf_row_.assign(static_cast<size_t>(flat.num_leaves()), -1);
  for (size_t d = 0; d < drafts.size(); ++d) {
    rows_[static_cast<size_t>(number[d])] = drafts[d];
  }
  for (size_t r = 0; r < rows_.size(); ++r) {
    Row& row = rows_[r];
    if (row.kind == FlatOpKind::kLeaf) {
      leaf_row_[static_cast<size_t>(row.leaf)] = static_cast<int32_t>(r);
    } else {
      row.resident = num_resident_++;
    }
  }
  // Inputs grouped by consumer row, in row order; within a row, in op
  // order. in_end counts first, then serves as each row's fill cursor.
  for (const Edge& e : edges) {
    ++rows_[static_cast<size_t>(number[static_cast<size_t>(e.consumer)])]
          .in_end;
  }
  int32_t begin = 0;
  for (Row& row : rows_) {
    row.in_begin = begin;
    begin += row.in_end;
    row.in_end = row.in_begin;
  }
  inputs_.resize(edges.size());
  for (const Edge& e : edges) {
    const int32_t consumer = number[static_cast<size_t>(e.consumer)];
    const int32_t input = number[static_cast<size_t>(e.input)];
    inputs_[static_cast<size_t>(rows_[static_cast<size_t>(consumer)].in_end++)] =
        Input{input, e.weight};
    rows_[static_cast<size_t>(input)].parent = consumer;
  }
  // Ancestor counts, root first: every parent numbers above its inputs.
  std::vector<int32_t> ancestors(rows_.size(), 0);
  for (size_t r = rows_.size() - 1; r-- > 0;) {
    ancestors[r] = ancestors[static_cast<size_t>(rows_[r].parent)] + 1;
    max_path_ = std::max(max_path_, ancestors[r]);
  }
}

namespace {

int RowLen(const FlatRefold::Scratch& scratch) {
  return (scratch.max_dx + 1) * (scratch.max_dy + 1);
}

// The units row of the running CommitAndQuery's two-term leaf.
constexpr int32_t kTwoTermRow = 1;

// The row of scratch->units holding `term`'s monomial, adding unit rows up
// to it on first use; a term outside the row is the zero polynomial.
int32_t UnitRowOf(int32_t term, FlatRefold::Scratch* scratch) {
  const int row_len = RowLen(*scratch);
  if (term < 0 || term >= row_len) return 0;
  if (term >= scratch->unit_terms) {
    scratch->unit_terms = term + 1;
    scratch->units.Reserve(term + 3, row_len);
    for (int32_t t = 0; t <= term + 2; ++t) {
      if (t == kTwoTermRow) continue;
      double* unit = scratch->units.Row(t);
      std::fill(unit, unit + row_len, 0.0);
      if (t > kTwoTermRow) unit[t - 2] = 1.0;
    }
  }
  return term + 2;
}

// Starts a new dirty-mark epoch: every earlier mark stops matching.
void NextEpoch(FlatRefold::Scratch* scratch, size_t num_rows) {
  if (scratch->stamp.size() < num_rows) {
    scratch->stamp.resize(num_rows, 0);
    scratch->overlay_row.resize(num_rows, -1);
  }
  if (++scratch->epoch == 0) {
    std::fill(scratch->stamp.begin(), scratch->stamp.end(), 0);
    scratch->epoch = 1;
  }
}

}  // namespace

const double* FlatRefold::RowData(int32_t r, const Scratch& scratch) const {
  const Row& row = rows_[static_cast<size_t>(r)];
  const bool dirty = scratch.stamp[static_cast<size_t>(r)] == scratch.epoch;
  if (row.kind == FlatOpKind::kLeaf) {
    return scratch.units.Row(
        dirty ? scratch.overlay_row[static_cast<size_t>(r)]
              : scratch.leaf_unit[static_cast<size_t>(row.leaf)]);
  }
  return dirty ? scratch.overlay.Row(scratch.overlay_row[static_cast<size_t>(r)])
               : scratch.rows.Row(row.resident);
}

void FlatRefold::EvalRow(int32_t r, double* out, const Scratch& scratch) const {
  const Row& row = rows_[static_cast<size_t>(r)];
  const int row_len = RowLen(scratch);
  std::fill(out, out + row_len, 0.0);
  if (row.kind == FlatOpKind::kXorInit) {
    out[0] = row.weight;
    for (int32_t i = row.in_begin; i < row.in_end; ++i) {
      const Input& in = inputs_[static_cast<size_t>(i)];
      AddScaledRow(out, RowData(in.row, scratch), in.weight, row_len);
    }
  } else {  // kMul
    ConvolveRowsTruncated(
        RowData(inputs_[static_cast<size_t>(row.in_begin)].row, scratch),
        RowData(inputs_[static_cast<size_t>(row.in_begin) + 1].row, scratch),
        out, scratch.max_dx, scratch.max_dy);
  }
}

const double* FlatRefold::Fold(int max_dx, int max_dy,
                               const LeafTerm& leaf_term,
                               Scratch* scratch) const {
  scratch->max_dx = max_dx;
  scratch->max_dy = max_dy;
  const int row_len = RowLen(*scratch);
  scratch->unit_terms = 0;
  scratch->units.Reserve(kTwoTermRow + 1, row_len);
  std::fill(scratch->units.Row(0), scratch->units.Row(0) + row_len, 0.0);
  scratch->rows.Reserve(num_resident_, row_len);
  NextEpoch(scratch, rows_.size());  // nothing is dirty in the base fold
  if (rows_.empty()) return scratch->units.Row(0);
  scratch->leaf_unit.resize(leaf_row_.size());
  for (size_t l = 0; l < leaf_row_.size(); ++l) {
    scratch->leaf_unit[l] = UnitRowOf(leaf_term(static_cast<int>(l)), scratch);
  }
  for (size_t r = 0; r < rows_.size(); ++r) {
    if (rows_[r].kind == FlatOpKind::kLeaf) continue;
    EvalRow(static_cast<int32_t>(r), scratch->rows.Row(rows_[r].resident),
            *scratch);
  }
  return RowData(static_cast<int32_t>(rows_.size()) - 1, *scratch);
}

const double* FlatRefold::FoldOnce(const FlatTree& flat, int max_dx,
                                   int max_dy, const LeafTerm& leaf_term,
                                   Scratch* scratch) {
  const int row_len = (max_dx + 1) * (max_dy + 1);
  PolyArena& slots = scratch->overlay;
  slots.Reserve(std::max(flat.num_slots(), 1), row_len);
  if (flat.root_slot() < 0) {
    std::fill(slots.Row(0), slots.Row(0) + row_len, 0.0);
    return slots.Row(0);
  }
  int leaf = 0;
  for (const FlatOp& op : flat.ops()) {
    double* o = slots.Row(op.out_slot);
    if (op.kind == FlatOpKind::kXorAccum) {
      AddScaledRow(o, slots.Row(op.arg_slot), op.weight, row_len);
      continue;
    }
    std::fill(o, o + row_len, 0.0);
    if (op.kind == FlatOpKind::kLeaf) {
      const int term = leaf_term(leaf++);
      if (term >= 0 && term < row_len) o[term] = 1.0;
    } else if (op.kind == FlatOpKind::kXorInit) {
      o[0] = op.weight;
    } else {  // kMul
      ConvolveRowsTruncated(slots.Row(op.lhs_slot), slots.Row(op.arg_slot), o,
                            max_dx, max_dy);
    }
  }
  return slots.Row(flat.root_slot());
}

void FlatRefold::Reserve(int max_dx, int max_dy, Scratch* scratch) const {
  const int row_len = (max_dx + 1) * (max_dy + 1);
  scratch->rows.Reserve(num_resident_, row_len);
  scratch->overlay.Reserve(max_path_, row_len);
  scratch->leaf_unit.reserve(leaf_row_.size());
  scratch->dirty.reserve(rows_.size());
  NextEpoch(scratch, rows_.size());
}

void FlatRefold::MarkPaths(const std::vector<int>& leaves,
                           Scratch* scratch) const {
  NextEpoch(scratch, rows_.size());
  // Mark each leaf and its ancestors, stopping where an earlier leaf's
  // walk already marked the rest of the path.
  scratch->dirty.clear();
  for (int leaf : leaves) {
    for (int32_t r = leaf_row_[static_cast<size_t>(leaf)];
         r >= 0 && scratch->stamp[static_cast<size_t>(r)] != scratch->epoch;
         r = rows_[static_cast<size_t>(r)].parent) {
      scratch->stamp[static_cast<size_t>(r)] = scratch->epoch;
      scratch->dirty.push_back(r);
    }
  }
  // Row order puts inputs first, so sorted dirty rows recompute in a valid
  // post-order.
  std::sort(scratch->dirty.begin(), scratch->dirty.end());
}

const double* FlatRefold::Refold(const std::vector<int>& leaves,
                                 const LeafTerm& leaf_term,
                                 Scratch* scratch) const {
  if (rows_.empty()) return scratch->units.Row(0);
  MarkPaths(leaves, scratch);
  int32_t overlay_rows = 0;
  for (int32_t r : scratch->dirty) {
    const Row& row = rows_[static_cast<size_t>(r)];
    scratch->overlay_row[static_cast<size_t>(r)] =
        row.kind == FlatOpKind::kLeaf ? UnitRowOf(leaf_term(row.leaf), scratch)
                                      : overlay_rows++;
  }
  scratch->overlay.Reserve(overlay_rows, RowLen(*scratch));
  for (int32_t r : scratch->dirty) {
    if (rows_[static_cast<size_t>(r)].kind == FlatOpKind::kLeaf) continue;
    EvalRow(r, scratch->overlay.Row(scratch->overlay_row[static_cast<size_t>(r)]),
            *scratch);
  }
  return RowData(static_cast<int32_t>(rows_.size()) - 1, *scratch);
}

void FlatRefold::Commit(const std::vector<int>& leaves,
                        const LeafTerm& leaf_term, Scratch* scratch) const {
  if (rows_.empty()) return;
  MarkPaths(leaves, scratch);
  for (int leaf : leaves) {
    scratch->leaf_unit[static_cast<size_t>(leaf)] =
        UnitRowOf(leaf_term(leaf), scratch);
  }
  // In place: clear the marks so every input reads its resident row. Rows
  // recompute in row order, so a dirty input is already rewritten.
  NextEpoch(scratch, rows_.size());
  for (int32_t r : scratch->dirty) {
    const Row& row = rows_[static_cast<size_t>(r)];
    if (row.kind == FlatOpKind::kLeaf) continue;
    EvalRow(r, scratch->rows.Row(row.resident), *scratch);
  }
}

void FlatRefold::CommitAndQuery(int leaf, int commit, int query,
                                double* query_column, Scratch* scratch) const {
  if (rows_.empty()) return;
  const int row_len = RowLen(*scratch);
  const int32_t commit_row = UnitRowOf(commit, scratch);
  const int32_t query_row = UnitRowOf(query, scratch);
  const double* c = scratch->units.Row(commit_row);
  const double* q = scratch->units.Row(query_row);
  double* two_term = scratch->units.Row(kTwoTermRow);
  for (int i = 0; i < row_len; ++i) two_term[i] = c[i] + q[i];
  scratch->leaf_unit[static_cast<size_t>(leaf)] = kTwoTermRow;
  // In place, as Commit: with no row dirty, every input reads its resident
  // row, and the path child is rewritten before its parent reads it. A
  // child's y^1 column is cleared once its parent has read it.
  NextEpoch(scratch, rows_.size());
  auto clear_y1 = [&](int32_t r) {
    double* row = scratch->rows.Row(rows_[static_cast<size_t>(r)].resident);
    for (int i = 1; i < row_len; i += 2) row[i] = 0.0;
  };
  const int32_t leaf_row = leaf_row_[static_cast<size_t>(leaf)];
  for (int32_t r = rows_[static_cast<size_t>(leaf_row)].parent, child = -1;
       r >= 0; child = r, r = rows_[static_cast<size_t>(r)].parent) {
    EvalRow(r, scratch->rows.Row(rows_[static_cast<size_t>(r)].resident),
            *scratch);
    if (child >= 0) clear_y1(child);
  }
  const int32_t root = static_cast<int32_t>(rows_.size()) - 1;
  const double* root_row = RowData(root, *scratch);
  for (int i = 1; i < row_len; i += 2) query_column[i / 2] = root_row[i];
  if (root != leaf_row) clear_y1(root);
  scratch->leaf_unit[static_cast<size_t>(leaf)] = commit_row;
}

FlatRefold::Scratch& FlatRefoldScratch() {
  thread_local FlatRefold::Scratch scratch;
  return scratch;
}

}  // namespace cpdb
