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
  // consumes each child's result immediately after that child completes
  // (instead of waiting for all siblings), so at most one child result per
  // ancestor level is live at a time and the slot high-water mark is
  // O(depth) even for wide AND/XOR fan-outs. XOR output rows are allocated
  // lazily at the first child's completion for the same reason — a chain of
  // XOR nodes must not pre-allocate an accumulator per level on the way
  // down.
  struct Frame {
    NodeId id;
    size_t next_child;
    int32_t acc_slot;  // AND: running product; XOR: accumulator; -1 if none
    double path_prob;  // product of XOR edge probs root -> this node
  };

  SlotAllocator slots;
  std::vector<Frame> stack;
  stack.push_back(Frame{tree.root(), 0, -1, 1.0});
  int32_t last_slot = -1;  // result slot of the most recently completed node

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
      } else if (f.next_child == 1) {
        // AND's first child IS the running product; no op emitted.
        f.acc_slot = last_slot;
      } else {
        int32_t out = slots.Alloc();
        flat.ops_.push_back(FlatOp{FlatOpKind::kMul, out, f.acc_slot,
                                   last_slot, f.id, 0.0});
        slots.Release(f.acc_slot);
        slots.Release(last_slot);
        f.acc_slot = out;
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
      stack.push_back(Frame{child, 0, -1, child_prob});
      continue;
    }

    last_slot = f.acc_slot;
    stack.pop_back();
  }

  flat.root_slot_ = last_slot;
  flat.num_slots_ = slots.high_water();
  return flat;
}

void FlatTree::EvalGeneratingFunction(
    int max_dx, int max_dy,
    const std::function<void(int leaf_index, double* row)>& leaf_init,
    double* out, PolyArena* arena) const {
  const int row_len = (max_dx + 1) * (max_dy + 1);
  arena->Reserve(num_slots_, row_len);

  int leaf_index = 0;
  for (const FlatOp& op : ops_) {
    double* o = arena->Row(op.out_slot);
    switch (op.kind) {
      case FlatOpKind::kLeaf:
        std::fill(o, o + row_len, 0.0);
        leaf_init(leaf_index++, o);
        break;
      case FlatOpKind::kXorInit:
        std::fill(o, o + row_len, 0.0);
        o[0] = op.weight;
        break;
      case FlatOpKind::kXorAccum:
        AddScaledRow(o, arena->Row(op.arg_slot), op.weight, row_len);
        break;
      case FlatOpKind::kMul:
        std::fill(o, o + row_len, 0.0);
        ConvolveRowsTruncated(arena->Row(op.lhs_slot), arena->Row(op.arg_slot),
                              o, max_dx, max_dy);
        break;
    }
  }

  if (root_slot_ >= 0) {
    const double* root = arena->Row(root_slot_);
    std::copy(root, root + row_len, out);
  } else {
    std::fill(out, out + row_len, 0.0);
  }
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

PolyArena& FlatFoldScratch() {
  thread_local PolyArena arena;
  return arena;
}

FlatRefold::FlatRefold(const FlatTree& flat) : flat_(&flat) {
  // Replay the op stream tracking which row each slot holds. A row is
  // numbered when its consumer reads it, and the root last: every input is
  // consumed while the row reading it is still being built, so inputs
  // always number below their consumer.
  struct Draft {
    FlatOpKind kind;
    int32_t leaf;
    double weight;
    std::vector<Input> in;  // rows in draft numbering
  };
  std::vector<Draft> drafts;
  std::vector<int32_t> slot_draft(static_cast<size_t>(flat.num_slots()), -1);
  std::vector<int32_t> order;  // drafts in consumption order
  int32_t next_leaf = 0;
  auto open = [&](int32_t slot, FlatOpKind kind, int32_t leaf, double weight) {
    slot_draft[static_cast<size_t>(slot)] = static_cast<int32_t>(drafts.size());
    drafts.push_back(Draft{kind, leaf, weight, {}});
  };
  auto consume = [&](int32_t slot) {
    order.push_back(slot_draft[static_cast<size_t>(slot)]);
    return order.back();
  };
  for (const FlatOp& op : flat.ops()) {
    switch (op.kind) {
      case FlatOpKind::kLeaf:
        open(op.out_slot, FlatOpKind::kLeaf, next_leaf++, 0.0);
        break;
      case FlatOpKind::kXorInit:
        open(op.out_slot, FlatOpKind::kXorInit, -1, op.weight);
        break;
      case FlatOpKind::kXorAccum: {
        const int32_t child = consume(op.arg_slot);
        drafts[static_cast<size_t>(slot_draft[static_cast<size_t>(op.out_slot)])]
            .in.push_back(Input{child, op.weight});
        break;
      }
      case FlatOpKind::kMul: {
        const int32_t lhs = consume(op.lhs_slot);
        const int32_t arg = consume(op.arg_slot);
        open(op.out_slot, FlatOpKind::kMul, -1, 0.0);
        drafts.back().in = {Input{lhs, 0.0}, Input{arg, 0.0}};
        break;
      }
    }
  }
  if (flat.root_slot() < 0) return;
  order.push_back(slot_draft[static_cast<size_t>(flat.root_slot())]);

  std::vector<int32_t> number(drafts.size(), -1);
  for (size_t i = 0; i < order.size(); ++i) {
    number[static_cast<size_t>(order[i])] = static_cast<int32_t>(i);
  }
  rows_.resize(order.size());
  leaf_row_.assign(static_cast<size_t>(flat.num_leaves()), -1);
  for (size_t r = 0; r < order.size(); ++r) {
    const Draft& d = drafts[static_cast<size_t>(order[r])];
    const int32_t in_begin = static_cast<int32_t>(inputs_.size());
    for (const Input& in : d.in) {
      const int32_t input = number[static_cast<size_t>(in.row)];
      inputs_.push_back(Input{input, in.weight});
      rows_[static_cast<size_t>(input)].parent = static_cast<int32_t>(r);
    }
    rows_[r] = Row{d.kind, -1, in_begin, static_cast<int32_t>(inputs_.size()),
                   d.leaf, d.weight};
    if (d.kind == FlatOpKind::kLeaf) {
      leaf_row_[static_cast<size_t>(d.leaf)] = static_cast<int32_t>(r);
    }
  }
}

void FlatRefold::EvalRow(int32_t r, double* out, const Scratch& scratch) const {
  const Row& row = rows_[static_cast<size_t>(r)];
  const int32_t n = static_cast<int32_t>(rows_.size());
  const int row_len = (scratch.max_dx + 1) * (scratch.max_dy + 1);
  auto input = [&](const Input& in) -> const double* {
    const bool dirty = scratch.stamp[static_cast<size_t>(in.row)] == scratch.epoch;
    return scratch.rows->Row(dirty ? n + in.row : in.row);
  };
  std::fill(out, out + row_len, 0.0);  // a leaf row stays zero
  if (row.kind == FlatOpKind::kXorInit) {
    out[0] = row.weight;
    for (int32_t i = row.in_begin; i < row.in_end; ++i) {
      const Input& in = inputs_[static_cast<size_t>(i)];
      AddScaledRow(out, input(in), in.weight, row_len);
    }
  } else if (row.kind == FlatOpKind::kMul) {
    ConvolveRowsTruncated(input(inputs_[static_cast<size_t>(row.in_begin)]),
                          input(inputs_[static_cast<size_t>(row.in_begin) + 1]),
                          out, scratch.max_dx, scratch.max_dy);
  }
}

namespace {

// Starts a new dirty-mark epoch: every earlier mark stops matching.
void NextEpoch(FlatRefold::Scratch* scratch, size_t num_rows) {
  if (scratch->stamp.size() < num_rows) scratch->stamp.resize(num_rows, 0);
  if (++scratch->epoch == 0) {
    std::fill(scratch->stamp.begin(), scratch->stamp.end(), 0);
    scratch->epoch = 1;
  }
}

}  // namespace

const double* FlatRefold::Fold(
    int max_dx, int max_dy,
    const std::function<void(int leaf_index, double* row)>& leaf_init,
    Scratch* scratch) const {
  const int32_t n = static_cast<int32_t>(rows_.size());
  const int row_len = (max_dx + 1) * (max_dy + 1);
  scratch->max_dx = max_dx;
  scratch->max_dy = max_dy;
  scratch->rows->Reserve(std::max(2 * n, 1), row_len);
  NextEpoch(scratch, rows_.size());  // nothing is dirty in the base fold
  if (n == 0) {
    double* empty = scratch->rows->Row(0);
    std::fill(empty, empty + row_len, 0.0);
    return empty;
  }
  for (int32_t r = 0; r < n; ++r) {
    double* out = scratch->rows->Row(r);
    const Row& row = rows_[static_cast<size_t>(r)];
    if (row.kind == FlatOpKind::kLeaf) {
      std::fill(out, out + row_len, 0.0);
      leaf_init(row.leaf, out);
    } else {
      EvalRow(r, out, *scratch);
    }
  }
  return scratch->rows->Row(n - 1);
}

const double* FlatRefold::RefoldZeroed(const std::vector<int>& zeroed,
                                       Scratch* scratch) const {
  const int32_t n = static_cast<int32_t>(rows_.size());
  if (n == 0) return scratch->rows->Row(0);
  NextEpoch(scratch, rows_.size());
  // Mark each zeroed leaf and its ancestors, stopping where an earlier
  // leaf's walk already marked the rest of the path.
  scratch->dirty.clear();
  for (int leaf : zeroed) {
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
  for (int32_t r : scratch->dirty) {
    EvalRow(r, scratch->rows->Row(n + r), *scratch);
  }
  const int32_t root = n - 1;
  const bool dirty = scratch->stamp[static_cast<size_t>(root)] == scratch->epoch;
  return scratch->rows->Row(dirty ? n + root : root);
}

}  // namespace cpdb
