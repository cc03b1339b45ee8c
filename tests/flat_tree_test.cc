// Copyright 2026 The ConsensusDB Authors
//
// Flat-vs-pointer differential suite: the flattened fold (FlatTree +
// PolyArena + vectorized kernels) must be bitwise indistinguishable from
// the pointer-tree fold oracle (tests/oracle/) on every path — rank
// distributions, pairwise order probabilities, Kendall q statistics (the
// resident refold), Lemma 1's expected Jaccard distance, clustering's
// co-clustering probabilities, leaf marginals, and the raw generating
// function — across random generator trees of all three structural
// families and engine thread counts {1, 2, 4, 8}. Also pins the structural claims: leaf-table order equals
// LeafIds() order, precompiled marginals match the pointer walks bit for
// bit, and slot recycling keeps the op stream's live slot count
// O(depth × log fan-in) rather than O(nodes).

#include "model/flat_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/clustering.h"
#include "core/jaccard.h"
#include "core/rank_distribution.h"
#include "core/topk_kendall.h"
#include "engine/engine.h"
#include "oracle/fold_oracles.h"
#include "oracle/kendall_oracles.h"
#include "oracle/generating_function.h"
#include "oracle/poly1.h"
#include "oracle/poly2.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

// The three structural families the generators produce: tuple-independent,
// BID blocks, and deep correlated and/xor trees.
std::vector<AndXorTree> GeneratorTrees(uint64_t seed) {
  std::vector<AndXorTree> trees;
  Rng rng(seed);
  RandomTreeOptions opts;
  opts.num_keys = 7;
  opts.max_depth = 4;
  opts.max_alternatives = 3;

  auto independent = RandomTupleIndependent(6, &rng);
  EXPECT_TRUE(independent.ok());
  if (independent.ok()) trees.push_back(*std::move(independent));

  auto bid = RandomBid(opts, &rng);
  EXPECT_TRUE(bid.ok());
  if (bid.ok()) trees.push_back(*std::move(bid));

  auto deep = RandomAndXorTree(opts, &rng);
  EXPECT_TRUE(deep.ok());
  if (deep.ok()) trees.push_back(*std::move(deep));

  return trees;
}

// The pointer fold over rows of shape (max_dx + 1) × (max_dy + 1), leaf i
// (in leaf-table order) holding the row-major monomial term(i); a term
// outside the row is the zero polynomial. Returned row-major, as FlatRefold
// lays out its rows.
std::vector<double> PointerFold(const AndXorTree& tree, int max_dx, int max_dy,
                                const FlatRefold::LeafTerm& term) {
  const int row_len = (max_dx + 1) * (max_dy + 1);
  std::vector<int> leaf_index(static_cast<size_t>(tree.NumNodes()), -1);
  for (size_t i = 0; i < tree.LeafIds().size(); ++i) {
    leaf_index[static_cast<size_t>(tree.LeafIds()[i])] = static_cast<int>(i);
  }
  auto leaf_poly = [&](NodeId id) {
    const int t = term(leaf_index[static_cast<size_t>(id)]);
    if (t < 0 || t >= row_len) return Poly2::Constant(max_dx, max_dy, 0.0);
    return Poly2::Monomial(max_dx, max_dy, t / (max_dy + 1), t % (max_dy + 1),
                           1.0);
  };
  auto make_const = [&](double c) {
    return Poly2::Constant(max_dx, max_dy, c);
  };
  const Poly2 f = EvalGeneratingFunction<Poly2>(tree, leaf_poly, make_const);
  std::vector<double> row(static_cast<size_t>(row_len));
  for (int i = 0; i <= max_dx; ++i) {
    for (int j = 0; j <= max_dy; ++j) {
      row[static_cast<size_t>(i * (max_dy + 1) + j)] = f.Coeff(i, j);
    }
  }
  return row;
}

class FlatTreeDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FlatTreeDifferential, LeafTableMatchesPointerTree) {
  for (const AndXorTree& tree : GeneratorTrees(GetParam())) {
    const FlatTree flat = FlatTree::Compile(tree);
    const std::vector<NodeId>& leaf_ids = tree.LeafIds();
    ASSERT_EQ(flat.num_leaves(), tree.NumLeaves());

    // Leaf-table order is LeafIds() order, and the compile-time marginals
    // are bitwise the pointer walks' values.
    const std::vector<double> pointer_marginals = tree.LeafMarginals();
    for (int i = 0; i < flat.num_leaves(); ++i) {
      const FlatLeaf& leaf = flat.leaves()[static_cast<size_t>(i)];
      ASSERT_EQ(leaf.node, leaf_ids[static_cast<size_t>(i)]);
      const TupleAlternative& alt = tree.node(leaf.node).leaf;
      ASSERT_EQ(leaf.key, alt.key);
      ASSERT_EQ(leaf.score, alt.score);
      ASSERT_EQ(leaf.marginal, tree.LeafMarginal(leaf.node));
      ASSERT_EQ(leaf.marginal,
                pointer_marginals[static_cast<size_t>(leaf.node)]);
    }

    // Slot recycling: the live high-water mark must undercut node count on
    // anything but trivial trees (and is bounded by it always).
    ASSERT_LE(flat.num_slots(), tree.NumNodes());
    ASSERT_GT(flat.num_slots(), 0);

    // The dump used by `cpdb_cli dump-flat` names every op and leaf.
    const std::string dump = flat.ToString();
    EXPECT_NE(dump.find("flat_tree ops="), std::string::npos);
  }
}

TEST_P(FlatTreeDifferential, GeneratingFunctionBitwiseEqualsPointerFold) {
  // The raw fold: world-size generating function (every leaf tagged x),
  // flat (resident and one-shot) vs pointer, bitwise.
  const int kMaxDegree = 24;
  for (const AndXorTree& tree : GeneratorTrees(GetParam())) {
    auto leaf_poly = [&](NodeId) {
      return Poly1::Monomial(kMaxDegree, 1, 1.0);
    };
    auto make_const = [&](double c) { return Poly1::Constant(kMaxDegree, c); };
    const Poly1 reference =
        EvalGeneratingFunction<Poly1>(tree, leaf_poly, make_const);

    const FlatTree flat = FlatTree::Compile(tree);
    FlatRefold::Scratch scratch;
    const auto all_x = [](int) { return 1; };
    const double* resident =
        FlatRefold(flat).Fold(kMaxDegree, 0, all_x, &scratch);
    for (int d = 0; d <= kMaxDegree; ++d) {
      ASSERT_EQ(resident[d], reference.Coeff(d)) << "degree " << d;
    }
    const double* once =
        FlatRefold::FoldOnce(flat, kMaxDegree, 0, all_x, &scratch);
    for (int d = 0; d <= kMaxDegree; ++d) {
      ASSERT_EQ(once[d], reference.Coeff(d)) << "degree " << d;
    }
  }
}

TEST_P(FlatTreeDifferential, RankDistributionBitwiseEqualsPointerFold) {
  const int k = 5;
  for (const AndXorTree& tree : GeneratorTrees(GetParam())) {
    const RankDistribution reference = ComputeRankDistributionPointer(tree, k);
    const RankDistribution flat_dist = ComputeRankDistribution(tree, k);
    ASSERT_EQ(flat_dist.keys(), reference.keys());
    for (KeyId key : reference.keys()) {
      for (int i = 1; i <= k; ++i) {
        ASSERT_EQ(flat_dist.PrRankEq(key, i), reference.PrRankEq(key, i))
            << "key " << key << " rank " << i;
        ASSERT_EQ(flat_dist.PrRankLe(key, i), reference.PrRankLe(key, i));
      }
    }

    // Per-leaf contributions agree bitwise too (flat target index i is
    // LeafIds()[i] by the leaf-table order test above).
    const FlatTree flat = FlatTree::Compile(tree);
    for (int i = 0; i < flat.num_leaves(); ++i) {
      ASSERT_EQ(LeafRankContribution(flat, i, k),
                LeafRankContribution(tree, tree.LeafIds()[static_cast<size_t>(i)],
                                     k));
    }
  }
}

TEST_P(FlatTreeDifferential, PairwiseOrderAndKendallBitwiseEqualPointerFold) {
  const int k = 3;
  for (const AndXorTree& tree : GeneratorTrees(GetParam())) {
    const FlatTree flat = FlatTree::Compile(tree);
    const RankDistributionScan scan(flat, k, /*max_chunks=*/0);
    FlatRefold::Scratch scratch;
    const std::vector<KeyId> keys = tree.Keys();
    for (size_t iv = 0; iv < keys.size(); ++iv) {
      const std::vector<double> q_column =
          KendallQColumn(scan, keys, iv, &scratch);
      ASSERT_EQ(q_column.size(), keys.size());
      ASSERT_EQ(q_column[iv], 0.0);
      for (size_t iu = 0; iu < keys.size(); ++iu) {
        if (iu == iv) continue;
        const KeyId u = keys[iu];
        const KeyId v = keys[iv];
        ASSERT_EQ(PrRanksBefore(flat, u, v), PrRanksBeforePointer(tree, u, v))
            << "u " << u << " v " << v;
        ASSERT_EQ(q_column[iu], PrInTopKAndBefore(tree, u, v, k))
            << "u " << u << " v " << v;
      }
    }
  }
}

TEST_P(FlatTreeDifferential, RefoldZeroedBitwiseEqualsFullFold) {
  // A refold over any zeroed leaf subset is bitwise the pointer fold with
  // those leaves' polynomials zero, in both the univariate
  // (world-size) and the bivariate (Kendall) geometry, and one resident
  // base fold serves many refolds in a row. So is the one-shot fold of the
  // same leaves, run on the same scratch between refolds: it leaves the
  // resident fold as it is.
  Rng rng(GetParam() * 7919 + 1);
  for (const AndXorTree& tree : GeneratorTrees(GetParam())) {
    const FlatTree flat = FlatTree::Compile(tree);
    const FlatRefold refold(flat);
    FlatRefold::Scratch scratch;
    const int num_leaves = flat.num_leaves();
    for (int max_dy : {0, 1}) {
      const int max_dx = max_dy == 0 ? num_leaves : 3;
      const int row_len = (max_dx + 1) * (max_dy + 1);
      // Leaves cycle through 1, x and y (x again when univariate).
      auto base_term = [&](int i) {
        const bool y = i % 3 == 2 && max_dy == 1;
        return i % 3 == 0 ? 0 : (y ? 1 : max_dy + 1);
      };
      const double* root = refold.Fold(max_dx, max_dy, base_term, &scratch);
      ASSERT_EQ(std::vector<double>(root, root + row_len),
                PointerFold(tree, max_dx, max_dy, base_term));
      for (int trial = 0; trial < 6; ++trial) {
        std::vector<int> zeroed;
        std::vector<bool> is_zeroed(static_cast<size_t>(num_leaves), false);
        for (int i = 0; i < num_leaves; ++i) {
          if (rng.UniformInt(0, 3) == 0) {
            zeroed.push_back(i);
            is_zeroed[static_cast<size_t>(i)] = true;
          }
        }
        const std::vector<double> reference =
            PointerFold(tree, max_dx, max_dy, [&](int i) {
              return is_zeroed[static_cast<size_t>(i)] ? -1 : base_term(i);
            });
        const double* got =
            refold.Refold(zeroed, [](int) { return -1; }, &scratch);
        ASSERT_EQ(std::vector<double>(got, got + row_len), reference)
            << "trial " << trial << " max_dy " << max_dy;
        const double* once = FlatRefold::FoldOnce(
            flat, max_dx, max_dy,
            [&](int i) {
              return is_zeroed[static_cast<size_t>(i)] ? -1 : base_term(i);
            },
            &scratch);
        ASSERT_EQ(std::vector<double>(once, once + row_len), reference)
            << "one-shot, trial " << trial << " max_dy " << max_dy;
      }
    }
  }
}

TEST_P(FlatTreeDifferential, JaccardBitwiseEqualsPointerFold) {
  // Lemma 1 over fixed worlds: empty, every leaf, alternating leaves and
  // random subsets.
  Rng rng(GetParam() * 6151 + 3);
  for (const AndXorTree& tree : GeneratorTrees(GetParam())) {
    const std::vector<NodeId>& leaf_ids = tree.LeafIds();
    std::vector<std::vector<NodeId>> worlds = {{}, leaf_ids, {}};
    for (size_t i = 0; i < leaf_ids.size(); i += 2) {
      worlds.back().push_back(leaf_ids[i]);
    }
    for (int trial = 0; trial < 3; ++trial) {
      std::vector<NodeId> world;
      for (NodeId leaf : leaf_ids) {
        if (rng.Bernoulli(0.5)) world.push_back(leaf);
      }
      worlds.push_back(std::move(world));
    }
    for (std::vector<NodeId>& world : worlds) {
      std::sort(world.begin(), world.end());
      ASSERT_EQ(ExpectedJaccardDistance(tree, world),
                ExpectedJaccardDistancePointer(tree, world))
          << "|W| = " << world.size();
    }
  }
}

TEST_P(FlatTreeDifferential, ClusteringBitwiseEqualsPointerFold) {
  // FromTree takes the closed form on block-independent trees, so each
  // labelled tree is also wrapped in a single-child XOR, which is never
  // block-independent: the generic fold runs on every wrapped tree.
  for (const AndXorTree& generated : GeneratorTrees(GetParam())) {
    if (generated.node(generated.LeafIds()[0]).leaf.label < 0) continue;
    AndXorTree wrapped = generated;
    wrapped.SetRoot(wrapped.AddXor({wrapped.root()}, {0.9}));
    ASSERT_TRUE(wrapped.Validate().ok());
    ASSERT_FALSE(IsBlockIndependent(wrapped));
    for (const AndXorTree* tree : {&generated, &std::as_const(wrapped)}) {
      if (IsBlockIndependent(*tree)) continue;
      auto problem = ClusteringProblem::FromTree(*tree);
      ASSERT_TRUE(problem.ok());
      const std::vector<KeyId>& keys = problem->keys();
      for (size_t i = 0; i < keys.size(); ++i) {
        for (size_t j = i + 1; j < keys.size(); ++j) {
          ASSERT_EQ(problem->W(static_cast<int>(i), static_cast<int>(j)),
                    PairCoClusterPointer(*tree, keys[i], keys[j]))
              << "keys " << keys[i] << ", " << keys[j];
        }
      }
    }
  }
}

// A tree where key 2's only alternative scores below every alternative of
// key 1: for each of key 1's targets, the (1, 2) cell reuses the base fold.
// Key 2 also sits under a single-child AND, which compiles to no op.
AndXorTree KeyWithNothingAboveTree() {
  auto alt = [](KeyId key, double score) {
    TupleAlternative a;
    a.key = key;
    a.score = score;
    return a;
  };
  AndXorTree tree;
  NodeId k1 = tree.AddXor({tree.AddLeaf(alt(1, 9)), tree.AddLeaf(alt(1, 5))},
                          {0.4, 0.5});
  NodeId k2 = tree.AddAnd({tree.AddXor({tree.AddLeaf(alt(2, 3))}, {0.7})});
  NodeId k3 = tree.AddXor({tree.AddLeaf(alt(3, 7)), tree.AddLeaf(alt(3, 1))},
                          {0.3, 0.6});
  NodeId k4 = tree.AddLeaf(alt(4, 6));
  NodeId inner = tree.AddXor({tree.AddAnd({k3, k4})}, {0.8});
  tree.SetRoot(tree.AddAnd({k1, k2, inner}));
  EXPECT_TRUE(tree.Validate().ok());
  return tree;
}

TEST_P(FlatTreeDifferential, EnginePathsBitwiseEqualPointerFoldAcrossThreads) {
  const int k = 4;
  std::vector<AndXorTree> trees = GeneratorTrees(GetParam());
  trees.push_back(KeyWithNothingAboveTree());
  for (const AndXorTree& tree : trees) {
    const RankDistribution dist_ref = ComputeRankDistributionPointer(tree, k);
    const std::vector<KeyId> keys = tree.Keys();
    const std::vector<double> marginals_ref = tree.LeafMarginals();
    const FlatTree program = FlatTree::Compile(tree);

    for (int threads : {1, 2, 4, 8}) {
      EngineOptions opts;
      opts.num_threads = threads;
      Engine engine(opts);

      const RankDistribution dist = engine.ComputeRankDistribution(tree, k);
      ASSERT_EQ(dist.keys(), dist_ref.keys()) << "threads " << threads;
      for (KeyId key : dist_ref.keys()) {
        for (int i = 1; i <= k; ++i) {
          ASSERT_EQ(dist.PrRankEq(key, i), dist_ref.PrRankEq(key, i))
              << "threads " << threads << " key " << key << " rank " << i;
          ASSERT_EQ(dist.PrRankLe(key, i), dist_ref.PrRankLe(key, i));
        }
      }

      ASSERT_EQ(engine.LeafMarginals(tree), marginals_ref)
          << "threads " << threads;
    }

    // Every Kendall q path — the engine's per-key column tasks with and
    // without a supplied program, and the sequential KendallEvaluator — is
    // bitwise the pointer PrInTopKAndBefore matrix.
    for (int q_k : {1, 3, 5}) {
      // columns_ref[j][i] = q(keys[i], keys[j]).
      std::vector<std::vector<double>> columns_ref(
          keys.size(), std::vector<double>(keys.size(), 0.0));
      for (size_t i = 0; i < keys.size(); ++i) {
        for (size_t j = 0; j < keys.size(); ++j) {
          if (i != j) {
            columns_ref[j][i] = PrInTopKAndBefore(tree, keys[i], keys[j], q_k);
          }
        }
      }
      const KendallEvaluator evaluator(tree, q_k);
      for (size_t i = 0; i < keys.size(); ++i) {
        for (size_t j = 0; j < keys.size(); ++j) {
          ASSERT_EQ(evaluator.Q(keys[i], keys[j]), columns_ref[j][i])
              << "k " << q_k << " cell " << i << "," << j;
        }
      }
      for (int threads : {1, 2, 4, 8}) {
        EngineOptions opts;
        opts.num_threads = threads;
        Engine engine(opts);
        ASSERT_EQ(engine.KendallQColumns(tree, q_k, keys), columns_ref)
            << "threads " << threads << " k " << q_k;
        ASSERT_EQ(engine.KendallQColumns(tree, q_k, keys, &program),
                  columns_ref)
            << "threads " << threads << " k " << q_k;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatTreeDifferential,
                         ::testing::Range<uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// Structure-specific pins (not randomized)
// ---------------------------------------------------------------------------

TupleAlternative Alt(KeyId key, double score) {
  TupleAlternative a;
  a.key = key;
  a.score = score;
  return a;
}

TEST(FlatTreeTest, DeepChainCompilesToConstantSlotCount) {
  // The compile-time analogue of the fold-memory bugfix: a 20000-deep XOR
  // chain must compile to 2 scratch slots (child + accumulator), so the
  // op stream's live row count is independent of depth.
  AndXorTree tree;
  NodeId node = tree.AddLeaf(Alt(1, 1));
  for (int i = 0; i < 20000; ++i) node = tree.AddXor({node}, {0.5});
  tree.SetRoot(node);
  ASSERT_TRUE(tree.Validate().ok());

  const FlatTree flat = FlatTree::Compile(tree);
  EXPECT_EQ(flat.num_slots(), 2);
  EXPECT_EQ(flat.num_leaves(), 1);

  // And the fold over it matches the pointer template bitwise.
  auto leaf_poly = [&](NodeId) { return Poly1::Monomial(1, 1, 1.0); };
  auto make_const = [&](double c) { return Poly1::Constant(1, c); };
  const Poly1 reference =
      EvalGeneratingFunction<Poly1>(tree, leaf_poly, make_const);
  FlatRefold::Scratch scratch;
  const double* got =
      FlatRefold(flat).Fold(1, 0, [](int) { return 1; }, &scratch);
  EXPECT_EQ(got[0], reference.Coeff(0));
  EXPECT_EQ(got[1], reference.Coeff(1));

  // The one-shot fold runs in the two slots: two rows of two coefficients.
  FlatRefold::Scratch once_scratch;
  got = FlatRefold::FoldOnce(flat, 1, 0, [](int) { return 1; }, &once_scratch);
  EXPECT_EQ(got[0], reference.Coeff(0));
  EXPECT_EQ(got[1], reference.Coeff(1));
  EXPECT_EQ(once_scratch.CapacityBytes(), 4 * sizeof(double));
}

TEST(FlatTreeTest, WideAndCompilesToLogarithmicSlotCount) {
  // A wide AND multiplies its children as a binary counter as they finish,
  // so 500 children keep at most ceil(log2 500) + 1 = 10 slots live, not
  // one per child.
  AndXorTree tree;
  std::vector<NodeId> blocks;
  for (int i = 0; i < 500; ++i) {
    blocks.push_back(tree.AddXor({tree.AddLeaf(Alt(i, i))}, {0.5}));
  }
  tree.SetRoot(tree.AddAnd(std::move(blocks)));
  ASSERT_TRUE(tree.Validate().ok());

  const FlatTree flat = FlatTree::Compile(tree);
  EXPECT_LE(flat.num_slots(), 10);
  EXPECT_EQ(flat.num_leaves(), 500);
}

// An AND of `fan_in` blocks: every third block an AND of two single-leaf
// XORs of distinct keys, the others a XOR over two alternatives of one key.
// Scores come from a small pool, so tie groups occur.
AndXorTree WideAndOfBlocks(int fan_in, Rng* rng) {
  AndXorTree tree;
  std::vector<NodeId> blocks;
  auto score = [&] { return static_cast<double>(rng->UniformInt(0, 40)); };
  for (int i = 0; i < fan_in; ++i) {
    if (i % 3 == 0) {
      NodeId a = tree.AddXor({tree.AddLeaf(Alt(2 * i, score()))}, {0.6});
      NodeId b = tree.AddXor({tree.AddLeaf(Alt(2 * i + 1, score()))}, {0.3});
      blocks.push_back(tree.AddAnd({a, b}));
    } else {
      blocks.push_back(tree.AddXor({tree.AddLeaf(Alt(2 * i, score())),
                                    tree.AddLeaf(Alt(2 * i, score()))},
                                   {0.25, 0.5}));
    }
  }
  tree.SetRoot(tree.AddAnd(std::move(blocks)));
  return tree;
}

bool SameBits(const double* a, const double* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

TEST(FlatTreeTest, CommitAndQueryBitwiseEqualsRefoldThenCommit) {
  // One two-term pass per leaf, walking the leaves as the rank scan does,
  // against a second scratch that refolds the leaf to y and then commits
  // it to x. After every leaf, the root's y^1 column must be the refold's
  // and every resident row the commit's, bit for bit; the y^1 columns
  // included, so the pass's clear is pinned too.
  Rng rng(4099);
  for (int fan_in : {3, 4, 37, 500}) {
    AndXorTree tree = WideAndOfBlocks(fan_in, &rng);
    ASSERT_TRUE(tree.Validate().ok());
    const FlatTree flat = FlatTree::Compile(tree);
    const FlatRefold refold(flat);
    std::vector<int> order(static_cast<size_t>(flat.num_leaves()));
    for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return flat.leaves()[static_cast<size_t>(a)].score >
             flat.leaves()[static_cast<size_t>(b)].score;
    });
    for (int k : {0, 1, 8}) {
      // Row-major (k + 1) × 2 rows: 1 at 0, y at 1, x at 2 (beyond the row,
      // the zero polynomial, at k = 0).
      constexpr int kOne = 0, kY = 1, kX = 2;
      FlatRefold::Scratch pass;
      FlatRefold::Scratch reference;
      refold.Fold(k, 1, [](int) { return kOne; }, &pass);
      refold.Fold(k, 1, [](int) { return kOne; }, &reference);
      const size_t column_len = static_cast<size_t>(k) + 1;
      std::vector<double> got(column_len);
      std::vector<double> want(column_len);
      for (int leaf : order) {
        refold.CommitAndQuery(leaf, kX, kY, got.data(), &pass);
        const double* root =
            refold.Refold({leaf}, [](int) { return kY; }, &reference);
        for (size_t i = 0; i < column_len; ++i) want[i] = root[2 * i + 1];
        refold.Commit({leaf}, [](int) { return kX; }, &reference);
        ASSERT_TRUE(SameBits(got.data(), want.data(), column_len))
            << "fan-in " << fan_in << " k " << k << " leaf " << leaf;
        const size_t resident = static_cast<size_t>(pass.rows.num_slots()) *
                                static_cast<size_t>(pass.rows.row_len());
        ASSERT_TRUE(
            SameBits(pass.rows.Row(0), reference.rows.Row(0), resident))
            << "fan-in " << fan_in << " k " << k << " leaf " << leaf;
      }
    }
  }
}

TEST(FlatTreeTest, EmptyTreeYieldsEmptyFlatTree) {
  AndXorTree tree;  // no root set
  const FlatTree flat = FlatTree::Compile(tree);
  EXPECT_EQ(flat.num_leaves(), 0);
  EXPECT_EQ(flat.num_slots(), 0);
  EXPECT_TRUE(flat.ops().empty());
}

TEST(FlatTreeTest, DumpListsEveryOpAndLeaf) {
  AndXorTree tree;
  NodeId a = tree.AddLeaf(Alt(1, 2.5));
  NodeId b = tree.AddLeaf(Alt(1, 1.5));
  NodeId x = tree.AddXor({a, b}, {0.25, 0.5});
  NodeId c = tree.AddLeaf(Alt(2, 3.0));
  tree.SetRoot(tree.AddAnd({x, c}));
  ASSERT_TRUE(tree.Validate().ok());

  const FlatTree flat = FlatTree::Compile(tree);
  const std::string dump = flat.ToString();
  EXPECT_NE(dump.find("xor_init"), std::string::npos);
  EXPECT_NE(dump.find("xor_accum"), std::string::npos);
  EXPECT_NE(dump.find("mul"), std::string::npos);
  EXPECT_NE(dump.find("leaf"), std::string::npos);
  // XOR leftover mass 1 - 0.25 - 0.5 = 0.25 is precomputed on the init op.
  EXPECT_NE(dump.find("0.25"), std::string::npos);
}

}  // namespace
}  // namespace cpdb
