// Copyright 2026 The ConsensusDB Authors
//
// Canonicalization property tests and the canonical serving differential
// suite. The properties pin the identity model's contract: every tree in a
// commutative-permutation orbit canonicalizes to one orientation (one
// StructKey), any semantic perturbation leaves the orbit (a new key),
// canonicalization is idempotent, and consensus answers do not depend on
// the orientation served. The differential half pins the serving claim:
// for canonical inputs the refactor is invisible on the wire — transcripts
// are byte-identical across shard counts, thread counts, cache budgets,
// and warm restarts — while permuted duplicates collapse to one shape, one
// fold compile, and shared cache lines.
//
// This suite runs in the ASan and TSan CI jobs (the sharded differential
// cases exercise concurrent shard execution).

#include "model/canonical.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "engine/engine.h"
#include "io/request_protocol.h"
#include "io/tree_text.h"
#include "model/and_xor_tree.h"
#include "service/catalog_snapshot.h"
#include "service/query_scheduler.h"
#include "service/sharded_scheduler.h"
#include "service/tree_catalog.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

// A 3-ary AND over mixed-size XORs: enough asymmetry that random child
// shuffles almost surely change the printed orientation.
constexpr char kBaseTreeText[] =
    "(and (xor 0.6 (leaf key=1 score=8) 0.3 (leaf key=1 score=5))"
    " (xor 0.7 (leaf key=2 score=9))"
    " (xor 0.5 (leaf key=3 score=7) 0.5 (leaf key=3 score=6)))";

AndXorTree Tree(const std::string& text) {
  auto tree = ParseTree(text);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  return *std::move(tree);
}

AndXorTree RandomTree(uint64_t seed, int num_keys = 8) {
  Rng rng(seed);
  RandomTreeOptions opts;
  opts.num_keys = num_keys;
  opts.max_depth = 3;
  opts.max_alternatives = 2;
  auto tree = RandomAndXorTree(opts, &rng);
  EXPECT_TRUE(tree.ok());
  return *std::move(tree);
}

std::string CanonText(const AndXorTree& tree) {
  auto canonical = CanonicalizeTree(tree);
  EXPECT_TRUE(canonical.ok()) << canonical.status().ToString();
  return FormatTree(*canonical, /*indent=*/false);
}

StructKey KeyOf(const AndXorTree& tree) {
  return StructKey(Fnv1a64(CanonText(tree)));
}

// Rebuilds `id`'s subtree with every inner node's children (and, for XOR,
// the matching edge probabilities) in a random order — a uniformly drawn
// member of the commutative-permutation orbit.
NodeId RebuildShuffled(const AndXorTree& in, NodeId id, Rng* rng,
                       AndXorTree* out) {
  const TreeNode& n = in.node(id);
  if (n.kind == NodeKind::kLeaf) return out->AddLeaf(n.leaf);
  std::vector<size_t> order(n.children.size());
  std::iota(order.begin(), order.end(), 0u);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng->Next() % i]);
  }
  std::vector<NodeId> children;
  std::vector<double> probs;
  children.reserve(order.size());
  for (size_t idx : order) {
    children.push_back(RebuildShuffled(in, n.children[idx], rng, out));
    if (n.kind == NodeKind::kXor) probs.push_back(n.edge_probs[idx]);
  }
  return n.kind == NodeKind::kAnd
             ? out->AddAnd(std::move(children))
             : out->AddXor(std::move(children), std::move(probs));
}

AndXorTree ShuffleCommutative(const AndXorTree& tree, Rng* rng) {
  AndXorTree out;
  out.SetRoot(RebuildShuffled(tree, tree.root(), rng, &out));
  EXPECT_TRUE(out.Validate().ok());
  return out;
}

// ---------------------------------------------------------------------------
// Properties of the canonical orientation
// ---------------------------------------------------------------------------

TEST(CanonicalPropertyTest, PermutationOrbitCollapsesToOneKey) {
  for (uint64_t seed : {1u, 7u, 19u, 42u, 101u, 555u}) {
    const AndXorTree base = RandomTree(seed);
    const std::string canon = CanonText(base);
    const StructKey key(Fnv1a64(canon));
    Rng rng(seed * 1009 + 1);
    int shuffles_that_moved = 0;
    for (int i = 0; i < 8; ++i) {
      const AndXorTree shuffled = ShuffleCommutative(base, &rng);
      if (FormatTree(shuffled, /*indent=*/false) !=
          FormatTree(base, /*indent=*/false)) {
        ++shuffles_that_moved;
      }
      // Whatever the draw did to the printed orientation, the canonical
      // orientation — and with it the structural key — is unchanged.
      EXPECT_EQ(CanonText(shuffled), canon) << "seed " << seed;
      EXPECT_EQ(KeyOf(shuffled), key) << "seed " << seed;
    }
    // The orbit genuinely has more than one member: the shuffle is not a
    // no-op test on degenerate trees.
    EXPECT_GT(shuffles_that_moved, 0) << "seed " << seed;
  }
}

TEST(CanonicalPropertyTest, SemanticPerturbationsChangeTheKey) {
  const StructKey base = KeyOf(Tree(kBaseTreeText));
  // Each variant changes exactly one semantic datum of the base tree:
  // an XOR edge probability, a leaf score, a leaf key, a label, an extra
  // alternative, or the AND arity.
  const char* kPerturbed[] = {
      // prob 0.6 -> 0.61
      "(and (xor 0.61 (leaf key=1 score=8) 0.3 (leaf key=1 score=5))"
      " (xor 0.7 (leaf key=2 score=9))"
      " (xor 0.5 (leaf key=3 score=7) 0.5 (leaf key=3 score=6)))",
      // score 9 -> 10
      "(and (xor 0.6 (leaf key=1 score=8) 0.3 (leaf key=1 score=5))"
      " (xor 0.7 (leaf key=2 score=10))"
      " (xor 0.5 (leaf key=3 score=7) 0.5 (leaf key=3 score=6)))",
      // key 2 -> 4
      "(and (xor 0.6 (leaf key=1 score=8) 0.3 (leaf key=1 score=5))"
      " (xor 0.7 (leaf key=4 score=9))"
      " (xor 0.5 (leaf key=3 score=7) 0.5 (leaf key=3 score=6)))",
      // label added on one leaf
      "(and (xor 0.6 (leaf key=1 score=8 label=1) 0.3 (leaf key=1 score=5))"
      " (xor 0.7 (leaf key=2 score=9))"
      " (xor 0.5 (leaf key=3 score=7) 0.5 (leaf key=3 score=6)))",
      // extra alternative for key 2
      "(and (xor 0.6 (leaf key=1 score=8) 0.3 (leaf key=1 score=5))"
      " (xor 0.7 (leaf key=2 score=9) 0.1 (leaf key=2 score=4))"
      " (xor 0.5 (leaf key=3 score=7) 0.5 (leaf key=3 score=6)))",
      // one XOR child dropped
      "(and (xor 0.6 (leaf key=1 score=8) 0.3 (leaf key=1 score=5))"
      " (xor 0.5 (leaf key=3 score=7) 0.5 (leaf key=3 score=6)))",
  };
  std::set<uint64_t> keys = {base.value()};
  for (const char* text : kPerturbed) {
    const StructKey perturbed = KeyOf(Tree(text));
    EXPECT_NE(perturbed, base) << text;
    keys.insert(perturbed.value());
  }
  // And the perturbations are mutually distinct identities, not one
  // catch-all "different" bucket.
  EXPECT_EQ(keys.size(), 1 + std::size(kPerturbed));
}

TEST(CanonicalPropertyTest, CanonicalizationIsIdempotent) {
  for (uint64_t seed : {3u, 13u, 77u, 200u}) {
    const AndXorTree base = RandomTree(seed);
    auto once = CanonicalizeTree(base);
    ASSERT_TRUE(once.ok());
    auto twice = CanonicalizeTree(*once);
    ASSERT_TRUE(twice.ok());
    const std::string text = FormatTree(*once, /*indent=*/false);
    EXPECT_EQ(FormatTree(*twice, /*indent=*/false), text);
    // The canonical orientation survives a print/parse round trip exactly —
    // the property the snapshot format and the catalog's shared-shape
    // storage both lean on.
    EXPECT_EQ(FormatTree(Tree(text), /*indent=*/false), text);
  }
}

TEST(CanonicalPropertyTest, ConsensusAnswersAreOrientationIndependent) {
  EngineOptions options;
  options.num_threads = 2;
  Engine engine(options);
  for (uint64_t seed : {5u, 23u}) {
    const AndXorTree base = RandomTree(seed, /*num_keys=*/6);
    auto canonical = CanonicalizeTree(base);
    ASSERT_TRUE(canonical.ok());
    Rng rng(seed + 99);
    const AndXorTree shuffled = ShuffleCommutative(base, &rng);
    for (TopKMetric metric : {TopKMetric::kSymDiff, TopKMetric::kFootrule}) {
      auto a = engine.ConsensusTopK(*canonical, 3, metric, TopKAnswer::kMean);
      auto b = engine.ConsensusTopK(shuffled, 3, metric, TopKAnswer::kMean);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      // Orientation may reorder floating-point accumulation, so the
      // guarantee across orbit members is semantic (same answer, distances
      // agreeing to tolerance), while *within* one orientation the system's
      // guarantee is bitwise.
      EXPECT_EQ(a->keys, b->keys) << "seed " << seed;
      EXPECT_NEAR(a->expected_distance, b->expected_distance, 1e-9);
    }
  }
}

// ---------------------------------------------------------------------------
// Canonical serving differential suite
// ---------------------------------------------------------------------------

ServiceRequest TopKRequest(const std::string& tree, int k, TopKMetric metric,
                           TopKAnswer answer = TopKAnswer::kMean) {
  ServiceRequest request;
  request.op = ServiceRequest::Op::kTopK;
  request.tree_name = tree;
  request.k = k;
  request.metric = metric;
  request.answer = answer;
  return request;
}

ServiceRequest WorldRequest(const std::string& tree, bool median = false) {
  ServiceRequest request;
  request.op = ServiceRequest::Op::kWorld;
  request.tree_name = tree;
  request.median_world = median;
  return request;
}

// The differential workload over `names`: every metric, mean and median
// answers, both worlds, and an error slot.
std::vector<ServiceRequest> QueryBatch(const std::vector<std::string>& names) {
  std::vector<ServiceRequest> batch;
  for (const std::string& name : names) {
    batch.push_back(TopKRequest(name, 3, TopKMetric::kSymDiff));
    batch.push_back(TopKRequest(name, 3, TopKMetric::kIntersection));
    batch.push_back(TopKRequest(name, 2, TopKMetric::kFootrule));
    batch.push_back(TopKRequest(name, 2, TopKMetric::kKendall));
    batch.push_back(
        TopKRequest(name, 3, TopKMetric::kSymDiff, TopKAnswer::kMedian));
    batch.push_back(WorldRequest(name));
    batch.push_back(WorldRequest(name, /*median=*/true));
  }
  batch.push_back(TopKRequest("no_such_tree", 2, TopKMetric::kSymDiff));
  return batch;
}

// Renders results exactly as the serve command writes them, so "identical"
// below means identical bytes on the wire, error lines included.
std::vector<std::string> WireLines(
    const std::vector<Result<ServiceResponse>>& results) {
  std::vector<std::string> lines;
  lines.reserve(results.size());
  for (size_t i = 0; i < results.size(); ++i) {
    lines.push_back(results[i].ok()
                        ? FormatResponseLine(ResponseToFields(*results[i]))
                        : FormatErrorLine(i + 1, results[i].status()));
  }
  return lines;
}

EngineOptions ReferenceEngineOptions(int threads) {
  EngineOptions options;
  options.num_threads = threads;
  return options;
}

class CanonicalServingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Canonical inputs: the differential contract below is byte-level, so
    // the fixture serves each tree in its canonical orientation (for
    // non-canonical inputs the serving layer's fold runs over the canonical
    // orientation by design, which is a semantic — not bitwise — match to
    // folding the input orientation).
    for (uint64_t seed : {11u, 23u, 47u, 91u}) {
      trees_.push_back(*CanonicalizeTree(RandomTree(seed)));
      names_.push_back("t" + std::to_string(names_.size()));
    }
  }

  std::vector<std::string> ReferenceWire() const {
    Engine engine(ReferenceEngineOptions(2));
    TreeCatalog catalog;
    QueryScheduler scheduler(&engine, &catalog);
    for (size_t i = 0; i < trees_.size(); ++i) {
      EXPECT_TRUE(catalog.Insert(names_[i], trees_[i]).ok());
    }
    return WireLines(scheduler.ExecuteBatch(QueryBatch(names_)));
  }

  std::vector<AndXorTree> trees_;
  std::vector<std::string> names_;
};

// The tentpole acceptance sweep: one reference transcript, replayed across
// shard counts, thread counts, and cache budgets — byte-identical each way.
TEST_F(CanonicalServingTest, TranscriptsAreByteIdenticalAcrossTopologies) {
  const std::vector<std::string> want = ReferenceWire();
  for (int shards : {1, 2, 4}) {
    for (int threads : {1, 8}) {
      for (int64_t budget : {int64_t{-1}, int64_t{1}}) {
        SchedulerOptions scheduler_options;
        if (budget >= 0) scheduler_options.cache_budget_bytes = budget;
        ShardedScheduler sharded(shards, ReferenceEngineOptions(threads),
                                 scheduler_options);
        for (size_t i = 0; i < trees_.size(); ++i) {
          ASSERT_TRUE(sharded.Insert(names_[i], trees_[i]).ok());
        }
        const std::vector<std::string> got =
            WireLines(sharded.ExecuteBatch(QueryBatch(names_)));
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i], want[i])
              << "shards=" << shards << " threads=" << threads
              << " budget=" << budget << " slot " << i;
        }
      }
    }
  }
}

// Warm restart: snapshot the reference catalog, install it into a fresh
// sharded service, and replay — still byte-identical.
TEST_F(CanonicalServingTest, WarmRestartTranscriptIsByteIdentical) {
  const std::vector<std::string> want = ReferenceWire();

  Engine engine(ReferenceEngineOptions(2));
  TreeCatalog catalog;
  QueryScheduler scheduler(&engine, &catalog);
  for (size_t i = 0; i < trees_.size(); ++i) {
    ASSERT_TRUE(catalog.Insert(names_[i], trees_[i]).ok());
  }
  const std::string bytes =
      EncodeCatalogSnapshot(BuildCatalogSnapshot(catalog, nullptr));
  auto snapshot = DecodeCatalogSnapshot(bytes.data(), bytes.size());
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  for (int shards : {1, 4}) {
    ShardedScheduler sharded(shards, ReferenceEngineOptions(2));
    ASSERT_TRUE(sharded.InstallSnapshot(*snapshot).ok());
    const std::vector<std::string> got =
        WireLines(sharded.ExecuteBatch(QueryBatch(names_)));
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "shards=" << shards << " slot " << i;
    }
  }
}

// The dedup story end to end: N permuted duplicates of one tree inserted
// under distinct names cost one shape, one fold compile, and after the
// first query every duplicate's query is a shared cache hit — and all
// duplicates' answers are byte-identical on the wire.
TEST_F(CanonicalServingTest, PermutedDuplicatesShareShapeCompileAndCache) {
  const AndXorTree base = RandomTree(321, /*num_keys=*/6);
  Engine engine(ReferenceEngineOptions(2));
  TreeCatalog catalog;
  QueryScheduler scheduler(&engine, &catalog);

  Rng rng(7);
  std::vector<std::string> names;
  std::set<std::string> distinct_texts;
  for (int i = 0; i < 4; ++i) {
    AndXorTree permuted = ShuffleCommutative(base, &rng);
    distinct_texts.insert(FormatTree(permuted, /*indent=*/false));
    names.push_back("dup" + std::to_string(i));
    ASSERT_TRUE(catalog.Insert(names.back(), std::move(permuted)).ok());
  }
  // The orbit draw produced at least two distinct wire identities (else the
  // dedup below is vacuous).
  ASSERT_GT(distinct_texts.size(), 1u);

  const CatalogCounts counts = catalog.Counts();
  EXPECT_EQ(counts.names, 4);
  EXPECT_EQ(counts.contents, static_cast<int>(distinct_texts.size()));
  EXPECT_EQ(counts.shapes, 1);
  EXPECT_EQ(catalog.fold_compiles(), 1);

  std::vector<ServiceRequest> batch;
  for (const std::string& name : names) {
    batch.push_back(TopKRequest(name, 3, TopKMetric::kSymDiff));
  }
  std::vector<std::string> lines = WireLines(scheduler.ExecuteBatch(batch));
  ASSERT_EQ(lines.size(), names.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    // The response echoes the request's name (the one per-duplicate field
    // by design); normalize it so the comparison covers the answer bytes.
    const std::string field = "\ttree=" + names[i];
    const size_t at = lines[i].find(field);
    ASSERT_NE(at, std::string::npos) << lines[i];
    lines[i].replace(at, field.size(), "\ttree=*");
  }
  for (size_t i = 1; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i], lines[0]) << "duplicate " << i;
  }

  // One (shape, k) line computed once, shared by every duplicate.
  const CacheStats stats = scheduler.cache_stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 3);
  EXPECT_EQ(stats.entries, 1);
}

}  // namespace
}  // namespace cpdb
