// Copyright 2026 The ConsensusDB Authors
//
// Golden identity corpus. Over 200 seeded trees of every shape the stack
// loads — random and/xor trees, BID and tuple-independent tables,
// commutative permutations, already-canonical trees, hand-written leaves
// with labels, negative keys and edge-case doubles, and deep XOR chains —
// the (ContentFp, StructKey, Fnv1a64(canonical bytes)) triples are pinned
// to fixed digests. Any change to parsing, validation, serialization or
// canonicalization that moves one identity byte fails here, whatever the
// speed-up that motivated it.
//
// Every tree also takes both canonicalization entry points, once
// validated and once as an unvalidated copy, and the bytes must agree.

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "io/request_protocol.h"
#include "io/tree_text.h"
#include "model/and_xor_tree.h"
#include "model/canonical.h"
#include "oracle/table_generators.h"
#include "service/tree_catalog.h"
#include "strtod_reference.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

// The same nodes, ids and root, with no Validate() call: the tree's
// `validated()` flag is unset.
AndXorTree UnvalidatedCopy(const AndXorTree& tree) {
  AndXorTree out;
  for (NodeId id = 0; id < tree.NumNodes(); ++id) {
    const TreeNode& n = tree.node(id);
    switch (n.kind) {
      case NodeKind::kLeaf:
        out.AddLeaf(n.leaf);
        break;
      case NodeKind::kAnd:
        out.AddAnd(n.children);
        break;
      case NodeKind::kXor:
        out.AddXor(n.children, n.edge_probs);
        break;
    }
  }
  out.SetRoot(tree.root());
  return out;
}

// Every inner node's children (with their XOR edge probabilities) in a
// seeded random order.
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
  for (size_t idx : order) {
    children.push_back(RebuildShuffled(in, n.children[idx], rng, out));
    if (n.kind == NodeKind::kXor) probs.push_back(n.edge_probs[idx]);
  }
  return n.kind == NodeKind::kAnd
             ? out->AddAnd(std::move(children))
             : out->AddXor(std::move(children), std::move(probs));
}

AndXorTree Parsed(const std::string& text) {
  auto tree = ParseTree(text);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString() << "\n" << text;
  return tree.ok() ? *std::move(tree) : AndXorTree();
}

AndXorTree RandomTree(uint64_t seed) {
  Rng rng(seed);
  RandomTreeOptions opts;
  opts.num_keys = 2 + static_cast<int>(seed % 13);
  opts.max_depth = 2 + static_cast<int>(seed % 4);
  opts.max_alternatives = 1 + static_cast<int>(seed % 3);
  opts.xor_prob = 0.3 + 0.1 * static_cast<double>(seed % 5);
  return *RandomAndXorTree(opts, &rng);
}

struct Category {
  const char* name;
  std::vector<AndXorTree> trees;
};

std::vector<Category> Corpus() {
  std::vector<Category> corpus;

  Category random{"random_and_xor", {}};
  for (uint64_t seed = 1; seed <= 70; ++seed) {
    random.trees.push_back(RandomTree(seed));
  }
  corpus.push_back(std::move(random));

  Category bid{"bid", {}};
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed * 31 + 7);
    RandomTreeOptions opts;
    opts.num_keys = 1 + static_cast<int>(seed % 20);
    opts.max_alternatives = 1 + static_cast<int>(seed % 4);
    bid.trees.push_back(*RandomBid(opts, &rng));
  }
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed * 97 + 3);
    bid.trees.push_back(
        *RandomTupleIndependent(1 + static_cast<int>(seed * 3), &rng));
  }
  corpus.push_back(std::move(bid));

  Category permuted{"permuted", {}};
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const AndXorTree base = RandomTree(seed % 10 + 1);
    Rng rng(seed * 1009);
    AndXorTree out;
    out.SetRoot(RebuildShuffled(base, base.root(), &rng, &out));
    EXPECT_TRUE(out.Validate().ok());
    permuted.trees.push_back(std::move(out));
  }
  corpus.push_back(std::move(permuted));

  Category canonical{"already_canonical", {}};
  for (uint64_t seed = 101; seed <= 140; ++seed) {
    auto tree = CanonicalizeTree(RandomTree(seed));
    EXPECT_TRUE(tree.ok());
    // Half straight from CanonicalizeTree, half reparsed from its text.
    canonical.trees.push_back(seed % 2 == 0
                                  ? *std::move(tree)
                                  : Parsed(FormatTree(*tree)));
  }
  corpus.push_back(std::move(canonical));

  // Leaves with labels, negative keys and doubles whose shortest
  // round-trip spelling is long or signed.
  Category leaves{"leaf_fields", {}};
  const double kScores[] = {0.0,     -0.0,   5e-324,    1e308, 0.1 + 0.2,
                            -2.5e-7, 1.0 / 3, 123456789.0};
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed * 7919);
    std::string text = "(and";
    const int keys = 1 + static_cast<int>(seed % 5);
    for (int k = 0; k < keys; ++k) {
      text += " (xor";
      const int alts = 1 + static_cast<int>(rng.UniformInt(0, 2));
      for (int a = 0; a < alts; ++a) {
        const double score = kScores[rng.UniformInt(0, 7)] + a;
        text += " " + FormatRoundTripDouble(1.0 / (alts + 1)) +
                " (leaf key=" +
                std::to_string(static_cast<int>(seed) * 100 - 1000 + k) +
                " score=" + FormatRoundTripDouble(score);
        if (rng.UniformInt(0, 1) == 1) {
          text += " label=" + std::to_string(rng.UniformInt(0, 2147483647));
        }
        text += ")";
      }
      text += ")";
    }
    leaves.trees.push_back(Parsed(text + ")"));
  }
  corpus.push_back(std::move(leaves));

  // The deepest shapes ParseTree accepts comfortably: a 1500-deep XOR chain
  // over one leaf, and a 1500-deep chain with a same-key leaf per level.
  Category deep{"deep_chain", {}};
  {
    std::string chain;
    for (int i = 0; i < 1500; ++i) chain += "(xor 1.0 ";
    chain += "(leaf key=1 score=1)";
    chain += std::string(1500, ')');
    deep.trees.push_back(Parsed(chain));
  }
  {
    std::string chain;
    for (int i = 0; i < 1500; ++i) {
      chain += "(xor 0.5 (leaf key=7 score=" + std::to_string(i) + ") 0.5 ";
    }
    chain += "(leaf key=7 score=-1)";
    chain += std::string(1500, ')');
    deep.trees.push_back(Parsed(chain));
  }
  corpus.push_back(std::move(deep));
  return corpus;
}

// Feeds `v` little-endian, so the digests do not depend on the host.
uint64_t HashU64(uint64_t h, uint64_t v) {
  unsigned char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  return Fnv1a64(b, sizeof(b), h);
}

std::string CanonicalBytes(const AndXorTree& tree) {
  auto canonical = CanonicalizeTree(tree);
  EXPECT_TRUE(canonical.ok()) << canonical.status().ToString();
  return canonical.ok() ? FormatTree(*canonical) : std::string();
}

TEST(IdentityCorpusTest, CorpusHasAtLeastTwoHundredTrees) {
  size_t total = 0;
  for (const Category& category : Corpus()) total += category.trees.size();
  EXPECT_GE(total, 200u);
}

// Digests of every tree's (ContentFp, StructKey, Fnv1a64(canonical bytes))
// in corpus order, captured before the single-pass load path existed.
TEST(IdentityCorpusTest, IdentitiesMatchGoldenDigests) {
  const std::vector<std::pair<std::string, std::string>> golden = {
      {"random_and_xor", "a8c834d5be95b91b"},
      {"bid", "0e3789331f431549"},
      {"permuted", "200d0453ff8f9a46"},
      {"already_canonical", "6b07e654419ba78f"},
      {"leaf_fields", "b05015532f185364"},
      {"deep_chain", "6d75b994da02876d"},
  };
  const std::vector<Category> corpus = Corpus();
  ASSERT_EQ(corpus.size(), golden.size());
  for (size_t c = 0; c < corpus.size(); ++c) {
    ASSERT_EQ(corpus[c].name, golden[c].first);
    uint64_t digest = kFnv1a64OffsetBasis;
    for (const AndXorTree& tree : corpus[c].trees) {
      auto identity = TreeCatalog::ComputeIdentity(tree);
      ASSERT_TRUE(identity.ok()) << identity.status().ToString();
      const uint64_t canonical_fp = Fnv1a64(identity->canonical_bytes);
      EXPECT_EQ(canonical_fp, identity->struct_key.value());
      EXPECT_EQ(Fnv1a64(identity->content), identity->content_fp.value());
      digest = HashU64(digest, identity->content_fp.value());
      digest = HashU64(digest, identity->struct_key.value());
      digest = HashU64(digest, canonical_fp);
    }
    EXPECT_EQ(HashToHex(digest), golden[c].second) << corpus[c].name;
  }
}

// Every number token of the corpus, in content and canonical bytes, parses
// to the bits strtod gives it (tests/strtod_reference.h).
TEST(IdentityCorpusTest, EveryNumberTokenParsesLikeStrtod) {
  std::set<std::string> tokens;
  for (const Category& category : Corpus()) {
    for (const AndXorTree& tree : category.trees) {
      auto identity = TreeCatalog::ComputeIdentity(tree);
      ASSERT_TRUE(identity.ok()) << identity.status().ToString();
      for (const std::string* text :
           {&identity->content, &identity->canonical_bytes}) {
        for (std::string& token : NumberTokens(*text)) {
          tokens.insert(std::move(token));
        }
      }
    }
  }
  EXPECT_GT(tokens.size(), 1000u);
  for (const std::string& token : tokens) {
    EXPECT_TRUE(ParsesLikeStrtod(token));
  }
}

TEST(IdentityCorpusTest, ValidatedAndUnvalidatedInputsAgree) {
  for (const Category& category : Corpus()) {
    for (size_t i = 0; i < category.trees.size(); ++i) {
      const AndXorTree& tree = category.trees[i];
      const AndXorTree copy = UnvalidatedCopy(tree);
      const std::string bytes = CanonicalBytes(tree);
      EXPECT_EQ(CanonicalBytes(copy), bytes) << category.name << " #" << i;

      auto from_tree = TreeCatalog::ComputeIdentity(tree);
      auto from_copy = TreeCatalog::ComputeIdentity(copy);
      ASSERT_TRUE(from_tree.ok() && from_copy.ok());
      EXPECT_EQ(from_copy->content, from_tree->content);
      EXPECT_EQ(from_copy->canonical_bytes, from_tree->canonical_bytes);
      EXPECT_EQ(from_tree->canonical_bytes, bytes);
      EXPECT_EQ(FormatTree(*from_tree->canonical_tree), bytes);

      // A reload of the content text derives the same identity.
      auto reloaded = TreeCatalog::ComputeIdentity(Parsed(from_tree->content));
      ASSERT_TRUE(reloaded.ok());
      EXPECT_EQ(reloaded->content, from_tree->content);
      EXPECT_EQ(reloaded->canonical_bytes, bytes);
    }
  }
}

}  // namespace
}  // namespace cpdb
