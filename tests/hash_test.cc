// Copyright 2026 The ConsensusDB Authors
//
// The FNV-1a fingerprint hash must match the published reference vectors —
// catalog fingerprints are meant to be stable across processes, platforms,
// and library versions, so these are exact pinned values, not properties.

#include "common/hash.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "common/rng.h"

namespace cpdb {
namespace {

TEST(HashTest, MatchesPublishedFnv1aVectors) {
  // Reference values from the FNV specification test suite.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(HashTest, ChainingEqualsConcatenation) {
  const std::string a = "(and (xor 0.3";
  const std::string b = " (leaf key=1 score=8)))";
  EXPECT_EQ(Fnv1a64(b.data(), b.size(), Fnv1a64(a)), Fnv1a64(a + b));
}

TEST(HashTest, SensitiveToEveryByte) {
  EXPECT_NE(Fnv1a64("tree-a"), Fnv1a64("tree-b"));
  EXPECT_NE(Fnv1a64("ab"), Fnv1a64("ba"));
  EXPECT_NE(Fnv1a64(std::string("a\0b", 3)), Fnv1a64(std::string("ab", 2)));
}

// The two-chain helper yields exactly the published single-chain values,
// whichever range carries which input.
TEST(HashTest, PairMatchesPublishedFnv1aVectors) {
  using Hashes = std::pair<uint64_t, uint64_t>;
  EXPECT_EQ(Fnv1a64Pair("", "", 0),
            Hashes(0xcbf29ce484222325ULL, 0xcbf29ce484222325ULL));
  EXPECT_EQ(Fnv1a64Pair("a", "a", 1),
            Hashes(0xaf63dc4c8601ec8cULL, 0xaf63dc4c8601ec8cULL));
  EXPECT_EQ(Fnv1a64Pair("foobar", "foobar", 6),
            Hashes(0x85944171f73967e8ULL, 0x85944171f73967e8ULL));
  const std::string a = "a";
  EXPECT_EQ(Fnv1a64Pair(a.data(), "\x00", 1).first, 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a64Pair("\x00", a.data(), 1).second, 0xaf63dc4c8601ec8cULL);
}

TEST(HashTest, PairEqualsTwoSeparateHashes) {
  Rng rng(59);
  for (int trial = 0; trial < 500; ++trial) {
    const size_t len = static_cast<size_t>(rng.UniformInt(0, 300));
    std::string a(len, '\0');
    std::string b(len, '\0');
    for (size_t i = 0; i < len; ++i) {
      a[i] = static_cast<char>(rng.UniformInt(0, 255));
      b[i] = static_cast<char>(rng.UniformInt(0, 255));
    }
    const std::pair<uint64_t, uint64_t> both =
        Fnv1a64Pair(a.data(), b.data(), len);
    EXPECT_EQ(both.first, Fnv1a64(a)) << "length " << len;
    EXPECT_EQ(both.second, Fnv1a64(b)) << "length " << len;
  }
}

TEST(HashTest, HexRenderingIsFixedWidthLowerCase) {
  EXPECT_EQ(HashToHex(0), "0000000000000000");
  EXPECT_EQ(HashToHex(0xcbf29ce484222325ULL), "cbf29ce484222325");
  EXPECT_EQ(HashToHex(0xFFFFFFFFFFFFFFFFULL), "ffffffffffffffff");
}

}  // namespace
}  // namespace cpdb
