// Copyright 2026 The ConsensusDB Authors
//
// Failure-injection tests for the text parsers: randomized mutations of
// valid inputs must never crash, and must either parse to a valid tree or
// fail with a clean ParseError / InvalidArgument status.

#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "io/table_io.h"
#include "io/tree_text.h"
#include "oracle/references.h"
#include "oracle/table_generators.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

class ParserFuzzProperty : public ::testing::TestWithParam<int> {};

TEST_P(ParserFuzzProperty, MutatedTreesNeverCrash) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 5417 + 101);
  RandomTreeOptions opts;
  opts.num_keys = 5;
  opts.max_depth = 3;
  auto tree = RandomAndXorTree(opts, &rng);
  ASSERT_TRUE(tree.ok());
  std::string base = FormatTree(*tree, GetParam() % 2 == 0);

  static const char kNoise[] = "()(). 01xXleafandorkey=score=-e+ \t\n";
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = base;
    int edits = 1 + static_cast<int>(rng.UniformInt(0, 3));
    for (int e = 0; e < edits && !mutated.empty(); ++e) {
      size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
      switch (rng.UniformInt(0, 2)) {
        case 0:  // replace
          mutated[pos] = kNoise[rng.UniformInt(0, sizeof(kNoise) - 2)];
          break;
        case 1:  // delete
          mutated.erase(pos, 1);
          break;
        default:  // insert
          mutated.insert(pos, 1, kNoise[rng.UniformInt(0, sizeof(kNoise) - 2)]);
          break;
      }
    }
    auto result = ParseTree(mutated);
    if (result.ok()) {
      // Whatever parsed must be internally consistent.
      EXPECT_GE(result->NumLeaves(), 1);
    } else {
      StatusCode code = result.status().code();
      EXPECT_TRUE(code == StatusCode::kParseError ||
                  code == StatusCode::kInvalidArgument)
          << result.status().ToString();
    }
  }
}

TEST_P(ParserFuzzProperty, MutatedBidTablesNeverCrash) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7333 + 11);
  RandomTreeOptions opts;
  opts.num_keys = 6;
  std::string base = FormatBidTable(RandomBidBlocks(opts, &rng));

  static const char kNoise[] = "0123456789.- #\n\te";
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = base;
    for (int e = 0; e < 3 && !mutated.empty(); ++e) {
      size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
      mutated[pos] = kNoise[rng.UniformInt(0, sizeof(kNoise) - 2)];
    }
    auto result = ParseBidTable(mutated);
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kParseError)
          << result.status().ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzProperty, ::testing::Range(0, 6));

TEST(ParserRobustnessTest, ModeratelyNestedInputParses) {
  std::string text;
  const int depth = 1500;
  for (int i = 0; i < depth; ++i) text += "(xor 1.0 ";
  text += "(leaf key=1 score=1)";
  for (int i = 0; i < depth; ++i) text += ")";
  auto result = ParseTree(text);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->NumLeaves(), 1);
}

TEST(ParserRobustnessTest, AdversarialNestingFailsCleanly) {
  // Beyond the documented limit the parser must return ParseError instead of
  // exhausting the call stack (this crashed before the depth guard existed).
  std::string text;
  const int depth = 50000;
  for (int i = 0; i < depth; ++i) text += "(and ";
  text += "(leaf key=1 score=1)";
  for (int i = 0; i < depth; ++i) text += ")";
  auto result = ParseTree(text);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
  EXPECT_NE(result.status().message().find("depth"), std::string::npos);
}

TEST(ParserRobustnessTest, HugeNumbersAndWeirdWhitespace) {
  auto t1 = ParseTree("(leaf\tkey=1\n   score=1e308)");
  ASSERT_TRUE(t1.ok());
  auto t2 = ParseTree("(xor 1e-300 (leaf key=1 score=2))");
  EXPECT_TRUE(t2.ok());
  auto t3 = ParseTree("(xor 1e300 (leaf key=1 score=2))");
  EXPECT_FALSE(t3.ok());  // probability constraint
}

}  // namespace
}  // namespace cpdb
