// Copyright 2026 The ConsensusDB Authors

#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "io/table_io.h"
#include "io/tree_text.h"
#include "model/possible_worlds.h"
#include "oracle/references.h"
#include "strtod_reference.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

TEST(TreeTextTest, ParsesLeaf) {
  auto tree = ParseTree("(leaf key=3 score=2.5 label=1)");
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(tree->NumLeaves(), 1);
  const TupleAlternative& alt = tree->node(tree->LeafIds()[0]).leaf;
  EXPECT_EQ(alt.key, 3);
  EXPECT_EQ(alt.score, 2.5);
  EXPECT_EQ(alt.label, 1);
}

TEST(TreeTextTest, ParsesNestedStructure) {
  auto tree = ParseTree(
      "(and (xor 0.3 (leaf key=1 score=8) 0.5 (leaf key=1 score=2))"
      " (xor 0.9 (leaf key=2 score=5)))");
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(tree->NumLeaves(), 3);
  EXPECT_NEAR(tree->KeyMarginal(1), 0.8, 1e-12);
  EXPECT_NEAR(tree->KeyMarginal(2), 0.9, 1e-12);
}

TEST(TreeTextTest, RejectsMalformedInput) {
  EXPECT_EQ(ParseTree("").status().code(), StatusCode::kParseError);
  EXPECT_EQ(ParseTree("(leaf)").status().code(), StatusCode::kParseError);
  EXPECT_EQ(ParseTree("(leaf key=1").status().code(), StatusCode::kParseError);
  EXPECT_EQ(ParseTree("(blah key=1)").status().code(), StatusCode::kParseError);
  EXPECT_EQ(ParseTree("(and)").status().code(), StatusCode::kParseError);
  EXPECT_EQ(ParseTree("(xor (leaf key=1 score=1))").status().code(),
            StatusCode::kParseError);  // missing probability
  EXPECT_EQ(ParseTree("(leaf key=1 score=abc)").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseTree("(leaf key=1 score=1) extra").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseTree("(leaf wat=1 key=2)").status().code(),
            StatusCode::kParseError);
}

TEST(TreeTextTest, RejectsNonFiniteNumbers) {
  // strtod accepts "inf"/"nan" spellings and overflows 1e999 to infinity;
  // every one of these must fail with a clean ParseError instead of
  // smuggling a non-finite value into a validated tree (a NaN score or
  // probability poisons every downstream fold).
  for (const char* bad : {
           "(leaf key=1 score=inf)",
           "(leaf key=1 score=-inf)",
           "(leaf key=1 score=infinity)",
           "(leaf key=1 score=nan)",
           "(leaf key=1 score=NaN)",
           "(leaf key=1 score=1e999)",   // overflow -> HUGE_VAL
           "(leaf key=1 score=-1e999)",
           "(xor inf (leaf key=1 score=1))",
           "(xor nan (leaf key=1 score=1))",
           "(xor 1e999 (leaf key=1 score=1))",
           "(leaf key=nan score=1)",
       }) {
    auto result = ParseTree(bad);
    ASSERT_FALSE(result.ok()) << "'" << bad << "' was accepted";
    EXPECT_EQ(result.status().code(), StatusCode::kParseError) << bad;
    EXPECT_NE(result.status().message().find("finite"), std::string::npos)
        << bad << ": " << result.status().ToString();
  }
  // Large-but-finite and tiny (underflowing) magnitudes remain legal: they
  // are representable approximations, not poison.
  EXPECT_TRUE(ParseTree("(leaf key=1 score=1e308)").ok());
  EXPECT_TRUE(ParseTree("(leaf key=1 score=1e-999)").ok());
}

// The number grammar of score and probability atoms is strtod's, minus
// non-finite results. This table pins exactly which spellings are accepted
// and what they parse to, so a change of lexer or number parser cannot
// widen or narrow the accepted set unnoticed.
TEST(TreeTextTest, NumberGrammarTable) {
  struct Case {
    const char* atom;
    bool score_ok;            // as `score=<atom>`
    StatusCode prob_status;   // as `(xor <atom> leaf)`
    double value;             // parsed value when accepted
  };
  const StatusCode kOk = StatusCode::kOk;
  const StatusCode kParse = StatusCode::kParseError;
  const StatusCode kInvalid = StatusCode::kInvalidArgument;
  const Case cases[] = {
      {"+1", true, kOk, 1.0},
      {".5", true, kOk, 0.5},
      {"5.", true, kInvalid, 5.0},
      {"1e", false, kParse, 0.0},
      {"1e+5", true, kInvalid, 1e5},
      {"1E5", true, kInvalid, 1e5},
      {"-0", true, kOk, -0.0},
      {"0x1p3", true, kInvalid, 8.0},
      {"inf", false, kParse, 0.0},
      {"nan", false, kParse, 0.0},
      {"1e999", false, kParse, 0.0},
      {"1e-400", true, kOk, 0.0},
      {"1_0", false, kParse, 0.0},
  };
  for (const Case& c : cases) {
    const std::string atom = c.atom;
    auto leaf = ParseTree("(leaf key=1 score=" + atom + ")");
    EXPECT_EQ(leaf.ok(), c.score_ok) << atom << ": "
                                     << leaf.status().ToString();
    if (leaf.ok()) {
      const double score = leaf->node(leaf->LeafIds()[0]).leaf.score;
      EXPECT_EQ(score, c.value) << atom;
      EXPECT_EQ(std::signbit(score), std::signbit(c.value)) << atom;
    } else {
      EXPECT_EQ(leaf.status().code(), kParse) << atom;
    }
    auto xor_tree = ParseTree("(xor " + atom + " (leaf key=1 score=1))");
    EXPECT_EQ(xor_tree.status().code(), c.prob_status)
        << atom << ": " << xor_tree.status().ToString();
    if (xor_tree.ok()) {
      EXPECT_EQ(xor_tree->node(xor_tree->root()).edge_probs[0], c.value)
          << atom;
    }
  }
}

// Every ASCII whitespace character separates tokens, alone or in runs.
TEST(TreeTextTest, EveryAsciiWhitespaceSeparates) {
  for (const char* ws : {" ", "\t", "\n", "\v", "\f", "\r", " \t\r\n"}) {
    const std::string sep = ws;
    auto tree = ParseTree(sep + "(xor" + sep + "0.5" + sep + "(leaf" + sep +
                          "key=1" + sep + "score=2" + sep + "label=3)" + sep +
                          ")" + sep);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    const TupleAlternative& alt = tree->node(tree->LeafIds()[0]).leaf;
    EXPECT_EQ(alt.key, 1);
    EXPECT_EQ(alt.score, 2.0);
    EXPECT_EQ(alt.label, 3);
    EXPECT_EQ(FormatTree(*tree), "(xor 0.5 (leaf key=1 score=2 label=3))");
  }
}

// Keys and labels are int32 values, and the parser reads them as doubles:
// a value that is not an integer, or does not fit, is a ParseError rather
// than a silent cast (1e20 was UB, 4294967297 wrapped, 1.5 truncated, and
// a negative label vanished from the output).
TEST(TreeTextTest, RejectsKeysAndLabelsThatDoNotFitInt32) {
  for (const char* bad : {
           "(leaf key=1e20 score=1)",
           "(leaf key=4294967297 score=1)",
           "(leaf key=2147483648 score=1)",
           "(leaf key=-2147483649 score=1)",
           "(leaf key=1.5 score=1)",
           "(leaf key=1 score=1 label=-5)",
           "(leaf key=1 score=1 label=-1)",
           "(leaf key=1 score=1 label=0.5)",
           "(leaf key=1 score=1 label=2147483648)",
           "(xor 0.5 (leaf key=1 score=1) 0.5 (leaf key=2 score=1 label=1e10))",
       }) {
    auto result = ParseTree(bad);
    ASSERT_FALSE(result.ok()) << "'" << bad << "' was accepted";
    EXPECT_EQ(result.status().code(), StatusCode::kParseError) << bad;
    EXPECT_NE(result.status().message().find("must be an integer"),
              std::string::npos)
        << bad << ": " << result.status().ToString();
  }
  // In-range integers keep their exact value and serialization, whatever
  // number spelling they arrive in.
  for (const auto& [text, formatted] :
       std::vector<std::pair<std::string, std::string>>{
           {"(leaf key=-2147483648 score=1 label=2147483647)",
            "(leaf key=-2147483648 score=1 label=2147483647)"},
           {"(leaf key=2147483647 score=1 label=0)",
            "(leaf key=2147483647 score=1 label=0)"},
           {"(leaf key=1e3 score=1 label=+2)",
            "(leaf key=1000 score=1 label=2)"},
           {"(leaf key=-0 score=1)", "(leaf key=0 score=1)"},
       }) {
    auto tree = ParseTree(text);
    ASSERT_TRUE(tree.ok()) << text << ": " << tree.status().ToString();
    EXPECT_EQ(FormatTree(*tree), formatted);
  }
}

// The error names the atom that failed, never an earlier token: each case
// converts a hex probability first, which only strtod's path accepts, then
// fails on a leaf integer that the from_chars path converts.
TEST(TreeTextTest, LeafIntegerErrorsNameTheirOwnAtom) {
  const std::pair<const char*, const char*> cases[] = {
      {"(xor 0x1p-1 (leaf key=1.5 score=1))",
       "leaf key must be an integer in [-2147483648, 2147483647], got '1.5' "
       "at offset 18"},
      {"(xor 0x1p-1 (leaf key=1 score=1 label=-5))",
       "leaf label must be an integer in [0, 2147483647], got '-5' at "
       "offset 32"},
      {"(xor 0x1p-1 (leaf key=3e9 score=1))",
       "leaf key must be an integer in [-2147483648, 2147483647], got '3e9' "
       "at offset 18"},
      {"(xor 0x1p-1 (leaf key=1 score=abc))",
       "expected a number, got 'abc' at offset 24"},
  };
  for (const auto& [text, message] : cases) {
    auto result = ParseTree(text);
    ASSERT_FALSE(result.ok()) << text;
    EXPECT_EQ(result.status().code(), StatusCode::kParseError) << text;
    EXPECT_EQ(result.status().message(), message) << text;
  }
}

// The grammar allows each leaf attribute once; a repeat is an error naming
// it rather than a silent overwrite of the first value.
TEST(TreeTextTest, RejectsRepeatedLeafAttributes) {
  const std::pair<const char*, const char*> cases[] = {
      {"(leaf key=1 key=2 score=3)",
       "leaf attribute 'key' appears more than once at offset 12"},
      {"(leaf key=1 score=3 score=4)",
       "leaf attribute 'score' appears more than once at offset 20"},
      {"(leaf key=1 label=2 score=3 label=5)",
       "leaf attribute 'label' appears more than once at offset 28"},
  };
  for (const auto& [text, message] : cases) {
    auto result = ParseTree(text);
    if (result.ok()) {
      ADD_FAILURE() << text << " loaded as " << FormatTree(*result);
      continue;
    }
    EXPECT_EQ(result.status().code(), StatusCode::kParseError) << text;
    EXPECT_EQ(result.status().message(), message) << text;
  }
}

// ParseTree converts numbers with a from_chars fast path and falls back to
// strtod; tests/strtod_reference.h holds both to strtod alone.
TEST(TreeNumberTest, GrammarEdgeCasesParseLikeStrtod) {
  for (const std::string& atom : std::vector<std::string>{
           "+0.5", "-0", "0x1p-1", "0x10", ".5", "5.", "1e", "1E5", "inf",
           "-nan", "NAN", "-inf", "1e999", "-1e999", "1e-400", "-1e-400",
           "", "-", "+", ".", "e5", "0x", "1.2.3", "1e+", "1e-5x", "00012",
           "-.5e-3", "1_0", "0X1P3", "infinity", std::string("1\0" "5", 3),
           std::string("\0" "1", 2), std::string("1e5\0" "x", 5)}) {
    EXPECT_TRUE(ParsesLikeStrtod(atom));
  }
}

TEST(TreeNumberTest, ExtremeMagnitudesParseLikeStrtod) {
  const double denorm_min = std::numeric_limits<double>::denorm_min();
  const double dbl_min = std::numeric_limits<double>::min();
  const double dbl_max = std::numeric_limits<double>::max();
  std::vector<double> values = {denorm_min, 2 * denorm_min, dbl_min,
                                std::nextafter(dbl_min, 0.0), dbl_max,
                                std::nextafter(dbl_max, 0.0), 0.5 * dbl_min};
  for (int i = 0; i < 64; ++i) values.push_back(std::ldexp(1.0 + i, -1074 + i));
  std::vector<std::string> atoms = {
      "1.7976931348623158e308", "1.7976931348623159e308", "1.8e308",
      "2.4703282292062327e-324", "2.4703282292062328e-324",
      "4.9406564584124654e-324", "2.2250738585072011e-308",
      "2.2250738585072012e-308", "1e-400", "1e-320", "1e308", "9e307"};
  for (double v : values) {
    for (double signed_v : {v, -v}) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", signed_v);
      atoms.push_back(buf);
      const std::to_chars_result r =
          std::to_chars(buf, buf + sizeof(buf), signed_v);
      atoms.emplace_back(buf, r.ptr);
    }
  }
  for (const std::string& atom : atoms) EXPECT_TRUE(ParsesLikeStrtod(atom));
}

// Mantissas of 20 to 800 digits: random digit strings, and the exact
// decimal expansion of the midpoint between two adjacent doubles (a
// rounding tie, held exactly by long double) with and without a digit that
// breaks the tie upward.
TEST(TreeNumberTest, LongMantissasParseLikeStrtod) {
  Rng rng(2101);
  for (int trial = 0; trial < 300; ++trial) {
    const int digits = static_cast<int>(rng.UniformInt(20, 800));
    std::string atom = rng.UniformInt(0, 1) == 1 ? "-" : "";
    const int point = static_cast<int>(rng.UniformInt(0, digits));
    for (int d = 0; d < digits; ++d) {
      if (d == point) atom += '.';
      atom += static_cast<char>('0' + rng.UniformInt(0, 9));
    }
    atom += "e" + std::to_string(rng.UniformInt(-340, 310));
    EXPECT_TRUE(ParsesLikeStrtod(atom));
  }
  const double denorm_min = std::numeric_limits<double>::denorm_min();
  const std::vector<double> lows = {0.0, denorm_min, 1.0, 0.1, 1e-310,
                                    std::numeric_limits<double>::min(), 1e300,
                                    9007199254740992.0};
  for (double low : lows) {
    const double high = std::nextafter(low, 1e308);
    const long double mid =
        (static_cast<long double>(low) + static_cast<long double>(high)) / 2;
    for (int precision : {19, 25, 60, 200, 500, 799}) {
      char buf[1024];
      std::snprintf(buf, sizeof(buf), "%.*Le", precision, mid);
      std::string tie = buf;
      EXPECT_TRUE(ParsesLikeStrtod(tie));
      const size_t e = tie.find('e');
      EXPECT_TRUE(ParsesLikeStrtod(tie.substr(0, e) + "1" + tie.substr(e)));
    }
  }
}

// 10^6 random finite bit patterns, each spelled by %.17g and by the
// shortest to_chars form, loaded 1000 leaves per tree.
TEST(TreeNumberTest, RandomFiniteDoublesParseLikeStrtod) {
  constexpr int kValues = 1000000;
  constexpr int kPerTree = 1000;
  Rng rng(2102);
  std::vector<std::string> atoms;
  std::string text;
  for (int done = 0; done < kValues;) {
    atoms.clear();
    while (static_cast<int>(atoms.size()) < 2 * kPerTree) {
      double v;
      const uint64_t bits = rng.Next();
      std::memcpy(&v, &bits, sizeof(v));
      if (!std::isfinite(v)) continue;
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      atoms.push_back(buf);
      const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
      atoms.emplace_back(buf, r.ptr);
      ++done;
    }
    text = "(and";
    for (size_t i = 0; i < atoms.size(); ++i) {
      text.append(" (leaf key=").append(std::to_string(i));
      text.append(" score=").append(atoms[i]).push_back(')');
    }
    text.push_back(')');
    auto tree = ParseTree(text);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    const std::vector<NodeId>& leaves = tree->LeafIds();
    ASSERT_EQ(leaves.size(), atoms.size());
    for (size_t i = 0; i < atoms.size(); ++i) {
      // Every atom is a whole finite strtod number, so the reference is
      // strtod itself.
      char* end = nullptr;
      const double want = std::strtod(atoms[i].c_str(), &end);
      const double got = tree->node(leaves[i]).leaf.score;
      if (*end != '\0' || DoubleBitsOf(got) != DoubleBitsOf(want)) {
        FAIL() << atoms[i] << ": parser " << std::hexfloat << got
               << ", strtod " << want;
      }
    }
  }
}

TEST(TreeTextTest, RejectsSemanticViolations) {
  // Parsing succeeds syntactically but Validate() catches the constraint.
  EXPECT_FALSE(
      ParseTree("(and (leaf key=1 score=1) (leaf key=1 score=2))").ok());
  EXPECT_FALSE(
      ParseTree("(xor 0.7 (leaf key=1 score=1) 0.7 (leaf key=1 score=2))").ok());
}

TEST(TreeTextTest, RoundTripsRandomTrees) {
  for (int seed = 0; seed < 10; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) + 1000);
    RandomTreeOptions opts;
    opts.num_keys = 6;
    opts.max_depth = 3;
    auto tree = RandomAndXorTree(opts, &rng);
    ASSERT_TRUE(tree.ok());
    for (bool indent : {false, true}) {
      std::string text = FormatTree(*tree, indent);
      auto reparsed = ParseTree(text);
      ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
      // Structural equality via the possible-world distribution: the two
      // trees must induce the same world probabilities over (key, score).
      auto w1 = EnumerateWorlds(*tree);
      auto w2 = EnumerateWorlds(*reparsed);
      ASSERT_TRUE(w1.ok());
      ASSERT_TRUE(w2.ok());
      ASSERT_EQ(w1->size(), w2->size());
      double total1 = 0.0, total2 = 0.0;
      for (const World& w : *w1) total1 += w.prob;
      for (const World& w : *w2) total2 += w.prob;
      EXPECT_NEAR(total1, total2, 1e-9);
    }
  }
}

TEST(BidTableTest, ParsesBlocksGroupedByKey) {
  auto blocks = ParseBidTable(
      "# comment line\n"
      "1 0.3 8.0\n"
      "2 0.9 5.0 4\n"
      "1 0.5 2.0\n");
  ASSERT_TRUE(blocks.ok()) << blocks.status().ToString();
  ASSERT_EQ(blocks->size(), 2u);
  EXPECT_EQ((*blocks)[0].size(), 2u);  // key 1 has two alternatives
  EXPECT_EQ((*blocks)[0][0].alt.key, 1);
  EXPECT_EQ((*blocks)[0][1].alt.score, 2.0);
  EXPECT_EQ((*blocks)[1][0].alt.label, 4);
}

TEST(BidTableTest, RejectsBadInput) {
  EXPECT_FALSE(ParseBidTable("").ok());
  EXPECT_FALSE(ParseBidTable("1 0.5\n").ok());            // missing score
  EXPECT_FALSE(ParseBidTable("1 1.5 2.0\n").ok());        // prob > 1
  EXPECT_FALSE(ParseBidTable("1 0.5 2.0 3 junk\n").ok()); // trailing field
  EXPECT_FALSE(ParseBidTable("1 0.5 2.0\n1 0.5 2.0\n").ok());  // duplicate
  EXPECT_FALSE(ParseBidTable("1 0.6 2.0\n1 0.6 3.0\n").ok());  // mass > 1
  // Non-finite tokens: some standard libraries' stream extraction accepts
  // "inf"/"nan" spellings (libc++) where others fail the extraction
  // (libstdc++) — either way these must be ParseError, and a NaN
  // probability must not slip past the [0,1] range check.
  for (const char* bad : {"1 nan 5\n", "1 inf 5\n", "1 0.5 nan\n",
                          "1 0.5 inf\n", "1 0.5 -inf\n"}) {
    auto result = ParseBidTable(bad);
    ASSERT_FALSE(result.ok()) << "'" << bad << "' was accepted";
    EXPECT_EQ(result.status().code(), StatusCode::kParseError) << bad;
  }
}

// The BID key and label columns are int32 values: a token that is not an
// integer in range is a ParseError, not a narrowed or half-read number
// ("1.5" used to read as key 1 and shift ".5" into the probability
// column; "abc" silently skipped its line).
TEST(BidTableTest, RejectsKeysAndLabelsThatDoNotFitInt32) {
  for (const char* bad : {
           "4294967297 0.5 1\n",
           "2147483648 0.5 1\n",
           "-2147483649 0.5 1\n",
           "1.5 0.5 1\n",
           "1e3 0.5 1\n",
           "1 0.5 1\nabc 0.5 1\n",
           "1 0.5 1\n99999999999999999999 0.5 1\n",
           "1 0.5 1 -5\n",
           "1 0.5 1 2147483648\n",
           "1 0.5 1 x\n",
       }) {
    auto result = ParseBidTable(bad);
    ASSERT_FALSE(result.ok()) << "'" << bad << "' was accepted";
    EXPECT_EQ(result.status().code(), StatusCode::kParseError) << bad;
    EXPECT_NE(result.status().message().find("is not an integer in"),
              std::string::npos)
        << bad << ": " << result.status().ToString();
  }
  auto blocks = ParseBidTable("-2147483648 0.5 1 2147483647\n+7 0.5 2 0\n");
  ASSERT_TRUE(blocks.ok()) << blocks.status().ToString();
  ASSERT_EQ(blocks->size(), 2u);
  EXPECT_EQ((*blocks)[0][0].alt.key, -2147483647 - 1);
  EXPECT_EQ((*blocks)[0][0].alt.label, 2147483647);
  EXPECT_EQ((*blocks)[1][0].alt.key, 7);
  EXPECT_EQ((*blocks)[1][0].alt.label, 0);
}

TEST(BidTableTest, RoundTrip) {
  Rng rng(77);
  RandomTreeOptions opts;
  opts.num_keys = 8;
  std::vector<Block> blocks = RandomBidBlocks(opts, &rng);
  auto reparsed = ParseBidTable(FormatBidTable(blocks));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  ASSERT_EQ(reparsed->size(), blocks.size());
  for (size_t b = 0; b < blocks.size(); ++b) {
    ASSERT_EQ((*reparsed)[b].size(), blocks[b].size());
    for (size_t a = 0; a < blocks[b].size(); ++a) {
      EXPECT_EQ((*reparsed)[b][a].alt.key, blocks[b][a].alt.key);
      EXPECT_NEAR((*reparsed)[b][a].prob, blocks[b][a].prob, 1e-6);
      EXPECT_NEAR((*reparsed)[b][a].alt.score, blocks[b][a].alt.score, 1e-6);
    }
  }
}

TEST(FileIoTest, WriteAndReadBack) {
  std::string path = ::testing::TempDir() + "/cpdb_io_test.txt";
  ASSERT_TRUE(WriteStringToFile(path, "hello\nworld\n").ok());
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "hello\nworld\n");
  EXPECT_EQ(ReadFileToString("/nonexistent/path").status().code(),
            StatusCode::kNotFound);
}

TEST(FileIoTest, ReadingADirectoryIsAnErrorNamingThePath) {
  // fopen succeeds on a directory; only the read fails. It must not pass
  // for an empty file (which a parser then reports at offset 0).
  const std::string dir = ::testing::TempDir();
  auto content = ReadFileToString(dir);
  ASSERT_FALSE(content.ok());
  EXPECT_EQ(content.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(content.status().message().find("cannot read file: " + dir),
            std::string::npos)
      << content.status().ToString();
}

TEST(FileIoTest, WriteToAFullDeviceIsAnErrorNamingThePath) {
  // /dev/full accepts the buffered fwrite and fails the flush at fclose.
  std::FILE* probe = std::fopen("/dev/full", "wb");
  if (probe == nullptr) GTEST_SKIP() << "no /dev/full on this platform";
  std::fclose(probe);
  Status status = WriteStringToFile("/dev/full", "some bytes\n");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("cannot write file: /dev/full"),
            std::string::npos)
      << status.ToString();
}

}  // namespace
}  // namespace cpdb
