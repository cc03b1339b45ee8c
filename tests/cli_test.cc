// Copyright 2026 The ConsensusDB Authors
//
// Drives the cpdb_cli command surface in-process: every command, both input
// formats, and the error paths.

#include "tools/cli_lib.h"

#include <gtest/gtest.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "core/set_consensus.h"
#include "engine/engine.h"
#include "io/request_protocol.h"
#include "io/table_io.h"
#include "io/tree_text.h"
#include "model/builders.h"
#include "model/flat_tree.h"
#include "model/possible_worlds.h"
#include "temp_path.h"

namespace cpdb {
namespace {

// Runs the CLI capturing stdout/stderr through temp files.
struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult RunCliArgs(const std::vector<std::string>& args) {
  std::string out_path = TempPath("cli_out.txt");
  std::string err_path = TempPath("cli_err.txt");
  std::FILE* out = std::fopen(out_path.c_str(), "w+");
  std::FILE* err = std::fopen(err_path.c_str(), "w+");
  std::vector<std::string> full = {"cpdb_cli"};
  full.insert(full.end(), args.begin(), args.end());
  int code = RunCli(full, out, err);
  std::fclose(out);
  std::fclose(err);
  return {code, *ReadFileToString(out_path), *ReadFileToString(err_path)};
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tree_path_ = TempPath("cli_tree.sexp");
    bid_path_ = TempPath("cli_table.bid");
    ASSERT_TRUE(WriteStringToFile(
                    tree_path_,
                    "(and (xor 0.6 (leaf key=1 score=8 label=0)"
                    "          0.3 (leaf key=1 score=5 label=1))"
                    " (xor 0.7 (leaf key=2 score=9 label=0))"
                    " (xor 0.5 (leaf key=3 score=7 label=1)"
                    "          0.5 (leaf key=3 score=6 label=0)))")
                    .ok());
    ASSERT_TRUE(WriteStringToFile(bid_path_,
                                  "# key prob score label\n"
                                  "1 0.6 8 0\n"
                                  "1 0.3 5 1\n"
                                  "2 0.7 9 0\n"
                                  "3 0.5 7 1\n"
                                  "3 0.5 6 0\n")
                    .ok());
  }
  std::string tree_path_;
  std::string bid_path_;
};

TEST_F(CliTest, HelpPrintsUsage) {
  CliResult r = RunCliArgs({"help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("consensus-world"), std::string::npos);
}

TEST_F(CliTest, ValidateBothFormats) {
  EXPECT_EQ(RunCliArgs({"validate", tree_path_}).code, 0);
  CliResult r = RunCliArgs({"validate", bid_path_, "--format=bid"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("5 leaves"), std::string::npos);
}

TEST_F(CliTest, ValidateRejectsBrokenInput) {
  std::string bad = TempPath("cli_bad.sexp");
  ASSERT_TRUE(WriteStringToFile(
                  bad, "(xor 0.9 (leaf key=1 score=1) 0.9 (leaf key=1 score=2))")
                  .ok());
  CliResult r = RunCliArgs({"validate", bad});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("INVALID"), std::string::npos);
}

TEST_F(CliTest, ValidateRejectsKeysAndLabelsThatDoNotFitInt32) {
  // Each of these used to validate, and dump-canon showed what the cast
  // made of it: key=-2147483648 for 1e20 and 4294967297, key=1 for 1.5,
  // and no label at all for label=-5.
  const std::string path = TempPath("cli_narrow.sexp");
  for (const char* bad : {"(leaf key=1e20 score=1)",
                          "(leaf key=4294967297 score=1)",
                          "(leaf key=1.5 score=1)",
                          "(leaf key=1 score=1 label=-5)"}) {
    ASSERT_TRUE(WriteStringToFile(path, bad).ok());
    for (const char* command : {"validate", "dump-canon"}) {
      CliResult r = RunCliArgs({command, path});
      EXPECT_EQ(r.code, 1) << command << " " << bad << "\n" << r.out;
      EXPECT_NE(r.err.find("must be an integer"), std::string::npos)
          << command << " " << bad << "\n" << r.err;
    }
  }
  const std::string bid = TempPath("cli_narrow.bid");
  ASSERT_TRUE(WriteStringToFile(bid, "4294967297 0.5 1\n").ok());
  CliResult r = RunCliArgs({"validate", bid, "--format=bid"});
  EXPECT_EQ(r.code, 1) << r.out;
  EXPECT_NE(r.err.find("is not an integer"), std::string::npos) << r.err;
}

TEST_F(CliTest, MarginalsRoundTripTheComputedDoublesExactly) {
  // The satellite regression: offline output now uses the same shortest
  // round-trip formatting as the serve wire, so strtod of every printed
  // probability reproduces the computed double bitwise ("%.6f" used to
  // truncate — and to round 0.8999999999999999 up to a tidy-looking
  // 0.900000 that was not the answer).
  CliResult r = RunCliArgs({"marginals", tree_path_});
  EXPECT_EQ(r.code, 0);
  auto tree = ParseTree(*ReadFileToString(tree_path_));
  ASSERT_TRUE(tree.ok());
  int matched = 0;
  for (KeyId key : tree->Keys()) {
    const std::string prefix = std::to_string(key) + " ";
    size_t pos = r.out.find(prefix);
    ASSERT_NE(pos, std::string::npos) << "key " << key << " in:\n" << r.out;
    const char* printed = r.out.c_str() + pos + prefix.size();
    EXPECT_EQ(std::strtod(printed, nullptr), tree->KeyMarginal(key))
        << "key " << key << ": printed '" << printed
        << "' does not round-trip the computed marginal";
    ++matched;
  }
  EXPECT_EQ(matched, 3);
}

TEST_F(CliTest, DumpFlatPrintsTheCompiledRecordTable) {
  // Both input formats produce a record-table dump whose contents agree
  // with an in-process compile of the same tree.
  CliResult r = RunCliArgs({"dump-flat", tree_path_});
  EXPECT_EQ(r.code, 0) << r.err;
  auto tree = ParseTree(*ReadFileToString(tree_path_));
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(r.out, FlatTree::Compile(*tree).ToString());
  // The dump names every op kind the compiler can emit for this tree.
  EXPECT_NE(r.out.find("leaf"), std::string::npos);
  EXPECT_NE(r.out.find("xor_init"), std::string::npos);
  EXPECT_NE(r.out.find("mul"), std::string::npos);

  CliResult bid = RunCliArgs({"dump-flat", bid_path_, "--format=bid"});
  EXPECT_EQ(bid.code, 0) << bid.err;
  EXPECT_NE(bid.out.find("flat_tree ops="), std::string::npos);

  // Invalid input fails loudly like every other command.
  EXPECT_EQ(RunCliArgs({"dump-flat", "/does/not/exist"}).code, 1);
}

TEST_F(CliTest, DumpCanonPrintsTheTwoLevelIdentity) {
  // A second file holding the fixture tree with its commutative AND
  // children rotated: a different wire identity, the same shape.
  std::string permuted_path = TempPath("cli_tree_perm.sexp");
  ASSERT_TRUE(WriteStringToFile(
                  permuted_path,
                  "(and (xor 0.5 (leaf key=3 score=7 label=1)"
                  "          0.5 (leaf key=3 score=6 label=0))"
                  " (xor 0.7 (leaf key=2 score=9 label=0))"
                  " (xor 0.6 (leaf key=1 score=8 label=0)"
                  "          0.3 (leaf key=1 score=5 label=1)))")
                  .ok());

  CliResult original = RunCliArgs({"dump-canon", tree_path_});
  ASSERT_EQ(original.code, 0) << original.err;
  CliResult permuted = RunCliArgs({"dump-canon", permuted_path});
  ASSERT_EQ(permuted.code, 0) << permuted.err;

  auto field = [](const CliResult& r, const std::string& name) {
    const std::string prefix = name + " ";
    size_t start = r.out.find(prefix);
    EXPECT_NE(start, std::string::npos) << name << " in:\n" << r.out;
    if (start == std::string::npos) return std::string();
    start += prefix.size();
    return r.out.substr(start, r.out.find('\n', start) - start);
  };

  // Different wire identities, one structural identity.
  EXPECT_NE(field(original, "content_fp"), field(permuted, "content_fp"));
  EXPECT_EQ(field(original, "struct_key"), field(permuted, "struct_key"));
  EXPECT_EQ(field(original, "canonical"), field(permuted, "canonical"));

  // The printed canonical line is a valid tree whose one-line form is
  // itself (canonicalization is idempotent through the printer).
  auto canonical = ParseTree(field(original, "canonical"));
  ASSERT_TRUE(canonical.ok());
  EXPECT_EQ(FormatTree(*canonical, /*indent=*/false),
            field(original, "canonical"));
  // The content line round-trips the input's wire-normalized form.
  auto tree = ParseTree(*ReadFileToString(tree_path_));
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(field(original, "content"), FormatTree(*tree, /*indent=*/false));

  EXPECT_EQ(RunCliArgs({"dump-canon", "/does/not/exist"}).code, 1);
}

TEST_F(CliTest, WorldsSumToOne) {
  CliResult r = RunCliArgs({"worlds", tree_path_});
  EXPECT_EQ(r.code, 0);
  double total = 0.0;
  size_t pos = 0;
  int lines = 0;
  while (pos < r.out.size()) {
    total += std::atof(r.out.c_str() + pos);
    pos = r.out.find('\n', pos);
    if (pos == std::string::npos) break;
    ++pos;
    ++lines;
  }
  EXPECT_NEAR(total, 1.0, 1e-6);
  EXPECT_EQ(lines, 3 * 2 * 2);  // (2 alts + absent) x (1 + absent) x 2 alts
}

TEST_F(CliTest, WorldsRespectsLimit) {
  CliResult r = RunCliArgs({"worlds", tree_path_, "--max-worlds=2"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("Resource exhausted"), std::string::npos);
}

TEST_F(CliTest, SampleIsDeterministicGivenSeed) {
  CliResult a = RunCliArgs({"sample", tree_path_, "--count=4", "--seed=9"});
  CliResult b = RunCliArgs({"sample", tree_path_, "--count=4", "--seed=9"});
  CliResult c = RunCliArgs({"sample", tree_path_, "--count=4", "--seed=10"});
  EXPECT_EQ(a.code, 0);
  EXPECT_EQ(a.out, b.out);
  EXPECT_NE(a.out, c.out);
}

TEST_F(CliTest, ConsensusWorldSymDiff) {
  CliResult mean = RunCliArgs({"consensus-world", tree_path_, "--answer=mean"});
  EXPECT_EQ(mean.code, 0);
  EXPECT_NE(mean.out.find("(1:8)"), std::string::npos);  // marginal 0.6
  EXPECT_NE(mean.out.find("(2:9)"), std::string::npos);  // marginal 0.7
  CliResult median = RunCliArgs({"consensus-world", tree_path_, "--answer=median"});
  EXPECT_EQ(median.code, 0);
}

TEST_F(CliTest, TopKAcrossMetrics) {
  for (const char* metric :
       {"symdiff", "intersection", "footrule", "kendall"}) {
    CliResult r = RunCliArgs({"topk", bid_path_, "--format=bid", "--k=2",
                       std::string("--metric=") + metric});
    EXPECT_EQ(r.code, 0) << metric << ": " << r.err;
    EXPECT_NE(r.out.find("top-2"), std::string::npos);
  }
  CliResult median = RunCliArgs({"topk", bid_path_, "--format=bid", "--k=2",
                          "--metric=symdiff", "--answer=median"});
  EXPECT_EQ(median.code, 0);
  CliResult any_size = RunCliArgs({"topk", bid_path_, "--format=bid", "--k=2",
                                   "--metric=symdiff", "--answer=any-size"});
  EXPECT_EQ(any_size.code, 0);
}

// --answer is parsed strictly: a misspelled answer, or a (metric, answer)
// pair the engine does not implement, exits 1 with serve's message instead
// of silently running the mean answer under the flag's text.
TEST_F(CliTest, TopKRejectsAnswersItDoesNotRun) {
  const Status kendall_median = Engine::ValidateConsensusRequest(
      TopKMetric::kKendall, TopKAnswer::kMedian);
  ASSERT_FALSE(kendall_median.ok());
  CliResult r = RunCliArgs({"topk", bid_path_, "--format=bid", "--k=2",
                            "--metric=kendall", "--answer=median"});
  EXPECT_EQ(r.code, 1);
  EXPECT_EQ(r.out, "");
  EXPECT_EQ(r.err, kendall_median.ToString() + "\n");
  for (const char* pair : {"footrule:median", "symdiff:approx",
                           "intersection:any-size", "intersection:median"}) {
    const std::string text = pair;
    const std::string metric = text.substr(0, text.find(':'));
    const std::string answer = text.substr(text.find(':') + 1);
    CliResult bad = RunCliArgs({"topk", bid_path_, "--format=bid", "--k=2",
                                "--metric=" + metric, "--answer=" + answer});
    EXPECT_EQ(bad.code, 1) << pair;
    EXPECT_EQ(bad.err,
              Engine::ValidateConsensusRequest(*ParseTopKMetricName(metric),
                                               *ParseTopKAnswerName(answer))
                      .ToString() +
                  "\n")
        << pair;
  }

  CliResult typo = RunCliArgs({"topk", bid_path_, "--format=bid", "--k=2",
                               "--metric=symdiff", "--answer=medain"});
  EXPECT_EQ(typo.code, 1);
  EXPECT_EQ(typo.out, "");
  EXPECT_EQ(typo.err,
            ParseTopKAnswerName("medain").status().ToString() + "\n");

  CliResult all = RunCliArgs({"topk", bid_path_, "--format=bid", "--k=2",
                              "--metric=all", "--answer=median"});
  EXPECT_EQ(all.code, 1);
  EXPECT_EQ(all.out, "");
  EXPECT_NE(all.err.find("--metric=all"), std::string::npos) << all.err;

  // The supported pairs still run, echoing the flag.
  CliResult approx = RunCliArgs({"topk", bid_path_, "--format=bid", "--k=2",
                                 "--metric=intersection", "--answer=approx"});
  EXPECT_EQ(approx.code, 0) << approx.err;
  EXPECT_EQ(approx.out.rfind("top-2 (intersection, approx): [", 0), 0u)
      << approx.out;
  CliResult all_mean = RunCliArgs({"topk", bid_path_, "--format=bid", "--k=2",
                                   "--metric=all", "--answer=mean"});
  EXPECT_EQ(all_mean.code, 0) << all_mean.err;
}

TEST_F(CliTest, ConsensusWorldRejectsUnknownAnswers) {
  for (const char* metric : {"symdiff", "jaccard"}) {
    CliResult r = RunCliArgs({"consensus-world", tree_path_,
                              std::string("--metric=") + metric,
                              "--answer=bogus"});
    EXPECT_EQ(r.code, 1) << metric;
    EXPECT_EQ(r.out, "") << metric;
    EXPECT_EQ(r.err, "unknown --answer=bogus (expected mean or median)\n")
        << metric;
  }
}

TEST_F(CliTest, TopKAllMetricsBatchesEveryMetric) {
  CliResult r = RunCliArgs({"topk", bid_path_, "--format=bid", "--k=2",
                            "--metric=all", "--threads=2"});
  EXPECT_EQ(r.code, 0) << r.err;
  for (const char* metric :
       {"symdiff", "intersection", "footrule", "kendall"}) {
    EXPECT_NE(r.out.find(std::string("top-2 (") + metric), std::string::npos)
        << metric << " missing from batch output:\n"
        << r.out;
    // Each line must agree with the corresponding single-metric query.
    CliResult single = RunCliArgs({"topk", bid_path_, "--format=bid", "--k=2",
                                   std::string("--metric=") + metric});
    EXPECT_EQ(single.code, 0);
    std::string line = single.out.substr(0, single.out.find('\n'));
    // The batch prints "(metric, mean)" where the single path echoes the
    // --answer flag value; compare the key list + distance tail.
    std::string tail = line.substr(line.find('['));
    EXPECT_NE(r.out.find(tail), std::string::npos)
        << metric << ": " << tail << " not in:\n"
        << r.out;
  }
}

// Offline command outputs round-trip the computed doubles exactly — the
// satellite fix that finished what PR 4 started on the serve wire. topk and
// consensus-world are pinned against engine/core bits; worlds and aggregate
// against the shortest-round-trip property itself (a truncated "%.6f" value
// re-formats differently after strtod; a shortest form is a fixed point).
TEST_F(CliTest, OfflineDistancesRoundTripEngineBitsExactly) {
  // topk: the printed E[distance] must strtod back to the engine's bits.
  auto blocks = ParseBidTable(*ReadFileToString(bid_path_));
  ASSERT_TRUE(blocks.ok());
  auto tree = MakeBlockIndependent(*blocks);
  ASSERT_TRUE(tree.ok());
  Engine engine;
  for (const char* metric :
       {"symdiff", "intersection", "footrule", "kendall"}) {
    CliResult r = RunCliArgs({"topk", bid_path_, "--format=bid", "--k=2",
                              std::string("--metric=") + metric});
    ASSERT_EQ(r.code, 0) << r.err;
    size_t pos = r.out.find("E[distance] = ");
    ASSERT_NE(pos, std::string::npos);
    double printed =
        std::strtod(r.out.c_str() + pos + strlen("E[distance] = "), nullptr);
    auto direct = engine.ConsensusTopK(*tree, 2, *ParseTopKMetricName(metric));
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(printed, direct->expected_distance) << metric;
  }

  // consensus-world: same property against the marginals-fold path the
  // command runs.
  CliResult world = RunCliArgs({"consensus-world", tree_path_});
  ASSERT_EQ(world.code, 0) << world.err;
  auto sexp_tree = ParseTree(*ReadFileToString(tree_path_));
  ASSERT_TRUE(sexp_tree.ok());
  std::vector<double> marginal = engine.LeafMarginals(*sexp_tree);
  double expected = ExpectedSymDiffDistanceFromMarginals(
      *sexp_tree, marginal, MeanWorldSymDiffFromMarginals(*sexp_tree, marginal));
  size_t pos = world.out.find("E[distance] = ");
  ASSERT_NE(pos, std::string::npos);
  EXPECT_EQ(
      std::strtod(world.out.c_str() + pos + strlen("E[distance] = "), nullptr),
      expected);

  // worlds: every printed probability is in shortest round-trip form, and
  // the multiset agrees bitwise with the enumerated distribution.
  CliResult worlds = RunCliArgs({"worlds", tree_path_});
  ASSERT_EQ(worlds.code, 0);
  std::vector<double> printed_probs;
  size_t cursor = 0;
  while (cursor < worlds.out.size()) {
    size_t space = worlds.out.find(' ', cursor);
    size_t newline = worlds.out.find('\n', cursor);
    std::string token = worlds.out.substr(cursor, space - cursor);
    printed_probs.push_back(std::strtod(token.c_str(), nullptr));
    EXPECT_EQ(FormatRoundTripDouble(printed_probs.back()), token)
        << "'" << token << "' is not the shortest round-trip form";
    cursor = newline == std::string::npos ? worlds.out.size() : newline + 1;
  }
  auto enumerated = EnumerateWorlds(*sexp_tree, 4096);
  ASSERT_TRUE(enumerated.ok());
  std::vector<double> computed_probs;
  for (const World& w : *enumerated) computed_probs.push_back(w.prob);
  std::sort(printed_probs.begin(), printed_probs.end());
  std::sort(computed_probs.begin(), computed_probs.end());
  EXPECT_EQ(printed_probs, computed_probs);

  // aggregate: the group means are in shortest round-trip form.
  CliResult agg = RunCliArgs({"aggregate", bid_path_, "--format=bid"});
  ASSERT_EQ(agg.code, 0) << agg.err;
  int mean_columns = 0;
  for (size_t line = agg.out.find('\n') + 1; line < agg.out.size();) {
    size_t first_space = agg.out.find(' ', line);
    size_t second_space = agg.out.find(' ', first_space + 1);
    ASSERT_NE(second_space, std::string::npos);
    std::string token =
        agg.out.substr(first_space + 1, second_space - first_space - 1);
    EXPECT_EQ(FormatRoundTripDouble(std::strtod(token.c_str(), nullptr)),
              token);
    ++mean_columns;
    size_t newline = agg.out.find('\n', line);
    line = newline == std::string::npos ? agg.out.size() : newline + 1;
  }
  EXPECT_GT(mean_columns, 0);
}

TEST_F(CliTest, IntegerFlagsParseStrictly) {
  // Rejects: trailing garbage, empty values, non-numeric strings — for every
  // integer flag, at argument-parse time (exit 2, before any file I/O).
  for (const char* flag :
       {"--k=1o", "--k=", "--k=abc", "--count=5x", "--count=",
        "--max-worlds=many", "--max-worlds=12.5", "--seed=0x9",
        "--seed=", "--threads=two"}) {
    CliResult r = RunCliArgs({"sample", tree_path_, flag});
    EXPECT_EQ(r.code, 2) << flag << " was accepted";
    EXPECT_NE(r.err.find("expects an integer"), std::string::npos) << flag;
  }
  // Syntactically valid integers outside the flag's range are rejected too,
  // never silently clamped.
  CliResult neg = RunCliArgs({"worlds", tree_path_, "--max-worlds=-1"});
  EXPECT_EQ(neg.code, 2);
  EXPECT_NE(neg.err.find("must be >= 0"), std::string::npos);
  for (const char* flag :
       {"--k=-2", "--k=9999999", "--k=1048577", "--count=-5"}) {
    CliResult r = RunCliArgs({"sample", tree_path_, flag});
    EXPECT_EQ(r.code, 2) << flag << " was accepted";
    EXPECT_NE(r.err.find("out of range"), std::string::npos) << flag;
  }
  // consensus-world validates --threads like topk does.
  CliResult bad_threads = RunCliArgs(
      {"consensus-world", tree_path_, "--threads=-1"});
  EXPECT_EQ(bad_threads.code, 1);
  EXPECT_NE(bad_threads.err.find("--threads must be >= 0"), std::string::npos);

  // Accepts: plain decimal integers, including signs and leading zeros.
  EXPECT_EQ(RunCliArgs({"sample", tree_path_, "--count=3", "--seed=09"}).code,
            0);
  EXPECT_EQ(RunCliArgs({"sample", tree_path_, "--seed=+7"}).code, 0);
  EXPECT_EQ(
      RunCliArgs({"topk", bid_path_, "--format=bid", "--k=2", "--threads=1"})
          .code,
      0);
  EXPECT_EQ(RunCliArgs({"worlds", tree_path_, "--max-worlds=100"}).code, 0);
}

// Splits CLI output into lines (without trailing newlines).
std::vector<std::string> OutputLines(const std::string& out) {
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < out.size()) {
    size_t end = out.find('\n', pos);
    if (end == std::string::npos) end = out.size();
    lines.push_back(out.substr(pos, end - pos));
    pos = end + 1;
  }
  return lines;
}

// The serve response line whose fields include name=value for every given
// pair, parsed through the protocol's own reader.
ResponseLine FindResponse(const std::string& out,
                          const std::vector<RequestField>& matching) {
  for (const std::string& text : OutputLines(out)) {
    auto line = ParseResponseLine(text);
    if (!line.ok()) continue;
    bool all = true;
    for (const RequestField& want : matching) {
      const std::string* got = line->Find(want.name);
      all = all && got != nullptr && *got == want.value;
    }
    if (all) return *line;
  }
  ADD_FAILURE() << "no response line matching in:\n" << out;
  return ResponseLine{};
}

// End-to-end serve mode: a batch mixing loads (both formats), all four
// Top-k metrics against one (tree, k) — whose answers must be *bitwise*
// the engine's (the satellite fix: distances are emitted as shortest
// round-trip doubles, so parsing the wire value back reproduces the exact
// bits "%.6f" used to truncate) — a world query, a stats probe showing the
// cache sharing, and in-band per-request errors.
TEST_F(CliTest, ServeAnswersBatchedRequests) {
  std::string requests_path = TempPath("cli_serve_req.txt");
  ASSERT_TRUE(WriteStringToFile(
                  requests_path,
                  "# serve batch\n"
                  "op=load name=t file=" + tree_path_ + "\n"
                  "op=load name=b file=" + bid_path_ + " format=bid\n"
                  "\n"
                  "op=topk tree=t k=2 metric=symdiff\n"
                  "op=topk tree=t k=2 metric=intersection\n"
                  "op=topk tree=t k=2 metric=footrule\n"
                  "op=topk tree=t k=2 metric=kendall\n"
                  "op=world tree=b answer=median\n"
                  "op=stats # trailing comments are legal anywhere\n")
                  .ok());
  CliResult r = RunCliArgs({"serve", requests_path, "--threads=2"});
  EXPECT_EQ(r.code, 0) << r.err << r.out;

  // Cross-check each metric's response against a direct engine call: same
  // keys, and the wire distance must strtod back to the identical double.
  auto tree = ParseTree(*ReadFileToString(tree_path_));
  ASSERT_TRUE(tree.ok());
  Engine engine;  // thread count is irrelevant: answers are invariant
  for (const char* metric :
       {"symdiff", "intersection", "footrule", "kendall"}) {
    auto direct = engine.ConsensusTopK(*tree, 2,
                                       *ParseTopKMetricName(metric));
    ASSERT_TRUE(direct.ok());
    std::string keys;
    for (KeyId key : direct->keys) {
      if (!keys.empty()) keys += ',';
      keys += std::to_string(key);
    }
    ResponseLine response = FindResponse(
        r.out, {{"op", "topk"}, {"tree", "t"}, {"metric", metric}});
    ASSERT_NE(response.Find("keys"), nullptr);
    EXPECT_EQ(*response.Find("keys"), keys) << metric;
    ASSERT_NE(response.Find("expected"), nullptr);
    EXPECT_EQ(std::strtod(response.Find("expected")->c_str(), nullptr),
              direct->expected_distance)
        << metric << ": wire value '" << *response.Find("expected")
        << "' does not round-trip the engine's bits";
  }

  // Four queries shared one (tree, k): one fold, three cache hits; the
  // world query paid the single marginal fold.
  ResponseLine stats = FindResponse(r.out, {{"op", "stats"}});
  EXPECT_EQ(*stats.Find("hits"), "3");
  EXPECT_EQ(*stats.Find("misses"), "1");
  EXPECT_EQ(*stats.Find("coalesced"), "0");
  EXPECT_EQ(*stats.Find("entries"), "1");
  EXPECT_EQ(*stats.Find("evictions"), "0");
  EXPECT_NE(std::stoll(*stats.Find("bytes")), 0);
  EXPECT_EQ(*stats.Find("marg_misses"), "1");
  EXPECT_EQ(*stats.Find("marg_entries"), "1");
  EXPECT_NE(r.out.find("ok\top=world\ttree=b\tmetric=symdiff\tanswer=median"),
            std::string::npos);

  // The caches must be invisible in the answers: a budget too small to
  // retain anything changes counters (everything misses, nothing is kept),
  // never answers.
  std::string cached_lines = r.out.substr(0, r.out.find("ok\top=stats"));
  CliResult squeezed = RunCliArgs(
      {"serve", requests_path, "--threads=2", "--cache-budget=1"});
  EXPECT_EQ(squeezed.code, 0) << squeezed.err;
  std::string squeezed_lines =
      squeezed.out.substr(0, squeezed.out.find("ok\top=stats"));
  EXPECT_EQ(cached_lines, squeezed_lines);
  ResponseLine tiny = FindResponse(squeezed.out, {{"op", "stats"}});
  EXPECT_EQ(*tiny.Find("entries"), "0");
  EXPECT_EQ(*tiny.Find("bytes"), "0");
  EXPECT_EQ(*tiny.Find("misses"), "4");
}

// Streaming serve: identical answers to batch mode for an in-order input,
// with the two order sensitivities streaming implies — a query sees only
// trees loaded earlier (batch mode resolves loads first), and op=stats
// reports its point in the stream rather than the post-input state.
TEST_F(CliTest, ServeStreamingAnswersInInputOrder) {
  std::string ordered_path = TempPath("cli_stream_ok.txt");
  ASSERT_TRUE(WriteStringToFile(
                  ordered_path,
                  "op=load name=t file=" + tree_path_ + "\n"
                  "op=topk tree=t k=2 metric=symdiff\n"
                  "op=topk tree=t k=2 metric=kendall\n"
                  "op=world tree=t\n"
                  "op=stats\n")
                  .ok());
  CliResult batch = RunCliArgs({"serve", ordered_path});
  CliResult stream = RunCliArgs({"serve", ordered_path, "--stream"});
  EXPECT_EQ(batch.code, 0) << batch.err;
  EXPECT_EQ(stream.code, 0) << stream.err;
  // For an input whose loads precede its queries, streaming emits the
  // byte-identical transcript (stats included: by the time the trailing
  // stats line executes, the same work has happened).
  EXPECT_EQ(stream.out, batch.out);

  std::string disordered_path = TempPath("cli_stream_bad.txt");
  ASSERT_TRUE(WriteStringToFile(
                  disordered_path,
                  "op=stats\n"
                  "op=topk tree=late k=2 metric=symdiff\n"
                  "op=load name=late file=" + tree_path_ + "\n"
                  "op=topk tree=late k=2 metric=symdiff\n")
                  .ok());
  // Batch mode: the load applies first, both queries answer.
  CliResult batch2 = RunCliArgs({"serve", disordered_path});
  EXPECT_EQ(batch2.code, 0) << batch2.out;
  // Streaming: the leading stats line reports pristine counters, the query
  // preceding its load fails in-band, the one after it succeeds.
  CliResult stream2 = RunCliArgs({"serve", disordered_path, "--stream"});
  EXPECT_EQ(stream2.code, 1);
  std::vector<std::string> lines = OutputLines(stream2.out);
  ASSERT_EQ(lines.size(), 4u);
  ResponseLine pristine = *ParseResponseLine(lines[0]);
  EXPECT_EQ(*pristine.Find("misses"), "0");
  EXPECT_NE(lines[1].find("error\tline=2"), std::string::npos) << stream2.out;
  EXPECT_NE(lines[1].find("no catalog tree named 'late'"), std::string::npos);
  EXPECT_NE(lines[2].find("ok\top=load"), std::string::npos);
  EXPECT_NE(lines[3].find("ok\top=topk\ttree=late"), std::string::npos);
  // The answered slot agrees with batch mode bitwise (same response line).
  std::vector<std::string> batch_lines = OutputLines(batch2.out);
  EXPECT_EQ(lines[3], batch_lines[3]);
}

// Reads one '\n'-terminated line from `fd` into `line` (newline dropped),
// waiting at most `timeout_ms` for each byte; false on a timeout or at end
// of input, so a transport that holds an answer back fails the caller
// instead of hanging it.
bool ReadLineWithin(int fd, int timeout_ms, std::string* line) {
  line->clear();
  for (;;) {
    pollfd ready = {fd, POLLIN, 0};
    if (poll(&ready, 1, timeout_ms) != 1) return false;
    char c;
    if (read(fd, &c, 1) != 1) return false;
    if (c == '\n') return true;
    line->push_back(c);
  }
}

// serve --stream on pipes, at one shard and at four: the answer to request
// 1 arrives on the output pipe before request 2 is written, and a comment
// line between them answers nothing. A serve that read ahead for request 2
// would never answer request 1, and the bounded read fails the test.
TEST_F(CliTest, ServeStreamAnswersEachRequestBeforeTheNextIsWritten) {
  constexpr int kTimeoutMs = 30000;
  for (const char* shards : {"--shards=1", "--shards=4"}) {
    SCOPED_TRACE(shards);
    int in_pipe[2];
    int out_pipe[2];
    ASSERT_EQ(pipe(in_pipe), 0);
    ASSERT_EQ(pipe(out_pipe), 0);
    std::FILE* out = fdopen(out_pipe[1], "w");
    std::FILE* err = std::tmpfile();
    ASSERT_NE(out, nullptr);
    ASSERT_NE(err, nullptr);
    int code = -1;
    std::thread server([&] {
      code = RunCli({"cpdb_cli", "serve", "--stream", shards,
                     "/dev/fd/" + std::to_string(in_pipe[0])},
                    out, err);
      std::fclose(out);  // the client sees end of output
    });
    auto send = [&](const std::string& text) {
      return write(in_pipe[1], text.data(), text.size()) ==
             static_cast<ssize_t>(text.size());
    };

    std::string first;
    std::string second;
    EXPECT_TRUE(send("op=load name=t file=" + tree_path_ + "\n"));
    const bool answered_first =
        ReadLineWithin(out_pipe[0], kTimeoutMs, &first);
    EXPECT_TRUE(answered_first) << "no answer to request 1 before request 2";
    if (answered_first) {
      EXPECT_TRUE(send("# a comment answers nothing\nop=topk tree=t k=2\n"));
      EXPECT_TRUE(ReadLineWithin(out_pipe[0], kTimeoutMs, &second));
    }
    close(in_pipe[1]);  // end of input: serve returns
    server.join();
    std::string rest;
    EXPECT_FALSE(ReadLineWithin(out_pipe[0], kTimeoutMs, &rest)) << rest;
    close(in_pipe[0]);
    close(out_pipe[0]);
    std::fclose(err);

    EXPECT_EQ(code, 0);
    EXPECT_EQ(first.rfind("ok\top=load\tname=t", 0), 0u) << first;
    EXPECT_EQ(second.rfind("ok\top=topk\ttree=t", 0), 0u) << second;
  }
}

// serve --shards=N: answers bitwise identical to --shards=1 and to the
// default single scheduler for every op, in both execution modes; op=stats
// keeps identical aggregate totals and adds the per-shard breakdown.
TEST_F(CliTest, ServeShardedAnswersMatchUnshardedBitwise) {
  std::string requests_path = TempPath("cli_shard_req.txt");
  ASSERT_TRUE(WriteStringToFile(
                  requests_path,
                  "op=load name=t file=" + tree_path_ + "\n"
                  "op=load name=b file=" + bid_path_ + " format=bid\n"
                  "op=topk tree=t k=2 metric=symdiff\n"
                  "op=topk tree=t k=2 metric=intersection\n"
                  "op=topk tree=b k=2 metric=footrule\n"
                  "op=topk tree=b k=2 metric=kendall\n"
                  "op=topk tree=t k=2 metric=symdiff answer=median\n"
                  "op=world tree=t\n"
                  "op=world tree=b answer=median\n"
                  "op=topk tree=nope k=2\n"
                  "op=stats\n")
                  .ok());
  CliResult plain = RunCliArgs({"serve", requests_path, "--threads=2"});
  ASSERT_EQ(plain.code, 1);  // the op=topk tree=nope slot fails in-band
  CliResult plain_streamed =
      RunCliArgs({"serve", requests_path, "--threads=2", "--stream"});
  ASSERT_EQ(plain_streamed.code, 1);

  // Everything except the trailing stats line must be byte-identical
  // across the default and every shard count, in batch and streaming
  // modes alike.
  auto lines_before_stats = [](const std::string& out) {
    return out.substr(0, out.find("ok\top=stats"));
  };
  for (int shards : {1, 2, 4}) {
    std::string flag = "--shards=" + std::to_string(shards);
    CliResult sharded =
        RunCliArgs({"serve", requests_path, "--threads=2", flag});
    ASSERT_EQ(sharded.code, 1) << sharded.err;
    EXPECT_EQ(lines_before_stats(sharded.out), lines_before_stats(plain.out))
        << flag;
    CliResult streamed =
        RunCliArgs({"serve", requests_path, "--threads=2", flag, "--stream"});
    ASSERT_EQ(streamed.code, 1) << flag << " --stream: " << streamed.err;
    EXPECT_EQ(lines_before_stats(streamed.out), lines_before_stats(plain.out))
        << flag << " --stream";
    if (shards == 1) {
      // One shard is the default configuration: the whole transcript,
      // stats line included, is the default one — no breakdown fields.
      EXPECT_EQ(sharded.out, plain.out);
      EXPECT_EQ(streamed.out, plain_streamed.out);
      continue;
    }

    // Aggregate stats totals equal the unsharded scheduler's counters;
    // the breakdown names the shard layout and sums to the totals.
    ResponseLine plain_stats = FindResponse(plain.out, {{"op", "stats"}});
    ResponseLine shard_stats = FindResponse(sharded.out, {{"op", "stats"}});
    for (const char* field : {"hits", "misses", "coalesced", "entries",
                              "bytes", "evictions", "marg_hits",
                              "marg_misses", "marg_entries", "marg_bytes"}) {
      ASSERT_NE(shard_stats.Find(field), nullptr) << field;
      EXPECT_EQ(*shard_stats.Find(field), *plain_stats.Find(field))
          << flag << " " << field;
    }
    ASSERT_NE(shard_stats.Find("shards"), nullptr);
    EXPECT_EQ(*shard_stats.Find("shards"), std::to_string(shards));
    long long breakdown_misses = 0;
    for (int s = 0; s < shards; ++s) {
      const std::string* part =
          shard_stats.Find("s" + std::to_string(s) + "_misses");
      ASSERT_NE(part, nullptr) << flag << " shard " << s;
      breakdown_misses += std::stoll(*part);
    }
    EXPECT_EQ(std::to_string(breakdown_misses), *shard_stats.Find("misses"));
    // The default scheduler's line carries no shard fields at all.
    EXPECT_EQ(plain_stats.Find("shards"), nullptr);
  }

  // Flag hygiene, matching every other serve flag: strict value, strict
  // range, serve-only scope.
  EXPECT_EQ(RunCliArgs({"serve", requests_path, "--shards=0"}).code, 2);
  EXPECT_EQ(RunCliArgs({"serve", requests_path, "--shards=2o"}).code, 2);
  EXPECT_EQ(RunCliArgs({"serve", requests_path, "--shards=4096"}).code, 2);
  CliResult scoped = RunCliArgs({"topk", tree_path_, "--k=2", "--shards=2"});
  EXPECT_EQ(scoped.code, 2);
  EXPECT_NE(scoped.err.find("applies only to serve"), std::string::npos);
}

TEST_F(CliTest, ServeReportsRequestErrorsInBand) {
  std::string requests_path = TempPath("cli_serve_err.txt");
  ASSERT_TRUE(WriteStringToFile(
                  requests_path,
                  "op=load name=t file=" + tree_path_ + "\n"
                  "op=topk tree=t k=1o metric=symdiff\n"   // garbage int
                  "op=topk tree=nope k=2\n"                // unknown tree
                  "op=topk tree=t k=2 metric=symdiff\n"    // still served
                  "not_a_field\n")                         // grammar error
                  .ok());
  CliResult r = RunCliArgs({"serve", requests_path});
  EXPECT_EQ(r.code, 1);  // some requests failed (reported in-band)
  EXPECT_NE(r.out.find("error\tline=2\tmsg="), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("expects an integer"), std::string::npos);
  EXPECT_NE(r.out.find("error\tline=3\tmsg="), std::string::npos);
  EXPECT_NE(r.out.find("no catalog tree named 'nope'"), std::string::npos);
  EXPECT_NE(r.out.find("error\tline=5\tmsg="), std::string::npos);
  // The healthy request between the failures was answered.
  EXPECT_NE(r.out.find("ok\top=topk\ttree=t"), std::string::npos);
  // Flag-level garbage is a usage error (exit 2), before any serving.
  EXPECT_EQ(RunCliArgs({"serve", requests_path, "--threads=two"}).code, 2);
  EXPECT_EQ(RunCliArgs({"serve", requests_path, "--cache-budget=1x"}).code, 2);
  EXPECT_EQ(RunCliArgs({"serve", requests_path, "--cache-budget=-5"}).code, 2);
  CliResult valued = RunCliArgs({"serve", requests_path, "--stream=on"});
  EXPECT_EQ(valued.code, 2);
  EXPECT_NE(valued.err.find("takes no value"), std::string::npos);
  // The serve-only flags belong to serve; other commands reject them
  // rather than silently ignoring them.
  for (const char* flag : {"--cache-budget=9", "--stream"}) {
    CliResult scoped = RunCliArgs({"topk", tree_path_, "--k=2", flag});
    EXPECT_EQ(scoped.code, 2) << flag;
    EXPECT_NE(scoped.err.find("applies only to serve"), std::string::npos)
        << flag;
  }
  // A missing requests file is an I/O error, not a silent empty batch —
  // in both execution modes.
  EXPECT_EQ(RunCliArgs({"serve", "/does/not/exist.req"}).code, 1);
  EXPECT_EQ(RunCliArgs({"serve", "/does/not/exist.req", "--stream"}).code, 1);
}

// Every precompute goes through the caches: serve has no switch that turns
// them off, so --cache is an unknown flag (usage error, nothing served).
// --cache-budget=0 is the configuration that retains nothing.
TEST_F(CliTest, ServeHasNoCacheSwitch) {
  const std::string requests_path = TempPath("cli_nocache.txt");
  ASSERT_TRUE(WriteStringToFile(requests_path, "op=load name=t file=" +
                                                   tree_path_ + "\n")
                  .ok());
  for (const char* flag : {"--cache=off", "--cache=on"}) {
    CliResult r = RunCliArgs({"serve", requests_path, flag});
    EXPECT_EQ(r.code, 2) << flag;
    EXPECT_TRUE(r.out.empty()) << flag << ": " << r.out;
    EXPECT_NE(r.err.find("unknown flag --cache"), std::string::npos)
        << flag << ": " << r.err;
  }
}

// serve --save-catalog / --catalog: a replica restored from a snapshot
// answers the same requests with byte-identical stdout, and the snapshot
// round-trips through a serve process byte-identically.
TEST_F(CliTest, ServeSnapshotRoundTripServesIdenticalBytes) {
  const std::string cold_path = TempPath("cli_snap_cold.txt");
  const std::string warm_path = TempPath("cli_snap_warm.txt");
  const std::string snap_path = TempPath("cli_snap.snap");
  const std::string queries =
      "op=topk tree=t k=2 metric=symdiff\n"
      "op=topk tree=t k=2 metric=kendall\n"
      "op=topk tree=b k=2 metric=intersection\n"
      "op=world tree=b answer=median\n";
  ASSERT_TRUE(WriteStringToFile(
                  cold_path,
                  "op=load name=t file=" + tree_path_ + "\n" +
                      "op=load name=b file=" + bid_path_ + " format=bid\n" +
                      queries)
                  .ok());
  ASSERT_TRUE(WriteStringToFile(warm_path, queries).ok());

  // Cold replica: line-by-line loads, then save the live catalog.
  CliResult cold = RunCliArgs(
      {"serve", cold_path, "--threads=2", "--save-catalog=" + snap_path});
  EXPECT_EQ(cold.code, 0) << cold.err;
  // The cold transcript minus its two load-response lines is the expected
  // warm transcript.
  size_t queries_start = cold.out.find("\n");          // after load t
  queries_start = cold.out.find("\n", queries_start + 1);  // after load b
  const std::string want = cold.out.substr(queries_start + 1);

  CliResult warm = RunCliArgs(
      {"serve", warm_path, "--threads=2", "--catalog=" + snap_path});
  EXPECT_EQ(warm.code, 0) << warm.err;
  EXPECT_EQ(warm.out, want);

  // The snapshot carried the distributions the cold run computed: a warm
  // replica's first (and only) batch never misses the rank-dist cache.
  const std::string stats_path = TempPath("cli_snap_stats.txt");
  ASSERT_TRUE(WriteStringToFile(stats_path, queries + "op=stats\n").ok());
  CliResult stats = RunCliArgs(
      {"serve", stats_path, "--catalog=" + snap_path});
  EXPECT_EQ(stats.code, 0) << stats.err;
  EXPECT_NE(stats.out.find("\tmisses=0\t"), std::string::npos) << stats.out;

  // Load-then-save through an otherwise idle serve process reproduces the
  // snapshot byte-for-byte.
  const std::string empty_path = TempPath("cli_snap_none.txt");
  const std::string snap2_path = TempPath("cli_snap2.snap");
  ASSERT_TRUE(WriteStringToFile(empty_path, "# no requests\n").ok());
  CliResult resave = RunCliArgs({"serve", empty_path,
                                 "--catalog=" + snap_path,
                                 "--save-catalog=" + snap2_path});
  EXPECT_EQ(resave.code, 0) << resave.err;
  EXPECT_EQ(*ReadFileToString(snap2_path), *ReadFileToString(snap_path));
}

// Warm restart has one loader and one format: there is no --mmap switch,
// and a file stamped with an earlier format version is a startup error
// naming that version — never a silent cold start.
TEST_F(CliTest, ServeReadsOneSnapshotFormatThroughOneLoader) {
  const std::string load_path = TempPath("cli_v2_load.txt");
  const std::string empty_path = TempPath("cli_v2_none.txt");
  const std::string snap_path = TempPath("cli_v2_src.snap");
  const std::string v2_path = TempPath("cli_v2.snap");
  ASSERT_TRUE(
      WriteStringToFile(load_path, "op=load name=t file=" + tree_path_ + "\n")
          .ok());
  ASSERT_TRUE(WriteStringToFile(empty_path, "# no requests\n").ok());
  CliResult saved =
      RunCliArgs({"serve", load_path, "--save-catalog=" + snap_path});
  ASSERT_EQ(saved.code, 0) << saved.err;

  CliResult mmap = RunCliArgs(
      {"serve", empty_path, "--catalog=" + snap_path, "--mmap"});
  EXPECT_EQ(mmap.code, 2);
  EXPECT_TRUE(mmap.out.empty()) << mmap.out;
  EXPECT_NE(mmap.err.find("unknown flag --mmap"), std::string::npos)
      << mmap.err;

  // The same file stamped version 2 (offset 8), its checksum restamped so
  // the version gate is what fires.
  std::string bytes = *ReadFileToString(snap_path);
  ASSERT_GT(bytes.size(), 40u);
  bytes[8] = 2;
  const uint64_t checksum = Fnv1a64(bytes.data(), bytes.size() - 8);
  for (int i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + static_cast<size_t>(i)] =
        static_cast<char>((checksum >> (8 * i)) & 0xff);
  }
  ASSERT_TRUE(WriteStringToFile(v2_path, bytes).ok());
  CliResult v2 = RunCliArgs({"serve", empty_path, "--catalog=" + v2_path});
  EXPECT_EQ(v2.code, 1);
  EXPECT_TRUE(v2.out.empty()) << v2.out;
  EXPECT_NE(v2.err.find("catalog error: cannot load '" + v2_path + "'"),
            std::string::npos)
      << v2.err;
  EXPECT_NE(v2.err.find("format version 2 is not supported"),
            std::string::npos)
      << v2.err;
}

TEST_F(CliTest, ServeSnapshotFlagHygiene) {
  const std::string requests_path = TempPath("cli_snap_req.txt");
  ASSERT_TRUE(WriteStringToFile(requests_path, "# empty\n").ok());

  // Value hygiene at parse time: exit 2 plus usage, before any serving.
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"serve", requests_path, "--catalog="},
        std::vector<std::string>{"serve", requests_path, "--save-catalog="}}) {
    CliResult r = RunCliArgs(args);
    EXPECT_EQ(r.code, 2) << args.back();
    EXPECT_NE(r.err.find("usage"), std::string::npos) << args.back();
  }

  // Serve-only scope, like every other serve flag.
  for (const char* flag : {"--catalog=/tmp/x", "--save-catalog=/tmp/x"}) {
    CliResult scoped = RunCliArgs({"topk", tree_path_, "--k=2", flag});
    EXPECT_EQ(scoped.code, 2) << flag;
    EXPECT_NE(scoped.err.find("applies only to serve"), std::string::npos)
        << flag;
  }

  // A missing snapshot is a startup error — never a silent cold start
  // masquerading as a warm one.
  CliResult missing = RunCliArgs(
      {"serve", requests_path, "--catalog=/does/not/exist.snap"});
  EXPECT_EQ(missing.code, 1);
  EXPECT_NE(missing.err.find("catalog error: cannot load"), std::string::npos)
      << missing.err;

  // A corrupt snapshot is rejected the same way.
  const std::string bad_path = TempPath("cli_snap_bad.snap");
  ASSERT_TRUE(WriteStringToFile(bad_path, "BASETREEgarbage").ok());
  CliResult corrupt = RunCliArgs(
      {"serve", requests_path, "--catalog=" + bad_path});
  EXPECT_EQ(corrupt.code, 1);
  EXPECT_NE(corrupt.err.find("catalog error: cannot load"),
            std::string::npos);

  // An unwritable --save-catalog target fails loudly after serving.
  CliResult unwritable = RunCliArgs(
      {"serve", requests_path, "--save-catalog=/does/not/exist/dir.snap"});
  EXPECT_EQ(unwritable.code, 1);
  EXPECT_NE(unwritable.err.find("catalog error: cannot save"),
            std::string::npos);

  // So does a target whose write fails only at the closing flush.
  std::FILE* probe = std::fopen("/dev/full", "wb");
  if (probe == nullptr) return;
  std::fclose(probe);
  CliResult full =
      RunCliArgs({"serve", requests_path, "--save-catalog=/dev/full"});
  EXPECT_NE(full.code, 0);
  EXPECT_NE(full.err.find("cannot write file: /dev/full"), std::string::npos)
      << full.err;
}

TEST_F(CliTest, AggregateUsesLabels) {
  CliResult r = RunCliArgs({"aggregate", bid_path_, "--format=bid"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("group mean_count median_count"), std::string::npos);
}

TEST_F(CliTest, ErrorsOnBadUsage) {
  EXPECT_EQ(RunCliArgs({}).code, 2);
  EXPECT_EQ(RunCliArgs({"frobnicate", tree_path_}).code, 2);
  EXPECT_EQ(RunCliArgs({"validate"}).code, 1);  // missing input file
  EXPECT_EQ(RunCliArgs({"validate", tree_path_, "--wat=1"}).code, 2);
  EXPECT_EQ(RunCliArgs({"topk", tree_path_, "--metric=nope"}).code, 1);
  EXPECT_EQ(RunCliArgs({"validate", "/does/not/exist"}).code, 1);
}

// serve op=metrics end to end: the kv scrape answers in-band with the
// request counters this very batch produced, and the prom scrape travels
// as one escaped body= field that unescapes to a valid exposition.
TEST_F(CliTest, ServeAnswersMetricsRequests) {
  std::string requests_path = TempPath("cli_serve_metrics.txt");
  ASSERT_TRUE(WriteStringToFile(
                  requests_path,
                  "op=load name=t file=" + tree_path_ + "\n"
                  "op=topk tree=t k=2 metric=symdiff\n"
                  "op=world tree=t\n"
                  "op=metrics\n"
                  "op=metrics format=prom\n")
                  .ok());
  CliResult r = RunCliArgs({"serve", requests_path});
  EXPECT_EQ(r.code, 0) << r.err << r.out;

  ResponseLine kv = FindResponse(r.out, {{"op", "metrics"}, {"format", "kv"}});
  // Request counters describe the whole batch (counted before the scrape).
  ASSERT_NE(kv.Find("cpdb_requests_total"), nullptr);
  EXPECT_EQ(*kv.Find("cpdb_requests_total"), "5");
  EXPECT_EQ(*kv.Find("cpdb_load_requests_total"), "1");
  EXPECT_EQ(*kv.Find("cpdb_topk_requests_total"), "1");
  EXPECT_EQ(*kv.Find("cpdb_world_requests_total"), "1");
  EXPECT_EQ(*kv.Find("cpdb_metrics_requests_total"), "2");
  EXPECT_EQ(*kv.Find("cpdb_request_errors_total"), "0");
  EXPECT_EQ(*kv.Find("cpdb_topk_latency_nanoseconds_count"), "1");
  // The queries paid real folds through the engine.
  EXPECT_GT(std::stoll(*kv.Find("cpdb_fold_compiles_total")), 0);
  ASSERT_NE(kv.Find("cpdb_poly_arena_highwater_bytes"), nullptr);
  // The transport recorded its own stages.
  EXPECT_EQ(*kv.Find("cpdb_stage_parse_latency_nanoseconds_count"), "6");

  ResponseLine prom =
      FindResponse(r.out, {{"op", "metrics"}, {"format", "prom"}});
  ASSERT_NE(prom.Find("body"), nullptr);
  const std::string& body = *prom.Find("body");
  EXPECT_EQ(body.rfind("# HELP ", 0), 0u);
  EXPECT_NE(body.find("# TYPE cpdb_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(body.find("cpdb_requests_total 5\n"), std::string::npos);
  EXPECT_NE(body.find("cpdb_topk_latency_nanoseconds_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);

  // trace=on surfaces side-band trace_* fields on that request's line.
  std::string traced_path = TempPath("cli_serve_traced.txt");
  ASSERT_TRUE(WriteStringToFile(
                  traced_path,
                  "op=load name=t file=" + tree_path_ + "\n"
                  "op=topk tree=t k=2 metric=symdiff trace=on\n")
                  .ok());
  CliResult traced = RunCliArgs({"serve", traced_path});
  EXPECT_EQ(traced.code, 0) << traced.err;
  ResponseLine traced_topk = FindResponse(traced.out, {{"op", "topk"}});
  EXPECT_NE(traced_topk.Find("trace_total_ns"), nullptr);
  EXPECT_NE(traced_topk.Find("trace_fold_ns"), nullptr);
}

// --metrics=off and --slow-query-ms: answers never change (stdout parity
// is byte-exact), the slow-query log goes to stderr only, and op=metrics
// under --metrics=off is an in-band request error.
TEST_F(CliTest, ServeMetricsOffParityAndSlowQueryLog) {
  std::string requests_path = TempPath("cli_serve_sq.txt");
  // Deterministic output only (no metrics scrape: its latency values
  // differ run to run with the real clock).
  ASSERT_TRUE(WriteStringToFile(
                  requests_path,
                  "op=load name=t file=" + tree_path_ + "\n"
                  "op=topk tree=t k=2 metric=kendall\n"
                  "op=world tree=t\n"
                  "op=stats\n")
                  .ok());
  CliResult plain = RunCliArgs({"serve", requests_path});
  EXPECT_EQ(plain.code, 0) << plain.err;
  EXPECT_TRUE(plain.err.empty()) << plain.err;

  CliResult off = RunCliArgs({"serve", requests_path, "--metrics=off"});
  EXPECT_EQ(off.code, 0) << off.err;
  EXPECT_EQ(off.out, plain.out);

  // --slow-query-ms=0 logs every answered request to stderr; stdout bytes
  // are untouched.
  CliResult logged =
      RunCliArgs({"serve", requests_path, "--slow-query-ms=0"});
  EXPECT_EQ(logged.code, 0) << logged.err;
  EXPECT_EQ(logged.out, plain.out);
  EXPECT_NE(logged.err.find("slow-query\tline=2\t"), std::string::npos)
      << logged.err;
  EXPECT_NE(logged.err.find("total_ms="), std::string::npos);
  EXPECT_NE(logged.err.find("fold_ns="), std::string::npos);
  // The raw request rides escaped in a request= field.
  EXPECT_NE(logged.err.find("request=op=topk tree=t k=2 metric=kendall"),
            std::string::npos);
  // Same in streaming mode.
  CliResult streamed = RunCliArgs(
      {"serve", requests_path, "--slow-query-ms=0", "--stream"});
  EXPECT_EQ(streamed.code, 0) << streamed.err;
  EXPECT_NE(streamed.err.find("slow-query\tline=2\t"), std::string::npos);
  // A generous threshold logs nothing.
  CliResult quiet =
      RunCliArgs({"serve", requests_path, "--slow-query-ms=3600000"});
  EXPECT_EQ(quiet.code, 0);
  EXPECT_TRUE(quiet.err.empty()) << quiet.err;

  // op=metrics with metrics disabled is an in-band request error.
  std::string refused_path = TempPath("cli_serve_refused.txt");
  ASSERT_TRUE(WriteStringToFile(refused_path, "op=metrics\n").ok());
  CliResult refused =
      RunCliArgs({"serve", refused_path, "--metrics=off"});
  EXPECT_EQ(refused.code, 1);
  EXPECT_NE(refused.out.find("error\tline=1\tmsg="), std::string::npos)
      << refused.out;
  EXPECT_NE(refused.out.find("op=metrics requires metrics enabled"),
            std::string::npos);

  // Flag hygiene, matching every other serve flag: strict values, strict
  // range, serve-only scope, and the log's dependence on the instruments.
  EXPECT_EQ(RunCliArgs({"serve", requests_path, "--metrics=maybe"}).code, 2);
  EXPECT_EQ(RunCliArgs({"serve", requests_path, "--slow-query-ms=1x"}).code,
            2);
  EXPECT_EQ(RunCliArgs({"serve", requests_path, "--slow-query-ms=-1"}).code,
            2);
  CliResult scoped = RunCliArgs({"topk", tree_path_, "--k=2", "--metrics=off"});
  EXPECT_EQ(scoped.code, 2);
  EXPECT_NE(scoped.err.find("applies only to serve"), std::string::npos);
  EXPECT_EQ(
      RunCliArgs({"topk", tree_path_, "--k=2", "--slow-query-ms=5"}).code, 2);
  CliResult needs_metrics = RunCliArgs(
      {"serve", requests_path, "--metrics=off", "--slow-query-ms=5"});
  EXPECT_EQ(needs_metrics.code, 2);
  EXPECT_NE(needs_metrics.err.find("requires --metrics=on"),
            std::string::npos);
}

// The transcript with every trace_*=<nanoseconds> field's value dropped:
// trace=on answers carry wall-clock spans, which differ run to run.
std::string WithoutTraceTimes(const std::string& out) {
  std::string kept;
  for (const std::string& line : OutputLines(out)) {
    size_t begin = 0;
    for (size_t field; (field = line.find("\ttrace_", begin)) !=
                       std::string::npos;) {
      const size_t value = line.find('=', field) + 1;
      size_t end = line.find('\t', value);
      if (end == std::string::npos) end = line.size();
      kept.append(line, begin, value - begin);
      begin = end;
    }
    kept.append(line, begin, std::string::npos);
    kept += '\n';
  }
  return kept;
}

// A batch well above four of batch serve's 128-line pool units, so its
// parse and its answer format run split across the pool at --threads=4.
// Comment and blank lines, lines that are not name=value, unknown ops,
// out-of-range k, unknown trees and trace=on ride among valid requests of
// both input formats. The transcript must not depend on --threads or
// --shards, must match --stream (the loads come first), and every error
// line must name its input line.
TEST_F(CliTest, ServeLargeBatchIsIndependentOfThreadsAndShards) {
  const std::vector<std::pair<std::string, bool>> cycle = {
      // (request line, whether it answers with an error line)
      {"op=topk tree=t k=2 metric=symdiff", false},
      {"# a comment line", false},
      {"op=topk tree=b k=3 metric=footrule", false},
      {"not_a_field", true},
      {"op=topk tree=t k=2 metric=kendall trace=on", false},
      {"", false},
      {"op=frobnicate tree=t", true},
      {"op=world tree=b answer=median", false},
      {"op=topk tree=t k=0 metric=symdiff", true},
      {"op=topk tree=b k=2 metric=intersection", false},
      {"op=topk tree=nope k=2", true},
      {"op=marginals tree=t", false},
      {"op=topk tree=t k=99999999", true},
  };
  std::string requests = "# fan-out batch\n"
                         "op=load name=t file=" + tree_path_ + "\n"
                         "op=load name=b file=" + bid_path_ +
                         " format=bid\n";
  // (input line number, error expected) per response line, in order.
  std::vector<std::pair<size_t, bool>> responses = {{2, false}, {3, false}};
  size_t line_number = 3;
  for (int i = 0; i < 1500; ++i) {
    const auto& [text, error] = cycle[static_cast<size_t>(i) % cycle.size()];
    requests += text + "\n";
    ++line_number;
    if (!text.empty() && text[0] != '#') responses.emplace_back(line_number,
                                                                error);
  }
  const std::string requests_path = TempPath("cli_serve_large.txt");
  ASSERT_TRUE(WriteStringToFile(requests_path, requests).ok());

  CliResult reference = RunCliArgs(
      {"serve", requests_path, "--threads=1", "--shards=1",
       "--slow-query-ms=0"});
  EXPECT_EQ(reference.code, 1);  // some requests failed, in-band
  const std::vector<std::string> lines = OutputLines(reference.out);
  ASSERT_EQ(lines.size(), responses.size());
  size_t answered = 0;
  for (size_t i = 0; i < lines.size(); ++i) {
    const auto& [number, error] = responses[i];
    const std::string prefix =
        error ? "error\tline=" + std::to_string(number) + "\tmsg=" : "ok\t";
    ASSERT_EQ(lines[i].compare(0, prefix.size(), prefix), 0)
        << "response " << i << " to line " << number << ": " << lines[i];
    if (!error) ++answered;
  }
  EXPECT_NE(reference.out.find("\ttrace_total_ns="), std::string::npos);
  // The slow-query log names every answered request, in line order.
  size_t logged = 0;
  size_t previous = 0;
  for (const std::string& entry : OutputLines(reference.err)) {
    ASSERT_EQ(entry.compare(0, 16, "slow-query\tline="), 0) << entry;
    const size_t number = std::stoul(entry.substr(16));
    EXPECT_GT(number, previous);
    previous = number;
    ++logged;
  }
  EXPECT_EQ(logged, answered);

  const std::string expected = WithoutTraceTimes(reference.out);
  for (const char* threads : {"--threads=1", "--threads=4"}) {
    for (const char* shards : {"--shards=1", "--shards=4"}) {
      for (bool stream : {false, true}) {
        SCOPED_TRACE(std::string(threads) + " " + shards +
                     (stream ? " --stream" : ""));
        std::vector<std::string> args = {"serve", requests_path, threads,
                                         shards};
        if (stream) args.push_back("--stream");
        CliResult run = RunCliArgs(args);
        EXPECT_EQ(run.code, 1) << run.err;
        EXPECT_EQ(WithoutTraceTimes(run.out), expected);
      }
    }
  }
}

}  // namespace
}  // namespace cpdb
