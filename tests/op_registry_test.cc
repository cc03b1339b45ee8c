// Copyright 2026 The ConsensusDB Authors
//
// The op-pipeline differential suite. The OpRegistry is the single table
// the protocol parser, both schedulers, the instruments, and the wire
// formatter walk; this file pins the properties that make that table safe
// to extend:
//
//   * table shape — specs()[i].op == Op(i), wire-name lookup round-trips,
//     and the unknown-op error enumerates the table;
//   * strict parses — per-op field allow-lists and value sets reject
//     garbage with pinned messages;
//   * CLI twins — the four analytics ops (marginals, aggregate, baseline,
//     hardness) answer byte-identically to their offline commands for
//     canonical-content trees;
//   * transcript identity — one serve input produces byte-identical
//     response transcripts across shard counts, thread counts, cache
//     budgets, metrics on/off, batch/stream, and warm restarts;
//   * fetch is the precompute, solve the tail: no solve folds;
//   * the parallel Engine::ExpectedRanks is bitwise the sequential core
//     fold, and repeated analytics requests fold marginals once.

#include "service/op_registry.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/ranking_baselines.h"
#include "engine/engine.h"
#include "io/request_protocol.h"
#include "obs/clock.h"
#include "io/table_io.h"
#include "io/tree_text.h"
#include "model/canonical.h"
#include "service/query_scheduler.h"
#include "service/tree_catalog.h"
#include "tools/cli_lib.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

// Runs the CLI capturing stdout/stderr through temp files (the cli_test.cc
// harness, shared idiom).
struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult RunCliArgs(const std::vector<std::string>& args) {
  std::string out_path = ::testing::TempDir() + "/opreg_cli_out.txt";
  std::string err_path = ::testing::TempDir() + "/opreg_cli_err.txt";
  std::FILE* out = std::fopen(out_path.c_str(), "w+");
  std::FILE* err = std::fopen(err_path.c_str(), "w+");
  std::vector<std::string> full = {"cpdb_cli"};
  full.insert(full.end(), args.begin(), args.end());
  int code = RunCli(full, out, err);
  std::fclose(out);
  std::fclose(err);
  return {code, *ReadFileToString(out_path), *ReadFileToString(err_path)};
}

AndXorTree RandomDeepTree(uint64_t seed, int num_keys = 10) {
  Rng rng(seed);
  RandomTreeOptions opts;
  opts.num_keys = num_keys;
  opts.max_depth = 3;
  opts.max_alternatives = 2;
  auto tree = RandomAndXorTree(opts, &rng);
  EXPECT_TRUE(tree.ok());
  return *std::move(tree);
}

// The labeled hand-written tree (every alternative labeled, so
// op=aggregate succeeds) and an unlabeled one (so it errors).
constexpr char kLabeledTreeText[] =
    "(and (xor 0.6 (leaf key=1 score=8 label=0)"
    "          0.3 (leaf key=1 score=5 label=1))"
    " (xor 0.7 (leaf key=2 score=9 label=0))"
    " (xor 0.5 (leaf key=3 score=7 label=1)"
    "          0.5 (leaf key=3 score=6 label=0)))";

constexpr char kUnlabeledTreeText[] =
    "(and (xor 0.5 (leaf key=4 score=3)) (xor 0.25 (leaf key=5 score=1)))";

// The value of `name=` in one tab-separated response line, or "" when the
// field is absent. Fields render as "\tname=value".
std::string Field(const std::string& line, const std::string& name) {
  const std::string needle = "\t" + name + "=";
  size_t pos = line.find(needle);
  if (pos == std::string::npos) return "";
  pos += needle.size();
  size_t end = line.find('\t', pos);
  return line.substr(pos, end == std::string::npos ? std::string::npos
                                                   : end - pos);
}

// Replaces every error line's line=N field with line=#. Error *text* is
// part of the byte contract; the input line number legitimately shifts
// when the same queries are fed with and without load-line preambles.
std::string MaskLineNumbers(const std::string& transcript) {
  std::string masked = transcript;
  size_t pos = 0;
  while ((pos = masked.find("\tline=", pos)) != std::string::npos) {
    size_t start = pos + 6;
    size_t end = masked.find('\t', start);
    if (end == std::string::npos) break;
    masked.replace(start, end - start, "#");
    pos = start;
  }
  return masked;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

// The CLI-vs-serve fixture. Input trees are written in their *canonical*
// orientation: the serve caches fold over the canonical orientation (the
// StructKey identity), so only canonical-content inputs make the offline
// command and the serve response answer literally the same fold — the same
// precondition the sharded differential suite documents.
class OpPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trees_ = {*CanonicalizeTree(*ParseTree(kLabeledTreeText)),
              *CanonicalizeTree(RandomDeepTree(101)),
              *CanonicalizeTree(RandomDeepTree(202, 14))};
    names_ = {"lab", "d0", "d1"};
    for (size_t i = 0; i < trees_.size(); ++i) {
      paths_.push_back(::testing::TempDir() + "/opreg_" + names_[i] + ".sexp");
      ASSERT_TRUE(WriteStringToFile(paths_[i], FormatTree(trees_[i])).ok());
    }
    unlabeled_path_ = ::testing::TempDir() + "/opreg_unlabeled.sexp";
    ASSERT_TRUE(WriteStringToFile(
                    unlabeled_path_,
                    FormatTree(*CanonicalizeTree(*ParseTree(kUnlabeledTreeText))))
                    .ok());
  }

  // One line per load, then the analytics/query mix used by every
  // transcript-identity configuration. Includes error rows (unlabeled
  // aggregate, unknown tree, unknown op) because error bytes are part of
  // the wire contract.
  std::string RequestFileWithLoads() {
    std::string text;
    for (size_t i = 0; i < names_.size(); ++i) {
      text += "op=load name=" + names_[i] + " file=" + paths_[i] + "\n";
    }
    text += "op=load name=unlab file=" + unlabeled_path_ + "\n";
    return text + QueryRequests();
  }

  std::string QueryRequests() {
    return
        "op=marginals tree=lab\n"
        "op=marginals tree=d0\n"
        "op=marginals tree=d1\n"
        "op=aggregate tree=lab\n"
        "op=aggregate tree=d0\n"
        "op=aggregate tree=unlab\n"
        "op=baseline tree=d0 k=3 method=escore\n"
        "op=baseline tree=d0 k=3 method=erank\n"
        "op=baseline tree=d1 k=4 method=global\n"
        "op=baseline tree=d1 k=4 method=prf\n"
        "op=baseline tree=lab k=2\n"
        "op=hardness tree=lab\n"
        "op=hardness tree=d0\n"
        "op=hardness tree=d1\n"
        "op=topk tree=d0 k=3\n"
        "op=topk tree=d1 k=3 metric=kendall\n"
        "op=world tree=lab\n"
        "op=marginals tree=no_such_tree\n"
        "op=frobnicate tree=d0\n";
  }

  std::string WriteRequestFile(const std::string& name,
                               const std::string& text) {
    std::string path = ::testing::TempDir() + "/" + name;
    EXPECT_TRUE(WriteStringToFile(path, text).ok());
    return path;
  }

  // Serves `request_path` with the given extra flags and returns stdout.
  // Every configuration must exit 1: the request mix contains in-band
  // error lines by construction.
  std::string ServeTranscript(const std::string& request_path,
                              const std::vector<std::string>& flags) {
    std::vector<std::string> args = {"serve", request_path};
    args.insert(args.end(), flags.begin(), flags.end());
    CliResult r = RunCliArgs(args);
    EXPECT_EQ(r.code, 1) << "flags " << ::testing::PrintToString(flags)
                         << "\nstderr: " << r.err;
    return r.out;
  }

  std::vector<AndXorTree> trees_;
  std::vector<std::string> names_;
  std::vector<std::string> paths_;
  std::string unlabeled_path_;
};

// ---------------------------------------------------------------------------
// Table shape
// ---------------------------------------------------------------------------

TEST(OpRegistryTest, TableIndexIsTheOpEnumAndNamesRoundTrip) {
  const OpRegistry& registry = OpRegistry::Get();
  ASSERT_EQ(registry.specs().size(), 9u);
  for (size_t i = 0; i < registry.specs().size(); ++i) {
    const OpSpec& spec = registry.specs()[i];
    // The enum is the table index — what lets the instruments and both
    // schedulers index per-op state by op without a name lookup.
    EXPECT_EQ(static_cast<size_t>(spec.op), i);
    EXPECT_EQ(&registry.spec(spec.op), &spec);
    EXPECT_EQ(registry.FindByName(spec.name), &spec) << spec.name;
  }
  EXPECT_EQ(registry.FindByName("frobnicate"), nullptr);
  // Every spec is fully wired: a parse, a formatter, and the hooks of its
  // routing class — fetch + rank_k + solve (and the shared execute_tree)
  // for a tree-addressed op, one execute_admin for an admin op.
  for (const OpSpec& spec : registry.specs()) {
    EXPECT_NE(spec.parse, nullptr) << spec.name;
    EXPECT_NE(spec.format, nullptr) << spec.name;
    const bool tree = spec.routing == OpRouting::kTreeAddressed;
    EXPECT_EQ(spec.fetch != nullptr, tree) << spec.name;
    EXPECT_EQ(spec.rank_k != nullptr, tree) << spec.name;
    EXPECT_EQ(spec.solve != nullptr, tree) << spec.name;
    EXPECT_EQ(spec.execute_tree != nullptr, tree) << spec.name;
    EXPECT_EQ(spec.execute_admin != nullptr,
              spec.routing == OpRouting::kAdmin)
        << spec.name;
  }
}

TEST(OpRegistryTest, RankKNamesTheCutoffEachFetchReads) {
  // The fold plan's input: the k at which a fetch reads the
  // rank-distribution cache, 0 when it reads none. topk's is the gate
  // GatedDistFor applies, so a request that can only fail plans nothing.
  const OpRegistry& registry = OpRegistry::Get();
  auto rank_k = [&](const std::string& text) {
    Result<RequestLine> line = ParseRequestLine(text);
    EXPECT_TRUE(line.ok()) << text;
    Result<ServiceRequest> request = ServiceRequestFromLine(*line);
    EXPECT_TRUE(request.ok()) << text;
    return registry.spec(request->op).rank_k(*request);
  };
  EXPECT_EQ(rank_k("op=topk tree=t k=6 metric=footrule"), 6);
  EXPECT_EQ(rank_k("op=topk tree=t k=6 metric=kendall answer=median"), 0);
  EXPECT_EQ(rank_k("op=baseline tree=t k=5 method=global"), 5);
  EXPECT_EQ(rank_k("op=baseline tree=t k=5 method=prf"), 5);
  EXPECT_EQ(rank_k("op=baseline tree=t k=5 method=erank"), 0);
  EXPECT_EQ(rank_k("op=baseline tree=t k=5 method=escore"), 0);
  for (const char* text : {"op=world tree=t", "op=marginals tree=t",
                           "op=aggregate tree=t", "op=hardness tree=t"}) {
    EXPECT_EQ(rank_k(text), 0) << text;
  }
}

TEST(OpRegistryTest, UnknownOpErrorEnumeratesTheTable) {
  // The satellite regression: the valid-op list in the error is *derived*
  // from the registry, so a newly added op appears here without anyone
  // editing an error string. The full text is golden-pinned in
  // request_protocol_test.cc as well.
  Status error = OpRegistry::Get().UnknownOpError("frobnicate");
  EXPECT_FALSE(error.ok());
  EXPECT_EQ(error.message(),
            "unknown op 'frobnicate' (expected load, topk, world, stats, "
            "metrics, marginals, aggregate, baseline or hardness)");
  EXPECT_EQ(OpRegistry::Get().ExpectedOpsList(),
            "load, topk, world, stats, metrics, marginals, aggregate, "
            "baseline or hardness");
}

// ---------------------------------------------------------------------------
// Strict parses for the new ops
// ---------------------------------------------------------------------------

Result<ServiceRequest> ParseLine(const std::string& text) {
  CPDB_ASSIGN_OR_RETURN(RequestLine line, ParseRequestLine(text));
  return ServiceRequestFromLine(line);
}

TEST(OpRegistryParseTest, NewOpsParseTheirFields) {
  auto marginals = ParseLine("op=marginals tree=t");
  ASSERT_TRUE(marginals.ok());
  EXPECT_EQ(marginals->op, ServiceRequest::Op::kMarginals);
  EXPECT_EQ(marginals->tree_name, "t");

  auto baseline = ParseLine("op=baseline tree=t k=7 method=prf");
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(baseline->op, ServiceRequest::Op::kBaseline);
  EXPECT_EQ(baseline->k, 7);
  EXPECT_EQ(baseline->baseline_method, "prf");
  // method defaults to escore, same default as the CLI twin's --method.
  auto defaulted = ParseLine("op=baseline tree=t k=2");
  ASSERT_TRUE(defaulted.ok());
  EXPECT_EQ(defaulted->baseline_method, "escore");

  auto hardness = ParseLine("op=hardness tree=t trace=on");
  ASSERT_TRUE(hardness.ok());
  EXPECT_EQ(hardness->op, ServiceRequest::Op::kHardness);
  EXPECT_TRUE(hardness->trace);
}

TEST(OpRegistryParseTest, NewOpsRejectGarbageStrictly) {
  // Field allow-lists: k belongs to topk/baseline, not marginals.
  EXPECT_FALSE(ParseLine("op=marginals tree=t k=3").ok());
  EXPECT_FALSE(ParseLine("op=aggregate tree=t metric=symdiff").ok());
  EXPECT_FALSE(ParseLine("op=hardness tree=t answer=mean").ok());
  // Required fields stay required.
  EXPECT_FALSE(ParseLine("op=marginals").ok());
  EXPECT_FALSE(ParseLine("op=baseline tree=t").ok());
  // Value sets: the method enum is strict, and its message enumerates the
  // valid set like every other strict parse in the protocol.
  auto bad_method = ParseLine("op=baseline tree=t k=2 method=bogus");
  ASSERT_FALSE(bad_method.ok());
  EXPECT_EQ(bad_method.status().message(),
            "unknown method 'bogus' (expected escore, erank, global or prf)");
  EXPECT_FALSE(ParseLine("op=baseline tree=t k=0 method=escore").ok());
}

// ---------------------------------------------------------------------------
// CLI twins: the serve bytes are the offline bytes
// ---------------------------------------------------------------------------

TEST_F(OpPipelineTest, MarginalsOpMatchesOfflineCommandByteForByte) {
  std::string requests;
  for (size_t i = 0; i < names_.size(); ++i) {
    requests += "op=load name=" + names_[i] + " file=" + paths_[i] + "\n";
  }
  for (const std::string& name : names_) {
    requests += "op=marginals tree=" + name + "\n";
  }
  std::string path = WriteRequestFile("opreg_marg.txt", requests);
  CliResult serve = RunCliArgs({"serve", path});
  ASSERT_EQ(serve.code, 0) << serve.err;
  std::vector<std::string> lines = SplitLines(serve.out);
  ASSERT_EQ(lines.size(), 6u);
  for (size_t i = 0; i < names_.size(); ++i) {
    SCOPED_TRACE(names_[i]);
    const std::string& line = lines[3 + i];
    // Rebuild the serve csvs from the offline command's rows: same keys,
    // same round-trip-formatted marginal bytes, same order.
    CliResult cli = RunCliArgs({"marginals", paths_[i]});
    ASSERT_EQ(cli.code, 0);
    std::vector<std::string> rows = SplitLines(cli.out);
    ASSERT_GE(rows.size(), 2u);
    EXPECT_EQ(rows[0], "key presence_probability");
    std::string keys_csv, marginals_csv;
    for (size_t r = 1; r < rows.size(); ++r) {
      size_t space = rows[r].find(' ');
      ASSERT_NE(space, std::string::npos) << rows[r];
      if (r > 1) {
        keys_csv += ",";
        marginals_csv += ",";
      }
      keys_csv += rows[r].substr(0, space);
      marginals_csv += rows[r].substr(space + 1);
    }
    EXPECT_EQ(Field(line, "keys"), keys_csv);
    EXPECT_EQ(Field(line, "marginals"), marginals_csv);
  }
}

TEST_F(OpPipelineTest, AggregateOpMatchesOfflineCommandByteForByte) {
  std::string requests = "op=load name=lab file=" + paths_[0] +
                         "\nop=load name=d0 file=" + paths_[1] +
                         "\nop=aggregate tree=lab\nop=aggregate tree=d0\n";
  std::string path = WriteRequestFile("opreg_agg.txt", requests);
  CliResult serve = RunCliArgs({"serve", path});
  ASSERT_EQ(serve.code, 0) << serve.err;
  std::vector<std::string> lines = SplitLines(serve.out);
  ASSERT_EQ(lines.size(), 4u);
  for (size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE(names_[i]);
    const std::string& line = lines[2 + i];
    CliResult cli = RunCliArgs({"aggregate", paths_[i]});
    ASSERT_EQ(cli.code, 0) << cli.err;
    std::vector<std::string> rows = SplitLines(cli.out);
    ASSERT_GE(rows.size(), 2u);
    EXPECT_EQ(rows[0], "group mean_count median_count");
    std::string mean_csv, median_csv;
    for (size_t r = 1; r < rows.size(); ++r) {
      size_t s1 = rows[r].find(' ');
      size_t s2 = rows[r].find(' ', s1 + 1);
      ASSERT_NE(s2, std::string::npos) << rows[r];
      if (r > 1) {
        mean_csv += ",";
        median_csv += ",";
      }
      mean_csv += rows[r].substr(s1 + 1, s2 - s1 - 1);
      median_csv += rows[r].substr(s2 + 1);
    }
    EXPECT_EQ(Field(line, "groups"), std::to_string(rows.size() - 1));
    EXPECT_EQ(Field(line, "mean"), mean_csv);
    EXPECT_EQ(Field(line, "median"), median_csv);
  }
}

TEST_F(OpPipelineTest, AggregateErrorTextIsSharedWithTheOfflineCommand) {
  // Both surfaces route the group-by build through
  // core/aggregates.h GroupByInstanceFromTree, so the missing-label
  // message is literally the same bytes.
  CliResult cli = RunCliArgs({"aggregate", unlabeled_path_});
  EXPECT_EQ(cli.code, 1);
  std::string requests = "op=load name=u file=" + unlabeled_path_ +
                         "\nop=aggregate tree=u\n";
  std::string path = WriteRequestFile("opreg_agg_err.txt", requests);
  CliResult serve = RunCliArgs({"serve", path});
  EXPECT_EQ(serve.code, 1);
  std::vector<std::string> lines = SplitLines(serve.out);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(Field(lines[1], "msg"), "Invalid argument: " + cli.err.substr(0, cli.err.size() - 1));
  EXPECT_NE(cli.err.find("aggregate requires a label on every alternative"),
            std::string::npos)
      << cli.err;
}

TEST_F(OpPipelineTest, BaselineOpMatchesOfflineCommandForEveryMethod) {
  const std::vector<std::string> kMethods = {"escore", "erank", "global",
                                             "prf"};
  for (int k : {1, 3}) {
    std::string requests;
    for (size_t i = 0; i < names_.size(); ++i) {
      requests += "op=load name=" + names_[i] + " file=" + paths_[i] + "\n";
    }
    for (const std::string& name : names_) {
      for (const std::string& method : kMethods) {
        requests += "op=baseline tree=" + name + " k=" + std::to_string(k) +
                    " method=" + method + "\n";
      }
    }
    std::string path = WriteRequestFile("opreg_base.txt", requests);
    CliResult serve = RunCliArgs({"serve", path});
    ASSERT_EQ(serve.code, 0) << serve.err;
    std::vector<std::string> lines = SplitLines(serve.out);
    ASSERT_EQ(lines.size(), names_.size() * (1 + kMethods.size()));
    size_t slot = names_.size();
    for (size_t i = 0; i < names_.size(); ++i) {
      for (const std::string& method : kMethods) {
        SCOPED_TRACE(names_[i] + " " + method + " k=" + std::to_string(k));
        const std::string& line = lines[slot++];
        EXPECT_EQ(Field(line, "method"), method);
        CliResult cli = RunCliArgs({"baseline", paths_[i],
                                    "--k=" + std::to_string(k),
                                    "--method=" + method, "--threads=2"});
        ASSERT_EQ(cli.code, 0) << cli.err;
        // The offline line is "baseline <method> k=<k> keys=<csv>"; the
        // keys csv must be the serve response's keys field, byte for byte.
        std::string expected = "baseline " + method +
                               " k=" + std::to_string(k) +
                               " keys=" + Field(line, "keys") + "\n";
        EXPECT_EQ(cli.out, expected);
      }
    }
  }
}

TEST_F(OpPipelineTest, HardnessOpMatchesOfflineCommandByteForByte) {
  std::string requests;
  for (size_t i = 0; i < names_.size(); ++i) {
    requests += "op=load name=" + names_[i] + " file=" + paths_[i] + "\n";
  }
  for (const std::string& name : names_) {
    requests += "op=hardness tree=" + name + "\n";
  }
  std::string path = WriteRequestFile("opreg_hard.txt", requests);
  CliResult serve = RunCliArgs({"serve", path});
  ASSERT_EQ(serve.code, 0) << serve.err;
  std::vector<std::string> lines = SplitLines(serve.out);
  ASSERT_EQ(lines.size(), 6u);
  for (size_t i = 0; i < names_.size(); ++i) {
    SCOPED_TRACE(names_[i]);
    const std::string& line = lines[3 + i];
    CliResult cli = RunCliArgs({"hardness", paths_[i]});
    ASSERT_EQ(cli.code, 0);
    // The offline command prints "name value" lines whose names are the
    // serve response's field names; values must agree byte for byte.
    int compared = 0;
    for (const std::string& row : SplitLines(cli.out)) {
      size_t space = row.find(' ');
      ASSERT_NE(space, std::string::npos) << row;
      EXPECT_EQ(Field(line, row.substr(0, space)), row.substr(space + 1))
          << row;
      ++compared;
    }
    EXPECT_EQ(compared, 7);
  }
}

// ---------------------------------------------------------------------------
// Transcript identity across serving configurations
// ---------------------------------------------------------------------------

TEST_F(OpPipelineTest, TranscriptIsByteIdenticalAcrossConfigurations) {
  std::string path =
      WriteRequestFile("opreg_all.txt", RequestFileWithLoads());
  const std::string baseline = ServeTranscript(path, {});
  ASSERT_FALSE(baseline.empty());
  // Answers — and error lines — are bitwise independent of parallelism,
  // sharding, cache budgets, instruments, and batching. Each variant
  // flips one or two knobs; the transcript must not move by a byte.
  const std::vector<std::vector<std::string>> kVariants = {
      {"--stream"},
      {"--threads=8"},
      {"--stream", "--threads=8"},
      {"--cache-budget=0"},
      {"--metrics=off"},
      {"--shards=1"},
      {"--shards=2", "--threads=8"},
      {"--shards=4"},
      {"--shards=4", "--stream", "--cache-budget=4096"},
  };
  for (const auto& flags : kVariants) {
    EXPECT_EQ(ServeTranscript(path, flags), baseline)
        << "flags " << ::testing::PrintToString(flags);
  }
}

// ExecuteOne is ExecuteBatch({request})[0]: for every tree-addressed op of
// the request mix — its error rows and a few failing topk pairs included —
// the two answer the same bytes, record the same trace span names, and
// leave the same per-op instrument counts, each scheduler on its own
// auto-advancing FakeClock.
TEST_F(OpPipelineTest, ExecuteOneIsAOneSlotBatch) {
  FakeClock one_clock;
  FakeClock batch_clock;
  one_clock.set_auto_advance(1);
  batch_clock.set_auto_advance(1);
  EngineOptions engine_options;
  engine_options.num_threads = 1;
  SchedulerOptions one_options;
  one_options.clock = &one_clock;
  SchedulerOptions batch_options;
  batch_options.clock = &batch_clock;
  QueryScheduler one(1, engine_options, one_options);
  QueryScheduler batch(1, engine_options, batch_options);
  for (QueryScheduler* scheduler : {&one, &batch}) {
    for (size_t i = 0; i < trees_.size(); ++i) {
      ASSERT_TRUE(scheduler->Insert(names_[i], trees_[i]).ok());
    }
    ASSERT_TRUE(
        scheduler->Insert("unlab", *ParseTree(*ReadFileToString(unlabeled_path_)))
            .ok());
  }

  const std::string extra =
      "op=topk tree=d0 k=3 metric=kendall answer=median\n"
      "op=topk tree=d1 k=2 metric=footrule answer=approx\n"
      "op=topk tree=d0 k=2 metric=symdiff answer=median\n"
      "op=topk tree=no_such_tree k=2\n"
      "op=world tree=d1 answer=median\n";
  int tree_ops = 0;
  for (const std::string& text : SplitLines(QueryRequests() + extra)) {
    Result<ServiceRequest> parsed = ParseLine(text);
    if (!parsed.ok()) continue;  // op=frobnicate never reaches a scheduler
    ServiceRequest request = *parsed;
    ASSERT_EQ(OpRegistry::Get().spec(request.op).routing,
              OpRouting::kTreeAddressed);
    request.trace = true;
    ++tree_ops;
    SCOPED_TRACE(text);
    const Result<ServiceResponse> got = one.ExecuteOne(request);
    const Result<ServiceResponse> want = batch.ExecuteBatch({request})[0];
    ASSERT_EQ(got.ok(), want.ok());
    if (!got.ok()) {
      EXPECT_EQ(got.status().ToString(), want.status().ToString());
      continue;
    }
    EXPECT_EQ(FormatResponseLine(ResponseToFields(*got)),
              FormatResponseLine(ResponseToFields(*want)));
    std::vector<std::string> got_spans;
    std::vector<std::string> want_spans;
    for (const auto& span : got->timing.spans) got_spans.push_back(span.first);
    for (const auto& span : want->timing.spans) want_spans.push_back(span.first);
    EXPECT_EQ(got_spans, want_spans);
  }
  EXPECT_EQ(tree_ops, 23);

  const MetricsSnapshot one_scrape = one.MetricsSnapshotNow();
  const MetricsSnapshot batch_scrape = batch.MetricsSnapshotNow();
  for (const OpSpec& spec : OpRegistry::Get().specs()) {
    const std::string stem = "cpdb_" + std::string(spec.name);
    EXPECT_EQ(one_scrape.Find(stem + "_requests_total")->value,
              batch_scrape.Find(stem + "_requests_total")->value)
        << spec.name;
    const HistogramSnapshot& one_latency =
        one_scrape.Find(stem + "_latency_nanoseconds")->hist;
    const HistogramSnapshot& batch_latency =
        batch_scrape.Find(stem + "_latency_nanoseconds")->hist;
    EXPECT_EQ(one_latency.count, batch_latency.count) << spec.name;
    EXPECT_EQ(one_latency.sum_nanos, batch_latency.sum_nanos) << spec.name;
  }
  for (const char* counter :
       {"cpdb_requests_total", "cpdb_request_errors_total"}) {
    EXPECT_EQ(one_scrape.Find(counter)->value,
              batch_scrape.Find(counter)->value)
        << counter;
  }
  for (const char* stage : {"catalog", "cache", "fold"}) {
    const std::string name =
        std::string("cpdb_stage_") + stage + "_latency_nanoseconds";
    EXPECT_EQ(one_scrape.Find(name)->hist.count,
              batch_scrape.Find(name)->hist.count)
        << name;
  }
}

// An OpHost that computes every precompute fresh over the catalog entry's
// program, as the scheduler's caches do on a miss, with the same gate on
// requests that can only fail.
class FreshHost : public OpHost {
 public:
  explicit FreshHost(const Engine* engine) : engine_(engine) {}

  const Engine* engine() const override { return engine_; }
  std::shared_ptr<const RankDistribution> GatedDistFor(
      const CatalogEntry& entry, const ServiceRequest& request) override {
    const int k = OpRegistry::Get().spec(request.op).rank_k(request);
    return k == 0 ? nullptr : RankDistFor(entry, k);
  }
  std::shared_ptr<const RankDistribution> RankDistFor(const CatalogEntry& entry,
                                                      int k) override {
    return std::make_shared<const RankDistribution>(
        engine_->ComputeRankDistribution(*entry.tree, k, entry.program.get()));
  }
  std::shared_ptr<const std::vector<double>> MarginalsFor(
      const CatalogEntry& entry) override {
    return std::make_shared<const std::vector<double>>(
        engine_->LeafMarginals(*entry.tree, entry.program.get()));
  }
  ServiceResponse StatsNow() override { return ServiceResponse(); }
  Result<MetricsSnapshot> MetricsNow() override {
    return MetricsDisabledError();
  }
  Result<ServiceResponse> ExecuteLoadOp(const ServiceRequest&, const Clock*,
                                        ResponseTiming*) override {
    return Status::Internal("FreshHost serves tree-addressed hooks only");
  }

 private:
  const Engine* engine_;
};

// Fetch is the precompute and solve the tail: over the inputs FetchOpInputs
// returned, SolveOp folds no rank distribution and compiles no tree, for
// every tree-addressed op of the request mix and every topk (metric,
// answer) pair at k = 3 and k = 0 — the pairs and cutoffs that can only
// fail included.
TEST_F(OpPipelineTest, SolveOverFetchedInputsNeverFolds) {
  EngineOptions engine_options;
  engine_options.num_threads = 1;
  const Engine engine(engine_options);
  TreeCatalog catalog;
  for (size_t i = 0; i < trees_.size(); ++i) {
    ASSERT_TRUE(catalog.Insert(names_[i], trees_[i]).ok());
  }
  ASSERT_TRUE(
      catalog.Insert("unlab", *ParseTree(*ReadFileToString(unlabeled_path_)))
          .ok());

  std::vector<ServiceRequest> requests;
  for (const std::string& text : SplitLines(QueryRequests())) {
    Result<ServiceRequest> parsed = ParseLine(text);
    if (parsed.ok()) requests.push_back(*parsed);
  }
  for (TopKMetric metric : {TopKMetric::kSymDiff, TopKMetric::kIntersection,
                            TopKMetric::kFootrule, TopKMetric::kKendall}) {
    for (TopKAnswer answer : {TopKAnswer::kMean, TopKAnswer::kMedian,
                              TopKAnswer::kMeanUnrestricted,
                              TopKAnswer::kMeanApprox}) {
      for (int k : {3, 0}) {
        ServiceRequest request;
        request.op = ServiceRequest::Op::kTopK;
        request.tree_name = "d1";
        request.k = k;
        request.metric = metric;
        request.answer = answer;
        requests.push_back(request);
      }
    }
  }

  FreshHost host(&engine);
  int solved = 0;
  int failed = 0;
  for (const ServiceRequest& request : requests) {
    Result<CatalogEntry> entry = catalog.Lookup(request.tree_name);
    if (!entry.ok()) continue;  // an unknown tree fails before its fetch
    SCOPED_TRACE(FormatResponseLine({{"op", OpRegistry::Get()
                                                .spec(request.op)
                                                .name},
                                     {"tree", request.tree_name},
                                     {"k", std::to_string(request.k)},
                                     {"metric", TopKMetricName(request.metric)},
                                     {"answer",
                                      TopKAnswerName(request.answer)}}));
    const OpSpec& spec = OpRegistry::Get().spec(request.op);
    ResponseTiming timing;
    const OpInputs inputs =
        FetchOpInputs(spec, host, *entry, request, nullptr, &timing);
    const EngineObsCounters before = engine.obs_counters();
    const Result<ServiceResponse> response =
        SolveOp(spec, engine, *entry, request, inputs, nullptr, &timing);
    const EngineObsCounters after = engine.obs_counters();
    EXPECT_EQ(after.rank_folds, before.rank_folds);
    EXPECT_EQ(after.fold_compiles, before.fold_compiles);
    ++(response.ok() ? solved : failed);
    // A topk that can only fail answers Engine::ConsensusTopK's error.
    if (request.op == ServiceRequest::Op::kTopK && !response.ok()) {
      EXPECT_EQ(response.status().ToString(),
                engine
                    .ConsensusTopK(*entry->tree, request.k, request.metric,
                                   request.answer)
                    .status()
                    .ToString());
    }
  }
  // Every topk pair at k = 0, the nine unsupported pairs at k = 3 and the
  // unlabeled aggregate fail; the rest answer.
  EXPECT_EQ(failed, 16 + 9 + 1);
  EXPECT_EQ(solved, static_cast<int>(requests.size()) - 1 - failed);
}

TEST_F(OpPipelineTest, WarmRestartServesTheSameAnalyticsBytes) {
  // Session one: loads + queries, catalog saved at shutdown. Session two:
  // the snapshot plus the query tail only — every analytics answer must
  // be the bytes session one produced.
  std::string snapshot = ::testing::TempDir() + "/opreg_catalog.snap";
  std::string full_path =
      WriteRequestFile("opreg_warm_full.txt", RequestFileWithLoads());
  std::string cold =
      ServeTranscript(full_path, {"--save-catalog=" + snapshot});
  std::vector<std::string> cold_lines = SplitLines(cold);
  ASSERT_GT(cold_lines.size(), 4u);
  // Drop the four op=load echo lines; the rest is the query transcript.
  std::string query_transcript;
  for (size_t i = 4; i < cold_lines.size(); ++i) {
    query_transcript += cold_lines[i] + "\n";
  }
  std::string query_path =
      WriteRequestFile("opreg_warm_queries.txt", QueryRequests());
  EXPECT_EQ(MaskLineNumbers(ServeTranscript(query_path,
                                            {"--catalog=" + snapshot})),
            MaskLineNumbers(query_transcript));
  EXPECT_EQ(MaskLineNumbers(ServeTranscript(
                query_path, {"--catalog=" + snapshot, "--shards=2"})),
            MaskLineNumbers(query_transcript));
}

// ---------------------------------------------------------------------------
// The parallel expected-rank fold and the marginals cache
// ---------------------------------------------------------------------------

TEST(EngineExpectedRanksTest, BitwiseEqualToTheSequentialCoreFold) {
  std::vector<AndXorTree> trees;
  trees.push_back(*ParseTree(kLabeledTreeText));
  trees.push_back(RandomDeepTree(7));
  trees.push_back(RandomDeepTree(33, 16));
  for (const AndXorTree& tree : trees) {
    const std::vector<double> reference = ExpectedRanks(tree);
    for (int threads : {1, 2, 8}) {
      EngineOptions options;
      options.num_threads = threads;
      Engine engine(options);
      // EXPECT_EQ, never NEAR: op=baseline method=erank must not drift
      // from the offline twin by a ULP on any thread count.
      EXPECT_EQ(engine.ExpectedRanks(tree), reference)
          << threads << " threads";
    }
  }
}

TEST(OpPipelineCacheTest, RepeatedAnalyticsFoldMarginalsOnce) {
  Engine engine;
  TreeCatalog catalog;
  QueryScheduler scheduler(&engine, &catalog);
  ASSERT_TRUE(
      catalog.Insert("lab", *CanonicalizeTree(*ParseTree(kLabeledTreeText)))
          .ok());
  ServiceRequest marginals;
  marginals.op = ServiceRequest::Op::kMarginals;
  marginals.tree_name = "lab";
  ServiceRequest aggregate;
  aggregate.op = ServiceRequest::Op::kAggregate;
  aggregate.tree_name = "lab";
  std::vector<Result<ServiceResponse>> responses =
      scheduler.ExecuteBatch({marginals, marginals, aggregate});
  for (const auto& response : responses) ASSERT_TRUE(response.ok());
  // One leaf-marginal fold serves all three requests: the second
  // marginals probe and the aggregate's group-by both hit the cache.
  EXPECT_EQ(scheduler.marginals_stats().misses, 1);
  EXPECT_EQ(scheduler.marginals_stats().hits, 2);
  // And the repeated probes answered identically.
  EXPECT_EQ(FormatResponseLine(ResponseToFields(*responses[0])),
            FormatResponseLine(ResponseToFields(*responses[1])));
}

}  // namespace
}  // namespace cpdb
