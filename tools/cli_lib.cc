// Copyright 2026 The ConsensusDB Authors

#include "tools/cli_lib.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <optional>
#include <utility>

#include "common/hash.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/aggregates.h"
#include "core/hardness.h"
#include "core/jaccard.h"
#include "core/rank_distribution.h"
#include "core/ranking_baselines.h"
#include "core/topk_metrics.h"
#include "core/topk_symdiff.h"
#include "engine/engine.h"
#include "io/request_protocol.h"
#include "io/table_io.h"
#include "io/tree_text.h"
#include "model/builders.h"
#include "model/flat_tree.h"
#include "model/possible_worlds.h"
#include "obs/clock.h"
#include "service/catalog_snapshot.h"
#include "service/query_scheduler.h"
#include "service/tree_catalog.h"

namespace cpdb {

namespace {

struct CliOptions {
  std::string command;
  std::string input_path;
  std::string format = "tree";  // tree | bid
  std::string metric = "symdiff";
  std::string answer = "mean";  // mean | median
  int k = 5;
  int count = 5;
  size_t max_worlds = 4096;
  uint64_t seed = 1;
  int threads = 1;
  int64_t cache_budget = kUnboundedCacheBytes;  // serve: cache byte budget
  bool cache_budget_set = false;  // --cache-budget given (serve only)
  bool stream = false;     // serve: flush one response per request
  int shards = 1;          // serve: scheduler shards
  bool shards_set = false;  // --shards given (serve only)
  std::string catalog_path;       // serve: snapshot to load at startup
  std::string save_catalog_path;  // serve: snapshot to write at shutdown
  bool metrics = true;      // serve: instruments + op=metrics on/off
  bool metrics_set = false;  // --metrics given (serve only)
  int64_t slow_query_ms = 0;      // serve: slow-query log threshold
  bool slow_query_set = false;    // --slow-query-ms given (serve only)
  std::string method = "escore";  // baseline: ranking semantics
  bool method_set = false;        // --method given (baseline only)
};

// The evaluation engine configured by --threads. Results are independent of
// the thread count (see engine/engine.h), so parallelism is safe to expose
// as a plain performance knob.
Engine MakeEngine(const CliOptions& opts) {
  EngineOptions eopts;
  eopts.num_threads = opts.threads;
  return Engine(eopts);
}

// Strict base-10 integer parse for --flag values; shares the single strict
// parser with the serve protocol's integer fields (io/request_protocol.h):
// rejects empty strings, trailing garbage, and out-of-range magnitudes
// instead of silently taking whatever atoi salvages (a typo'd "--k=1o"
// must not become k=1).
Result<long long> ParseIntFlag(const std::string& name,
                               const std::string& value) {
  return ParseStrictInt("--" + name, value);
}

// Parses "--name=value" flags; positional arguments fill command then input.
Result<CliOptions> ParseArgs(const std::vector<std::string>& args) {
  CliOptions opts;
  std::vector<std::string> positional;
  for (size_t i = 1; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a.rfind("--", 0) != 0) {
      positional.push_back(a);
      continue;
    }
    size_t eq = a.find('=');
    std::string name = a.substr(2, eq == std::string::npos ? a.npos : eq - 2);
    std::string value = eq == std::string::npos ? "" : a.substr(eq + 1);
    if (name == "format") {
      opts.format = value;
    } else if (name == "metric") {
      opts.metric = value;
    } else if (name == "answer") {
      opts.answer = value;
    } else if (name == "method") {
      // Strict enum parse, like the integer flags: a typo'd value must not
      // silently fall back to the default semantics. The value set is
      // the serve protocol's op=baseline method field, verbatim.
      if (value != "escore" && value != "erank" && value != "global" &&
          value != "prf") {
        return Status::InvalidArgument(
            "--method expects escore, erank, global or prf, got '" + value +
            "'");
      }
      opts.method = value;
      opts.method_set = true;
    } else if (name == "k") {
      // Out-of-range values error rather than clamp: a clamped k would
      // silently answer a different query. (Range checks like k >= 1 stay
      // with the commands, which know their semantics.)
      CPDB_ASSIGN_OR_RETURN(long long k, ParseIntFlag(name, value));
      if (k < 0 || k > kMaxRankK) {
        return Status::InvalidArgument("--k out of range, got '" + value +
                                       "'");
      }
      opts.k = static_cast<int>(k);
    } else if (name == "count") {
      CPDB_ASSIGN_OR_RETURN(long long count, ParseIntFlag(name, value));
      if (count < 0 || count > (1 << 30)) {
        return Status::InvalidArgument("--count out of range, got '" + value +
                                       "'");
      }
      opts.count = static_cast<int>(count);
    } else if (name == "max-worlds") {
      CPDB_ASSIGN_OR_RETURN(long long max_worlds, ParseIntFlag(name, value));
      if (max_worlds < 0) {
        return Status::InvalidArgument("--max-worlds must be >= 0, got '" +
                                       value + "'");
      }
      opts.max_worlds = static_cast<size_t>(max_worlds);
    } else if (name == "seed") {
      CPDB_ASSIGN_OR_RETURN(long long seed, ParseIntFlag(name, value));
      opts.seed = static_cast<uint64_t>(seed);
    } else if (name == "threads") {
      // A typo'd value must not silently become 0, which is the valid
      // "all hardware cores" setting.
      CPDB_ASSIGN_OR_RETURN(long long threads, ParseIntFlag(name, value));
      // Clamp before narrowing; the pool caps the count anyway.
      opts.threads = static_cast<int>(
          std::min<long long>(std::max<long long>(threads, -1), 1 << 20));
    } else if (name == "cache-budget") {
      CPDB_ASSIGN_OR_RETURN(long long budget, ParseIntFlag(name, value));
      if (budget < 0) {
        return Status::InvalidArgument(
            "--cache-budget must be >= 0 bytes, got '" + value + "'");
      }
      opts.cache_budget = budget;
      opts.cache_budget_set = true;
    } else if (name == "shards") {
      CPDB_ASSIGN_OR_RETURN(long long shards, ParseIntFlag(name, value));
      if (shards < 1 || shards > 1024) {
        return Status::InvalidArgument(
            "--shards must be between 1 and 1024, got '" + value + "'");
      }
      opts.shards = static_cast<int>(shards);
      opts.shards_set = true;
    } else if (name == "catalog") {
      // A pathless --catalog must not silently mean "cold start": the whole
      // point of the flag is that a warm restart either happens or errors.
      if (value.empty()) {
        return Status::InvalidArgument("--catalog requires a file path");
      }
      opts.catalog_path = value;
    } else if (name == "save-catalog") {
      if (value.empty()) {
        return Status::InvalidArgument("--save-catalog requires a file path");
      }
      opts.save_catalog_path = value;
    } else if (name == "metrics") {
      // Strict enum parse, same convention as --method.
      if (value == "on") {
        opts.metrics = true;
      } else if (value == "off") {
        opts.metrics = false;
      } else {
        return Status::InvalidArgument("--metrics expects on or off, got '" +
                                       value + "'");
      }
      opts.metrics_set = true;
    } else if (name == "slow-query-ms") {
      CPDB_ASSIGN_OR_RETURN(long long threshold, ParseIntFlag(name, value));
      if (threshold < 0) {
        return Status::InvalidArgument(
            "--slow-query-ms must be >= 0, got '" + value + "'");
      }
      opts.slow_query_ms = threshold;
      opts.slow_query_set = true;
    } else if (name == "stream") {
      // A boolean presence flag: "--stream=off" would invite the
      // silently-misread failure mode the strict parses exist to prevent.
      if (eq != std::string::npos) {
        return Status::InvalidArgument("--stream takes no value, got '" +
                                       value + "'");
      }
      opts.stream = true;
    } else {
      return Status::InvalidArgument("unknown flag --" + name);
    }
  }
  if (positional.empty()) {
    return Status::InvalidArgument("missing command");
  }
  opts.command = positional[0];
  // The serve-only flags configure the serve scheduler and nothing else;
  // accepting them elsewhere would be the silently-ignored-flag failure
  // mode the strict value parses exist to prevent.
  if (opts.cache_budget_set && opts.command != "serve") {
    return Status::InvalidArgument("--cache-budget applies only to serve");
  }
  if (opts.stream && opts.command != "serve") {
    return Status::InvalidArgument("--stream applies only to serve");
  }
  if (opts.shards_set && opts.command != "serve") {
    return Status::InvalidArgument("--shards applies only to serve");
  }
  if (!opts.catalog_path.empty() && opts.command != "serve") {
    return Status::InvalidArgument("--catalog applies only to serve");
  }
  if (!opts.save_catalog_path.empty() && opts.command != "serve") {
    return Status::InvalidArgument("--save-catalog applies only to serve");
  }
  if (opts.metrics_set && opts.command != "serve") {
    return Status::InvalidArgument("--metrics applies only to serve");
  }
  if (opts.slow_query_set && opts.command != "serve") {
    return Status::InvalidArgument("--slow-query-ms applies only to serve");
  }
  if (opts.slow_query_set && !opts.metrics) {
    // The slow-query log reads the per-request timings the instruments
    // produce; asking for it with metrics off would silently log nothing.
    return Status::InvalidArgument("--slow-query-ms requires --metrics=on");
  }
  if (opts.method_set && opts.command != "baseline") {
    return Status::InvalidArgument("--method applies only to baseline");
  }
  if (positional.size() > 1) opts.input_path = positional[1];
  if (positional.size() > 2) {
    return Status::InvalidArgument("unexpected argument: " + positional[2]);
  }
  return opts;
}

Result<AndXorTree> LoadTree(const CliOptions& opts) {
  if (opts.input_path.empty()) {
    return Status::InvalidArgument("missing input file");
  }
  CPDB_ASSIGN_OR_RETURN(std::string content,
                        ReadFileToString(opts.input_path));
  if (opts.format == "tree") {
    return ParseTree(content);
  }
  if (opts.format == "bid") {
    CPDB_ASSIGN_OR_RETURN(std::vector<Block> blocks, ParseBidTable(content));
    return MakeBlockIndependent(blocks);
  }
  return Status::InvalidArgument("unknown --format=" + opts.format +
                                 " (expected tree or bid)");
}

void PrintWorld(const AndXorTree& tree, const std::vector<NodeId>& leaf_ids,
                std::FILE* out) {
  std::fprintf(out, "{");
  bool first = true;
  for (const TupleAlternative& t : WorldTuples(tree, leaf_ids)) {
    std::fprintf(out, "%s(%d:%g)", first ? "" : " ", t.key, t.score);
    first = false;
  }
  std::fprintf(out, "}");
}

int CmdValidate(const CliOptions& opts, std::FILE* out, std::FILE* err) {
  auto tree = LoadTree(opts);
  if (!tree.ok()) {
    std::fprintf(err, "INVALID: %s\n", tree.status().ToString().c_str());
    return 1;
  }
  std::fprintf(out, "OK: %d leaves, %zu keys, %d nodes\n", tree->NumLeaves(),
               tree->Keys().size(), tree->NumNodes());
  return 0;
}

int CmdDumpFlat(const CliOptions& opts, std::FILE* out, std::FILE* err) {
  auto tree = LoadTree(opts);
  if (!tree.ok()) {
    std::fprintf(err, "%s\n", tree.status().ToString().c_str());
    return 1;
  }
  // The compiled record table: op stream (kind, slots, originating node,
  // precomputed XOR weights) followed by the leaf table (key, score, node,
  // marginal). This is the exact program the hot fold executes, so the dump
  // is the ground truth for debugging slot recycling and leaf
  // classification.
  std::fprintf(out, "%s", FlatTree::Compile(*tree).ToString().c_str());
  return 0;
}

int CmdDumpCanon(const CliOptions& opts, std::FILE* out, std::FILE* err) {
  auto tree = LoadTree(opts);
  if (!tree.ok()) {
    std::fprintf(err, "%s\n", tree.status().ToString().c_str());
    return 1;
  }
  // The two-level identity, exactly as the serving catalog derives it:
  // content_fp hashes the wire-normalized input orientation (the identity a
  // client sees on responses), struct_key hashes the canonical orientation
  // (the identity the caches, fold compiler, and shard router key on). Two
  // inputs differing only by commutative child order print different
  // content lines but the same struct_key and canonical lines.
  auto identity = TreeCatalog::ComputeIdentity(std::move(*tree));
  if (!identity.ok()) {
    std::fprintf(err, "%s\n", identity.status().ToString().c_str());
    return 1;
  }
  std::fprintf(out, "content_fp %s\n", HashToHex(identity->content_fp).c_str());
  std::fprintf(out, "struct_key %s\n", HashToHex(identity->struct_key).c_str());
  std::fprintf(out, "content %s\n", identity->content.c_str());
  std::fprintf(out, "canonical %s\n", identity->canonical_bytes.c_str());
  return 0;
}

int CmdMarginals(const CliOptions& opts, std::FILE* out, std::FILE* err) {
  auto tree = LoadTree(opts);
  if (!tree.ok()) {
    std::fprintf(err, "%s\n", tree.status().ToString().c_str());
    return 1;
  }
  std::fprintf(out, "key presence_probability\n");
  // Shortest round-trip formatting (shared with the serve wire): strtod of
  // the printed value reproduces the computed double bitwise, where "%.6f"
  // silently truncated it.
  for (KeyId key : tree->Keys()) {
    std::fprintf(out, "%d %s\n", key,
                 FormatRoundTripDouble(tree->KeyMarginal(key)).c_str());
  }
  return 0;
}

int CmdWorlds(const CliOptions& opts, std::FILE* out, std::FILE* err) {
  auto tree = LoadTree(opts);
  if (!tree.ok()) {
    std::fprintf(err, "%s\n", tree.status().ToString().c_str());
    return 1;
  }
  auto worlds = EnumerateWorlds(*tree, opts.max_worlds);
  if (!worlds.ok()) {
    std::fprintf(err, "%s\n", worlds.status().ToString().c_str());
    return 1;
  }
  std::sort(worlds->begin(), worlds->end(),
            [](const World& a, const World& b) { return a.prob > b.prob; });
  for (const World& w : *worlds) {
    std::fprintf(out, "%s ", FormatRoundTripDouble(w.prob).c_str());
    PrintWorld(*tree, w.leaf_ids, out);
    std::fprintf(out, "\n");
  }
  return 0;
}

int CmdSample(const CliOptions& opts, std::FILE* out, std::FILE* err) {
  auto tree = LoadTree(opts);
  if (!tree.ok()) {
    std::fprintf(err, "%s\n", tree.status().ToString().c_str());
    return 1;
  }
  Rng rng(opts.seed);
  for (int i = 0; i < opts.count; ++i) {
    PrintWorld(*tree, SampleWorld(*tree, &rng), out);
    std::fprintf(out, "\n");
  }
  return 0;
}

int CmdConsensusWorld(const CliOptions& opts, std::FILE* out, std::FILE* err) {
  auto tree = LoadTree(opts);
  if (!tree.ok()) {
    std::fprintf(err, "%s\n", tree.status().ToString().c_str());
    return 1;
  }
  if (opts.threads < 0) {
    std::fprintf(err, "--threads must be >= 0 (0 = all hardware cores)\n");
    return 1;
  }
  if (opts.answer != "mean" && opts.answer != "median") {
    std::fprintf(err, "unknown --answer=%s (expected mean or median)\n",
                 opts.answer.c_str());
    return 1;
  }
  std::vector<NodeId> world;
  double expected = 0.0;
  if (opts.metric == "symdiff") {
    // The engine's world entry point, as serve's op=world: one marginal
    // pass serves both the answer and its expected distance.
    Engine engine = MakeEngine(opts);
    Result<Engine::WorldResult> result = engine.ConsensusWorldWithMarginals(
        *tree, engine.LeafMarginals(*tree), opts.answer == "median");
    if (!result.ok()) {
      std::fprintf(err, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    world = std::move(result->leaf_ids);
    expected = result->expected_distance;
  } else if (opts.metric == "jaccard") {
    Result<std::vector<NodeId>> result =
        opts.answer == "median" && IsBlockIndependent(*tree) &&
                !IsTupleIndependent(*tree)
            ? MedianWorldJaccardBid(*tree)
            : MeanWorldJaccard(*tree);
    if (!result.ok()) {
      std::fprintf(err, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    world = *result;
    expected = ExpectedJaccardDistance(*tree, world);
  } else {
    std::fprintf(err, "unknown --metric=%s (expected symdiff or jaccard)\n",
                 opts.metric.c_str());
    return 1;
  }
  std::fprintf(out, "%s world under %s, E[distance] = %s:\n",
               opts.answer.c_str(), opts.metric.c_str(),
               FormatRoundTripDouble(expected).c_str());
  PrintWorld(*tree, world, out);
  std::fprintf(out, "\n");
  return 0;
}

int CmdTopK(const CliOptions& opts, std::FILE* out, std::FILE* err) {
  auto tree = LoadTree(opts);
  if (!tree.ok()) {
    std::fprintf(err, "%s\n", tree.status().ToString().c_str());
    return 1;
  }
  if (opts.k < 1) {
    std::fprintf(err, "--k must be >= 1\n");
    return 1;
  }
  if (opts.threads < 0) {
    std::fprintf(err, "--threads must be >= 0 (0 = all hardware cores)\n");
    return 1;
  }
  Result<TopKAnswer> answer = ParseTopKAnswerName(opts.answer);
  if (!answer.ok()) {
    std::fprintf(err, "%s\n", answer.status().ToString().c_str());
    return 1;
  }
  Engine engine = MakeEngine(opts);
  if (opts.metric == "all") {
    // All four metrics' mean answers over the same tree: one rank
    // distribution fold feeds every metric's tail.
    if (*answer != TopKAnswer::kMean) {
      std::fprintf(err,
                   "--metric=all runs the mean answers only, got --answer=%s\n",
                   opts.answer.c_str());
      return 1;
    }
    const RankDistribution dist = engine.ComputeRankDistribution(*tree, opts.k);
    for (TopKMetric metric : {TopKMetric::kSymDiff, TopKMetric::kIntersection,
                              TopKMetric::kFootrule, TopKMetric::kKendall}) {
      Result<TopKResult> result =
          engine.ConsensusTopKWithDist(*tree, dist, metric);
      if (!result.ok()) {
        std::fprintf(err, "%s: %s\n", TopKMetricName(metric),
                     result.status().ToString().c_str());
        return 1;
      }
      std::fprintf(out, "top-%d (%s, mean): [", opts.k, TopKMetricName(metric));
      for (KeyId key : result->keys) std::fprintf(out, " %d", key);
      std::fprintf(out, " ]  E[distance] = %s\n",
                   FormatRoundTripDouble(result->expected_distance).c_str());
    }
    return 0;
  }
  Result<TopKMetric> metric = ParseTopKMetricName(opts.metric);
  if (!metric.ok()) {
    std::fprintf(err,
                 "unknown --metric=%s (expected symdiff, intersection, "
                 "footrule or kendall)\n",
                 opts.metric.c_str());
    return 1;
  }
  // An unsupported (metric, answer) pair fails here with serve's message.
  Result<TopKResult> result =
      engine.ConsensusTopK(*tree, opts.k, *metric, *answer);
  if (!result.ok()) {
    std::fprintf(err, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::fprintf(out, "top-%d (%s, %s): [", opts.k, opts.metric.c_str(),
               opts.answer.c_str());
  for (KeyId key : result->keys) std::fprintf(out, " %d", key);
  std::fprintf(out, " ]  E[distance] = %s\n",
               FormatRoundTripDouble(result->expected_distance).c_str());
  return 0;
}

// Reads one input line (up to '\n' or EOF, newline not included). Returns
// false at end of input. Incremental on purpose: the streaming serve mode
// must not read request N+1 before answering request N.
bool ReadLine(std::FILE* in, std::string* line) {
  line->clear();
  int c;
  while ((c = std::fgetc(in)) != EOF) {
    if (c == '\n') return true;
    line->push_back(static_cast<char>(c));
  }
  return !line->empty();
}

// Reads the rest of the input and splits it into the lines ReadLine would
// return one by one. Batch serve reads everything before answering anything.
std::vector<std::string> ReadAllLines(std::FILE* in) {
  std::string input;
  char chunk[1 << 16];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), in)) > 0) {
    input.append(chunk, n);
  }
  std::vector<std::string> lines;
  size_t begin = 0;
  for (size_t end; (end = input.find('\n', begin)) != std::string::npos;
       begin = end + 1) {
    lines.emplace_back(input, begin, end - begin);
  }
  if (begin < input.size()) lines.emplace_back(input, begin);
  return lines;
}

// The least request lines (or answers) one pool unit of batch serve's parse
// (or format) carries. On a 4-vCPU VM (Release, heavy_sharded seed 1 lines
// on serve's --threads=4 --shards=4 pool, medians of 41 interleaved runs) a
// line parses in 0.9 µs and an answer formats in 0.8-0.9 µs, against 4 µs
// for an empty four-unit loop: 2,561 lines parsed in four units in 976 µs
// against 2,544 µs in one (formats 808 against 2,223 µs), 256 lines in two
// units in 135-158 µs against 223-258 µs, and 64 lines in 41-45 µs against
// 57-60 µs. A unit of 128 lines (about 110 µs) pays for its handoff many
// times over, and a batch below 256 lines, such as cold_batch's 194, stays
// on the calling thread.
constexpr int64_t kMinServeLinesPerPoolUnit = 128;

// Runs body(0) ... body(n - 1) in the FanOutUnits(n, n, pool size,
// kMinServeLinesPerPoolUnit) contiguous runs of indices on `pool`; a run is
// one ParallelFor index. Every body writes its own slot, so no result
// depends on the split.
void FanOutLines(ThreadPool* pool, int64_t n,
                 const std::function<void(int64_t)>& body) {
  const int64_t units =
      FanOutUnits(n, n, pool->num_threads(), kMinServeLinesPerPoolUnit);
  pool->ParallelFor(units, [&](int64_t u) {
    for (int64_t i = n * u / units; i < n * (u + 1) / units; ++i) body(i);
  });
}

// The serve command: reads one request per line (the protocol of
// io/request_protocol.h) and answers through a QueryScheduler over
// --shards=N (engine, catalog, cache) contexts, default 1, partitioned by
// tree shape, splitting --threads evenly across the shard engines, which
// borrow the scheduler's one pool (the --catalog decode runs on it too, so
// serve starts its threads in one place). Answers
// are bitwise identical in every configuration; only throughput and, with
// N > 1, the stats breakdown change.
// Two execution modes:
//
//   batch (default)  — the whole input is one scheduler batch: catalog
//       loads apply first (queries may reference trees loaded later in the
//       input), shared folds are deduplicated through the caches, and one
//       response line per request is written at the end, in input order.
//   --stream         — each request executes as it is read and its
//       response line is flushed before the next line is read, so a client
//       on a pipe sees answer N while composing request N+1. Requests
//       execute strictly in input order: a query may only reference trees
//       loaded earlier, and op=stats reports counters as of its line.
//
// In both modes request-level garbage produces an in-band error line for
// that request only; the command keeps serving the rest.
int CmdServe(const CliOptions& opts, std::FILE* out, std::FILE* err) {
  if (opts.threads < 0) {
    std::fprintf(err, "--threads must be >= 0 (0 = all hardware cores)\n");
    return 1;
  }
  std::FILE* in = stdin;
  std::FILE* owned_in = nullptr;
  if (!opts.input_path.empty() && opts.input_path != "-") {
    owned_in = std::fopen(opts.input_path.c_str(), "r");
    if (owned_in == nullptr) {
      std::fprintf(err, "IO error: cannot open '%s'\n",
                   opts.input_path.c_str());
      return 1;
    }
    in = owned_in;
  }

  SchedulerOptions scheduler_options;
  scheduler_options.cache_budget_bytes = opts.cache_budget;
  scheduler_options.enable_metrics = opts.metrics;

  EngineOptions engine_options;
  engine_options.num_threads =
      QueryScheduler::ThreadsPerShard(opts.threads, opts.shards);
  QueryScheduler scheduler(opts.shards, engine_options, scheduler_options);

  // Warm restart: install the snapshot before reading any request. A
  // missing, unreadable, or corrupt snapshot is a *startup error* — the
  // operator asked for a warm catalog, so silently serving cold (and
  // answering every query with "no catalog tree named ...") would be the
  // silently-misread failure mode the strict flag parses exist to prevent.
  // The records decode on the scheduler's pool (see DecodeCatalogSnapshot).
  if (!opts.catalog_path.empty()) {
    Result<CatalogSnapshot> snapshot =
        ReadCatalogSnapshotFile(opts.catalog_path, scheduler.pool());
    Status installed = snapshot.ok()
                           ? scheduler.InstallSnapshot(std::move(*snapshot))
                           : snapshot.status();
    if (!installed.ok()) {
      std::fprintf(err, "catalog error: cannot load '%s': %s\n",
                   opts.catalog_path.c_str(), installed.ToString().c_str());
      if (owned_in != nullptr) std::fclose(owned_in);
      return 1;
    }
  }

  // The transport's own instrumentation: parse and format stages record
  // into the scheduler's front-end registry, and the slow-query log reads
  // the side-band timing off each answered response. All of it is inert
  // when metrics are off.
  ServeInstruments* instruments = scheduler.instruments();
  const Clock* clk = instruments != nullptr ? scheduler.clock() : nullptr;
  const int64_t slow_nanos =
      opts.slow_query_set ? opts.slow_query_ms * 1000000 : -1;
  // Logs one stderr line for an answered request that ran longer than the
  // threshold: line number, total and per-stage times, and the raw request
  // echoed through EscapeFieldValue (a hostile request must not be able to
  // forge log lines). Strictly side-band — stdout bytes never change.
  auto maybe_log_slow = [&](size_t request_line_number,
                            const std::string& raw_request,
                            const ServiceResponse& response) {
    if (slow_nanos < 0 || response.timing.total_ns <= slow_nanos) return;
    std::fprintf(err, "%s\n",
                 FormatSlowQueryLine(static_cast<int64_t>(request_line_number),
                                     raw_request, response.timing)
                     .c_str());
  };

  int failed = 0;
  if (opts.stream) {
    // Streaming: the scheduler pulls requests through `next` — which
    // parses lines, reporting garbage in-band without surfacing a request
    // — and every response is written and flushed by `emit` before the
    // next line is read. `line_number` always names the line of the
    // request currently in flight, so emit's error lines attribute
    // correctly.
    size_t line_number = 0;
    std::string current_raw;  // the in-flight request's text, for the log
    auto next = [&](ServiceRequest* request) -> bool {
      std::string text;
      while (ReadLine(in, &text)) {
        ++line_number;
        Stopwatch parse_watch(clk);
        Result<RequestLine> line = ParseRequestLine(text);
        if (line.ok() && line->fields.empty()) continue;
        Result<ServiceRequest> mapped =
            line.ok() ? ServiceRequestFromLine(*line)
                      : Result<ServiceRequest>(line.status());
        if (instruments != nullptr) {
          instruments->stage_parse->Record(parse_watch.ElapsedNanos());
        }
        if (!mapped.ok()) {
          std::fprintf(out, "%s",
                       FormatErrorLine(line_number, mapped.status()).c_str());
          std::fflush(out);
          ++failed;
          continue;
        }
        current_raw = text;
        *request = *std::move(mapped);
        return true;
      }
      return false;
    };
    auto emit = [&](const Result<ServiceResponse>& response) {
      if (!response.ok()) {
        std::fprintf(out, "%s",
                     FormatErrorLine(line_number, response.status()).c_str());
        ++failed;
      } else {
        Stopwatch format_watch(clk);
        const std::string rendered =
            FormatResponseLine(ResponseToFields(*response));
        if (instruments != nullptr) {
          instruments->stage_format->Record(format_watch.ElapsedNanos());
        }
        std::fprintf(out, "%s", rendered.c_str());
        maybe_log_slow(line_number, current_raw, *response);
      }
      std::fflush(out);
    };
    scheduler.ExecuteStreaming(next, emit);
  } else {
    // Batch: read every line, then tokenize and type them on the
    // scheduler's pool, each line into its own slot; comment and blank
    // lines fill none and produce no response. A line's number is its
    // index + 1. Requests move into the batch in line order.
    const std::vector<std::string> lines = ReadAllLines(in);
    std::vector<std::optional<Result<ServiceRequest>>> parsed(lines.size());
    FanOutLines(scheduler.pool(), static_cast<int64_t>(lines.size()),
                [&](int64_t i) {
                  const size_t index = static_cast<size_t>(i);
                  Stopwatch parse_watch(clk);
                  Result<RequestLine> line = ParseRequestLine(lines[index]);
                  if (line.ok() && line->fields.empty()) return;
                  parsed[index].emplace(
                      line.ok() ? ServiceRequestFromLine(*line)
                                : Result<ServiceRequest>(line.status()));
                  if (instruments != nullptr) {
                    instruments->stage_parse->Record(
                        parse_watch.ElapsedNanos());
                  }
                });

    std::vector<size_t> slots;  // the line index of each response line
    std::vector<ServiceRequest> batch;
    for (size_t i = 0; i < parsed.size(); ++i) {
      if (!parsed[i].has_value()) continue;
      slots.push_back(i);
      if (parsed[i]->ok()) batch.push_back(std::move(**parsed[i]));
    }
    const std::vector<Result<ServiceResponse>> results =
        scheduler.ExecuteBatch(batch);

    // Answers render on the pool, each into its own string; the lines are
    // written, and errors and the slow-query log reported, in slot order
    // on this thread.
    std::vector<std::string> rendered(results.size());
    FanOutLines(scheduler.pool(), static_cast<int64_t>(results.size()),
                [&](int64_t j) {
                  const Result<ServiceResponse>& result =
                      results[static_cast<size_t>(j)];
                  if (!result.ok()) return;
                  Stopwatch format_watch(clk);
                  rendered[static_cast<size_t>(j)] =
                      FormatResponseLine(ResponseToFields(*result));
                  if (instruments != nullptr) {
                    instruments->stage_format->Record(
                        format_watch.ElapsedNanos());
                  }
                });
    size_t cursor = 0;
    for (size_t i : slots) {
      const Result<ServiceRequest>& request = *parsed[i];
      if (!request.ok()) {
        std::fprintf(out, "%s",
                     FormatErrorLine(i + 1, request.status()).c_str());
        ++failed;
        continue;
      }
      const size_t j = cursor++;
      if (!results[j].ok()) {
        std::fprintf(out, "%s",
                     FormatErrorLine(i + 1, results[j].status()).c_str());
        ++failed;
        continue;
      }
      std::fwrite(rendered[j].data(), 1, rendered[j].size(), out);
      maybe_log_slow(i + 1, lines[i], *results[j]);
    }
    // The transcript is complete: hand it to the client now, not at exit
    // after the catalog save and the scheduler's teardown.
    std::fflush(out);
  }
  if (owned_in != nullptr) std::fclose(owned_in);

  // Persist the live catalog (and the retained rank distributions, so the
  // next process's first batch hits warm) after all requests are answered.
  // A failed save is a failed serve: the operator asked for durability.
  if (!opts.save_catalog_path.empty()) {
    CatalogSnapshot snapshot =
        scheduler.BuildSnapshot(/*include_distributions=*/true);
    Status saved = WriteCatalogSnapshotFile(opts.save_catalog_path, snapshot);
    if (!saved.ok()) {
      std::fprintf(err, "catalog error: cannot save '%s': %s\n",
                   opts.save_catalog_path.c_str(), saved.ToString().c_str());
      return 1;
    }
  }
  return failed == 0 ? 0 : 1;
}

int CmdAggregate(const CliOptions& opts, std::FILE* out, std::FILE* err) {
  auto tree = LoadTree(opts);
  if (!tree.ok()) {
    std::fprintf(err, "%s\n", tree.status().ToString().c_str());
    return 1;
  }
  // The group-by matrix build is shared with serve's op=aggregate
  // (core/aggregates.h), so both surfaces agree on the instance — and on
  // the missing-label error text, printed here without the status-code
  // prefix the pre-refactor inline build never had.
  auto instance = GroupByInstanceFromTree(*tree, tree->LeafMarginals());
  if (!instance.ok()) {
    std::fprintf(err, "%s\n", instance.status().message().c_str());
    return 1;
  }
  std::vector<double> mean = MeanAggregate(*instance);
  auto median = ClosestPossibleAggregate(*instance);
  if (!median.ok()) {
    std::fprintf(err, "%s\n", median.status().ToString().c_str());
    return 1;
  }
  std::fprintf(out, "group mean_count median_count\n");
  for (size_t j = 0; j < mean.size(); ++j) {
    std::fprintf(out, "%zu %s %lld\n", j, FormatRoundTripDouble(mean[j]).c_str(),
                 static_cast<long long>((*median)[j]));
  }
  return 0;
}

// The offline twin of serve's op=baseline: the four heuristic ranking
// semantics of core/ranking_baselines.h over one tree. The printed keys csv
// is byte-identical to the serve response's keys field for the same
// canonical-content tree: escore is a deterministic fold, erank's serve-side
// Engine::ExpectedRanks forwards to the core scan used here, and the
// distribution-backed methods (global, prf) read the
// same schedule-deterministic ComputeRankDistribution the serve cache
// memoizes.
int CmdBaseline(const CliOptions& opts, std::FILE* out, std::FILE* err) {
  auto tree = LoadTree(opts);
  if (!tree.ok()) {
    std::fprintf(err, "%s\n", tree.status().ToString().c_str());
    return 1;
  }
  if (opts.k < 1) {
    std::fprintf(err, "--k must be >= 1\n");
    return 1;
  }
  if (opts.threads < 0) {
    std::fprintf(err, "--threads must be >= 0 (0 = all hardware cores)\n");
    return 1;
  }
  std::vector<KeyId> keys;
  if (opts.method == "escore") {
    keys = TopKByExpectedScore(*tree, opts.k);
  } else if (opts.method == "erank") {
    keys = TopKByExpectedRank(*tree, opts.k);
  } else {
    Engine engine = MakeEngine(opts);
    RankDistribution dist = engine.ComputeRankDistribution(*tree, opts.k);
    keys = opts.method == "global"
               ? GlobalTopK(dist)
               : TopKByPRF(dist, PrfUpsilonHWeights(opts.k));
  }
  std::fprintf(out, "baseline %s k=%d keys=", opts.method.c_str(), opts.k);
  for (size_t i = 0; i < keys.size(); ++i) {
    std::fprintf(out, "%s%d", i == 0 ? "" : ",", keys[i]);
  }
  std::fprintf(out, "\n");
  return 0;
}

// The offline twin of serve's op=hardness: the structural statistics behind
// the paper's tractability frontier, one `name value` line per field, names
// matching the serve response fields byte for byte.
int CmdHardness(const CliOptions& opts, std::FILE* out, std::FILE* err) {
  auto tree = LoadTree(opts);
  if (!tree.ok()) {
    std::fprintf(err, "%s\n", tree.status().ToString().c_str());
    return 1;
  }
  TreeHardness h = ComputeTreeHardness(*tree);
  std::fprintf(out, "nodes %lld\n", static_cast<long long>(h.nodes));
  std::fprintf(out, "leaves %lld\n", static_cast<long long>(h.leaves));
  std::fprintf(out, "keys %lld\n", static_cast<long long>(h.keys));
  std::fprintf(out, "dup_keys %lld\n",
               static_cast<long long>(h.duplicated_keys));
  std::fprintf(out, "max_leaves_per_key %lld\n",
               static_cast<long long>(h.max_leaves_per_key));
  std::fprintf(out, "tuple_independent %d\n", h.tuple_independent ? 1 : 0);
  std::fprintf(out, "block_independent %d\n", h.block_independent ? 1 : 0);
  return 0;
}

}  // namespace

std::string CliUsage() {
  return
      "usage: cpdb_cli <command> <input-file> [flags]\n"
      "\n"
      "commands:\n"
      "  validate         check the input against the model constraints\n"
      "  dump-flat        print the compiled FlatTree record table (the\n"
      "                   instruction stream and leaf table the hot\n"
      "                   generating-function fold executes)\n"
      "  dump-canon       print the tree's two-level identity: content_fp\n"
      "                   (hash of the wire-normalized input), struct_key\n"
      "                   (hash of the canonical orientation), and both\n"
      "                   orientations' one-line forms\n"
      "  marginals        per-key presence probabilities\n"
      "  worlds           enumerate possible worlds (most likely first)\n"
      "  sample           draw random worlds (--count, --seed)\n"
      "  consensus-world  --metric=symdiff|jaccard --answer=mean|median\n"
      "  topk             --k=K --metric=symdiff|intersection|footrule|kendall\n"
      "                   (--metric=all prints every metric's mean answer\n"
      "                   from one rank-distribution fold)\n"
      "                   --answer=mean|median|approx|any-size\n"
      "  aggregate        consensus group-by COUNT over the label attribute\n"
      "  baseline         --k=K --method=escore|erank|global|prf: the\n"
      "                   heuristic ranking semantics the consensus answers\n"
      "                   are compared against (expected score, expected\n"
      "                   rank, global top-k, PRF-upsilon with harmonic\n"
      "                   weights)\n"
      "  hardness         structural hardness statistics: node/leaf/key\n"
      "                   counts, key duplication (the signal behind the\n"
      "                   paper's tractability frontier), independence\n"
      "                   shape flags\n"
      "  serve            answer requests read from the input file (or\n"
      "                   stdin when omitted or '-'), one request per line:\n"
      "                     op=load name=T file=PATH [format=tree|bid]\n"
      "                     op=topk tree=T k=K [metric=...] [answer=...]\n"
      "                     op=world tree=T [answer=mean|median]\n"
      "                     op=stats\n"
      "                     op=metrics [format=kv|prom]\n"
      "                     op=marginals tree=T\n"
      "                     op=aggregate tree=T\n"
      "                     op=baseline tree=T k=K [method=escore|erank|\n"
      "                       global|prf]\n"
      "                     op=hardness tree=T\n"
      "                   any request may add trace=on to receive side-band\n"
      "                   trace_*_ns timing fields on its response line\n"
      "                   (answer fields are bitwise identical either way);\n"
      "                   one tab-separated response line per request; rank\n"
      "                   distributions are cached by (structural key, k)\n"
      "                   and leaf marginals by structural key across\n"
      "                   requests, so trees differing only by commutative\n"
      "                   child order share cache entries.\n"
      "                   Default is batch mode (the whole input is one\n"
      "                   scheduler batch; loads apply before queries);\n"
      "                   --stream answers each request as it is read.\n"
      "                   Exits 0 when every request succeeded, 1 otherwise\n"
      "                   (failures are reported in-band as error lines).\n"
      "  help             print this message\n"
      "\n"
      "flags:\n"
      "  --format=tree|bid   input format (default tree: s-expression;\n"
      "                      bid: 'key prob score [label]' lines)\n"
      "  --max-worlds=N      enumeration guard for `worlds` (default 4096)\n"
      "  (integer flags are parsed strictly: '--k=1o' is an error, not 1)\n"
      "  --threads=N         evaluation threads for topk, consensus-world,\n"
      "                      baseline and serve (one pool for its shards,\n"
      "                      the --catalog decode and the batch parse and\n"
      "                      format; default 1; 0 = all hardware cores;\n"
      "                      results are independent of N)\n"
      "  --method=M          baseline only: escore (expected score), erank\n"
      "                      (expected rank), global (global top-k) or prf\n"
      "                      (PRF-upsilon with harmonic weights; default\n"
      "                      escore)\n"
      "  --cache-budget=B    serve only: byte budget for each of the\n"
      "                      rank-distribution, marginals and precompute\n"
      "                      (kendall mean, symdiff median, expected\n"
      "                      ranks) caches; retained entries are\n"
      "                      LRU-evicted to fit (default unbounded; 0\n"
      "                      retains nothing; answers are bitwise\n"
      "                      independent of the budget)\n"
      "  --stream            serve only: flush one response line per\n"
      "                      request instead of batching the whole input;\n"
      "                      queries see only trees loaded earlier in the\n"
      "                      stream\n"
      "  --shards=N          serve only: partition requests across N\n"
      "                      engine shards by structural key (default 1;\n"
      "                      each shard engine gets max(1, threads/N)\n"
      "                      threads, so N > threads raises the pool to\n"
      "                      N; a --cache-budget applies to each shard's\n"
      "                      caches, so retained bytes scale with N;\n"
      "                      answers are bitwise identical for any N;\n"
      "                      with N > 1 op=stats adds per-shard breakdown\n"
      "                      fields)\n"
      "  --catalog=FILE      serve only: load a catalog snapshot (format v3,\n"
      "                      as --save-catalog writes) before reading\n"
      "                      requests — the warm-restart path. A missing or\n"
      "                      corrupt snapshot, or one of another format\n"
      "                      version, is a startup error, never a silent\n"
      "                      cold start. Answers are bitwise identical to\n"
      "                      loading the same trees via op=load lines\n"
      "  --save-catalog=FILE serve only: after answering all requests,\n"
      "                      write the catalog (and the retained rank\n"
      "                      distributions, so the next process's first\n"
      "                      batch hits warm) as a checksummed snapshot\n"
      "  --metrics=on|off    serve only: the metrics registry behind\n"
      "                      op=metrics (default on; off disables all\n"
      "                      timing reads and makes op=metrics an error;\n"
      "                      answers are bitwise identical either way)\n"
      "  --slow-query-ms=T   serve only, requires --metrics=on: log every\n"
      "                      answered request slower than T milliseconds\n"
      "                      to stderr with its per-stage timing and the\n"
      "                      escaped request text (T=0 logs every request;\n"
      "                      stdout bytes never change)\n";
}

int RunCli(const std::vector<std::string>& args, std::FILE* out,
           std::FILE* err) {
  auto opts = ParseArgs(args);
  if (!opts.ok()) {
    std::fprintf(err, "%s\n%s", opts.status().ToString().c_str(),
                 CliUsage().c_str());
    return 2;
  }
  const std::string& cmd = opts->command;
  if (cmd == "help") {
    std::fprintf(out, "%s", CliUsage().c_str());
    return 0;
  }
  if (cmd == "validate") return CmdValidate(*opts, out, err);
  if (cmd == "dump-flat") return CmdDumpFlat(*opts, out, err);
  if (cmd == "dump-canon") return CmdDumpCanon(*opts, out, err);
  if (cmd == "marginals") return CmdMarginals(*opts, out, err);
  if (cmd == "worlds") return CmdWorlds(*opts, out, err);
  if (cmd == "sample") return CmdSample(*opts, out, err);
  if (cmd == "consensus-world") return CmdConsensusWorld(*opts, out, err);
  if (cmd == "topk") return CmdTopK(*opts, out, err);
  if (cmd == "serve") return CmdServe(*opts, out, err);
  if (cmd == "aggregate") return CmdAggregate(*opts, out, err);
  if (cmd == "baseline") return CmdBaseline(*opts, out, err);
  if (cmd == "hardness") return CmdHardness(*opts, out, err);
  std::fprintf(err, "unknown command '%s'\n%s", cmd.c_str(),
               CliUsage().c_str());
  return 2;
}

}  // namespace cpdb
