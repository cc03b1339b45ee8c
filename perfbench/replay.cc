// Copyright 2026 The ConsensusDB Authors
//
// cpdb_perfbench — the C++ half of the serve benchmark (perfbench/run.py runs
// it). Four subcommands, all run from the repository root:
//
//   coverage --seed=S
//       Fails unless the workloads together issue every OpRegistry op
//       and every (metric, answer) pair Engine::ValidateConsensusRequest
//       accepts.
//
//   gen --workload=W --seed=S --dir=D
//       Generates workload W's inputs for seed S into D with the library's
//       own generators (workload/generators.h) and snapshot encoder
//       (EncodeCatalogSnapshot): tree files, a catalog snapshot carrying
//       rank distributions, the request file, and plan.json (the serve
//       flags run.py starts `cpdb_cli serve` with).
//       The same seed always produces the same bytes.
//
//   spawn --rusage=FILE -- PROGRAM ARGS...
//       Runs PROGRAM as a child (stdin/stdout inherited), waits for it, and
//       writes its user and system seconds and peak RSS in KiB to FILE;
//       exits with its exit code. run.py starts serve through this: a
//       child's ru_maxrss starts from the RSS of the process that forked it,
//       so only a small parent reports serve's own peak.
//
//   replay --workload=W --dir=D --trace=0|1
//       Replays D's requests in process, on an engine with serve's thread
//       count, through each layer's public functions — request grammar,
//       catalog, caches, engine fold, the OpRegistry execute and format
//       hooks serve itself runs — and writes D/expected.txt: the response line serve
//       must print for every request ("*" for stats/metrics, whose counters
//       are not answers). With --trace=1 it replays a second time with spans
//       recorded at every layer boundary, keeps them in memory, writes them
//       to D/spans.json at the end, and prints the per-layer metrics.
//
// Span model: each request owns a root span "request"; layer spans nest
// under it on the calling thread. A span's self time is its duration minus
// the part its child spans cover, and the replay checks that no request's
// layer self times sum to more than the request's total.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <signal.h>
#include <unistd.h>

#include "common/hash.h"
#include "common/result.h"
#include "common/rng.h"
#include "core/topk_metrics.h"
#include "engine/engine.h"
#include "io/request_protocol.h"
#include "io/table_io.h"
#include "io/tree_text.h"
#include "model/flat_tree.h"
#include "service/catalog_snapshot.h"
#include "service/marginals_cache.h"
#include "service/op_registry.h"
#include "service/query_scheduler.h"
#include "service/rank_dist_cache.h"
#include "service/sharded_scheduler.h"
#include "service/tree_catalog.h"
#include "workload/generators.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace cpdb {
namespace {

// ---------------------------------------------------------------------------
// Workloads. Serve always runs with --threads=kThreads.

constexpr int kThreads = 4;

// The shard count service.shard.imbalance is computed for: heavy_sharded's
// own, and on the unsharded workload the split a 4-shard front end would
// see.
constexpr int kImbalanceShards = 4;

// Each workload is one batch: every request written, stdin closed, then
// every response read.
struct WorkloadSpec {
  const char* name;
  int shards;            // serve --shards (0 = the unsharded scheduler)
  int64_t cache_budget;  // serve --cache-budget (kUnboundedCacheBytes = off)
  bool catalog;          // serve --catalog=<generated snapshot>
};

const WorkloadSpec kWorkloads[] = {
    // 48 KiB holds a handful of the ~100 rank distributions the batch
    // folds, far below its working set.
    {"cold_batch", 0, 48 * 1024, false},
    {"heavy_sharded", 4, kUnboundedCacheBytes, true},
};

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Small helpers.

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  return FormatRoundTripDouble(value);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

Result<std::vector<std::string>> ReadLines(const std::string& path) {
  CPDB_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  std::vector<std::string> lines;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

std::string JoinLines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  return text;
}

// ---------------------------------------------------------------------------
// gen

// Draws RandomAndXorTree shapes until one has a leaf count inside
// [min_leaves, max_leaves]: the seed changes the trees, not their size, so
// per-request cost (and with it every timing) stays comparable across seeds.
Result<AndXorTree> DrawShape(const RandomTreeOptions& options, int min_leaves,
                             int max_leaves, Rng* rng) {
  for (int attempt = 0; attempt < 100000; ++attempt) {
    CPDB_ASSIGN_OR_RETURN(AndXorTree tree, RandomAndXorTree(options, rng));
    if (tree.NumLeaves() >= min_leaves && tree.NumLeaves() <= max_leaves) {
      return tree;
    }
  }
  return Status::Internal("no shape in the leaf band after 100000 draws");
}

NodeId CopyPermuted(const AndXorTree& src, NodeId id, AndXorTree* dst,
                    Rng* rng) {
  const TreeNode& node = src.node(id);
  if (node.kind == NodeKind::kLeaf) return dst->AddLeaf(node.leaf);
  std::vector<size_t> order(node.children.size());
  std::iota(order.begin(), order.end(), 0);
  rng->Shuffle(&order);
  std::vector<NodeId> children;
  std::vector<double> probs;
  for (size_t i : order) {
    children.push_back(CopyPermuted(src, node.children[i], dst, rng));
    if (node.kind == NodeKind::kXor) probs.push_back(node.edge_probs[i]);
  }
  return node.kind == NodeKind::kAnd
             ? dst->AddAnd(std::move(children))
             : dst->AddXor(std::move(children), std::move(probs));
}

// A commutative permutation of `tree` (AND/XOR children shuffled): a new
// content fingerprint over the same structural key.
Result<AndXorTree> PermutedCopy(const AndXorTree& tree, Rng* rng) {
  const std::string original = FormatTree(tree);
  AndXorTree copy;
  for (int attempt = 0; attempt < 16; ++attempt) {
    copy = AndXorTree();
    copy.SetRoot(CopyPermuted(tree, tree.root(), &copy, rng));
    CPDB_RETURN_NOT_OK(copy.Validate());
    if (FormatTree(copy) != original) break;
  }
  return copy;
}

std::string TopKLine(const std::string& tree, int k, const char* metric,
                     const char* answer) {
  return "op=topk tree=" + tree + " k=" + std::to_string(k) +
         " metric=" + metric + " answer=" + answer;
}

std::string BaselineLine(const std::string& tree, int k, const char* method) {
  return "op=baseline tree=" + tree + " k=" + std::to_string(k) +
         " method=" + method;
}

struct GenOutput {
  std::vector<std::pair<std::string, AndXorTree>> snapshot_trees;
  std::vector<std::pair<std::string, int>> snapshot_dists;  // (name, k)
  std::vector<std::pair<std::string, AndXorTree>> tree_files;
  std::vector<std::string> requests;
};

// cold_batch: loads of deep and wide trees (a quarter of them commutative
// permutations of earlier shapes), then one request per distinct (shape, k)
// plus one world and one analytics request per shape, so almost every fold
// is a miss.
Status GenColdBatch(Rng* rng, GenOutput* out) {
  constexpr int kLoads = 48;
  RandomTreeOptions deep;
  deep.num_keys = 24;
  deep.max_depth = 5;
  deep.max_alternatives = 2;
  RandomTreeOptions wide;
  wide.num_keys = 64;
  wide.max_depth = 2;
  wide.max_alternatives = 3;
  std::vector<AndXorTree> shapes;
  std::vector<std::vector<std::string>> names_of_shape;
  for (int i = 0; i < kLoads; ++i) {
    const std::string name = "c" + std::to_string(i);
    if (i % 4 == 3) {
      const size_t origin = static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(shapes.size()) - 1));
      CPDB_ASSIGN_OR_RETURN(AndXorTree copy,
                            PermutedCopy(shapes[origin], rng));
      names_of_shape[origin].push_back(name);
      out->tree_files.emplace_back(name, std::move(copy));
      continue;
    }
    const bool is_deep = shapes.size() % 2 == 0;
    CPDB_ASSIGN_OR_RETURN(AndXorTree tree,
                          is_deep ? DrawShape(deep, 100, 110, rng)
                                  : DrawShape(wide, 160, 170, rng));
    names_of_shape.push_back({name});
    out->tree_files.emplace_back(name, tree);
    shapes.push_back(std::move(tree));
  }
  constexpr const char* kTopK[][2] = {{"symdiff", "mean"},
                                      {"intersection", "approx"},
                                      {"footrule", "mean"},
                                      {"symdiff", "any-size"},
                                      {"intersection", "mean"}};
  int request = 0;
  for (size_t s = 0; s < shapes.size(); ++s) {
    const std::vector<std::string>& names = names_of_shape[s];
    auto pick = [&]() {
      return names[static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(names.size()) - 1))];
    };
    for (int k : {4, 8}) {
      if (request % 3 == 2) {
        out->requests.push_back(BaselineLine(pick(), k, "global"));
      } else {
        const auto& pair = kTopK[request % 5];
        out->requests.push_back(TopKLine(pick(), k, pair[0], pair[1]));
      }
      ++request;
    }
    out->requests.push_back("op=world tree=" + pick() +
                            (s % 2 == 0 ? " answer=mean" : " answer=median"));
    switch (s % 5) {
      case 0: out->requests.push_back("op=marginals tree=" + pick()); break;
      case 1: out->requests.push_back("op=aggregate tree=" + pick()); break;
      case 2: out->requests.push_back("op=hardness tree=" + pick()); break;
      case 3: out->requests.push_back(BaselineLine(pick(), 4, "escore")); break;
      default: out->requests.push_back(BaselineLine(pick(), 8, "prf")); break;
    }
  }
  out->requests.push_back("op=stats");
  out->requests.push_back("op=metrics");
  return Status::OK();
}

// heavy_sharded: the slow tails — kendall mean, symdiff median, baseline
// erank, and the exact Hungarian intersection/footrule solves — every
// (shape, k, metric) repeated twice. The shapes come from the seed alone,
// and serve routes them to its 4 shards as it would any traffic; there are
// enough of them that the busiest shard's share varies little by seed.
Status GenHeavySharded(Rng* rng, GenOutput* out) {
  constexpr int kShapes = 256;
  constexpr int kRepeats = 2;
  constexpr int kK = 5;
  RandomTreeOptions options;
  options.num_keys = 12;
  options.max_depth = 3;
  options.max_alternatives = 2;
  std::vector<std::string> names;
  for (int s = 0; s < kShapes; ++s) {
    CPDB_ASSIGN_OR_RETURN(AndXorTree tree, DrawShape(options, 42, 45, rng));
    names.push_back("h" + std::to_string(s));
    out->snapshot_trees.emplace_back(names.back(), std::move(tree));
    out->snapshot_dists.emplace_back(names.back(), kK);
  }
  for (int r = 0; r < kRepeats; ++r) {
    for (const std::string& name : names) {
      out->requests.push_back(TopKLine(name, kK, "kendall", "mean"));
      out->requests.push_back(TopKLine(name, kK, "symdiff", "median"));
      out->requests.push_back(BaselineLine(name, kK, "erank"));
      out->requests.push_back(TopKLine(name, kK, "intersection", "mean"));
      out->requests.push_back(TopKLine(name, kK, "footrule", "mean"));
    }
  }
  out->requests.push_back("op=stats");
  return Status::OK();
}

Status WritePlan(const WorkloadSpec& spec, uint64_t seed,
                 const std::string& dir, const GenOutput& gen) {
  std::vector<std::string> flags = {"serve", "-",
                                    "--threads=" + std::to_string(kThreads)};
  if (spec.shards > 0) flags.push_back("--shards=" + std::to_string(spec.shards));
  if (spec.cache_budget != kUnboundedCacheBytes) {
    flags.push_back("--cache-budget=" + std::to_string(spec.cache_budget));
  }
  if (spec.catalog) flags.push_back("--catalog=" + dir + "/catalog.snap");
  std::string json = "{\n  \"workload\": " + JsonString(spec.name) +
                     ",\n  \"seed\": " + std::to_string(seed) +
                     ",\n  \"serve_args\": [";
  for (size_t i = 0; i < flags.size(); ++i) {
    json += (i > 0 ? ", " : "") + JsonString(flags[i]);
  }
  json += "],\n  \"requests\": " + JsonString(dir + "/requests.txt") +
          ",\n  \"num_requests\": " + std::to_string(gen.requests.size()) +
          ",\n  \"num_trees\": " +
          std::to_string(gen.snapshot_trees.size() + gen.tree_files.size()) +
          "\n}\n";
  return WriteStringToFile(dir + "/plan.json", json);
}

// Workload `spec`'s inputs for `seed`; load lines name tree files under
// `dir`. Pure: nothing is written.
Result<GenOutput> Generate(const WorkloadSpec& spec, uint64_t seed,
                           const std::string& dir) {
  // Decorrelate workloads sharing a seed.
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + Fnv1a64(std::string(spec.name)));
  GenOutput gen;
  const std::string name = spec.name;
  if (name == "cold_batch") {
    CPDB_RETURN_NOT_OK(GenColdBatch(&rng, &gen));
  } else {
    CPDB_RETURN_NOT_OK(GenHeavySharded(&rng, &gen));
  }
  std::vector<std::string> loads;
  for (const auto& entry : gen.tree_files) {
    loads.push_back("op=load name=" + entry.first + " file=" + dir +
                    "/trees/" + entry.first + ".sexp");
  }
  gen.requests.insert(gen.requests.begin(), loads.begin(), loads.end());
  return gen;
}

Status Gen(const WorkloadSpec& spec, uint64_t seed, const std::string& dir) {
  CPDB_ASSIGN_OR_RETURN(GenOutput gen, Generate(spec, seed, dir));
  for (const auto& [tree_name, tree] : gen.tree_files) {
    CPDB_RETURN_NOT_OK(WriteStringToFile(dir + "/trees/" + tree_name + ".sexp",
                                         FormatTree(tree) + "\n"));
  }
  if (spec.catalog) {
    // The snapshot is what a serve process with these trees and the
    // listed (tree, k) folds retained would save: trees through the
    // catalog, distributions folded over the canonical orientation.
    Engine engine;
    TreeCatalog catalog;
    std::map<std::string, CatalogEntry> entries;
    for (const auto& [tree_name, tree] : gen.snapshot_trees) {
      CPDB_ASSIGN_OR_RETURN(CatalogEntry entry, catalog.Insert(tree_name, tree));
      entries[tree_name] = entry;
    }
    CatalogSnapshot snapshot = BuildCatalogSnapshot(catalog, nullptr);
    for (const auto& [tree_name, k] : gen.snapshot_dists) {
      const CatalogEntry& entry = entries[tree_name];
      SnapshotDistribution record;
      record.struct_key = entry.struct_key;
      record.k = k;
      record.dist = std::make_shared<const RankDistribution>(
          engine.ComputeRankDistribution(*entry.tree, k, entry.program.get()));
      snapshot.distributions.push_back(std::move(record));
    }
    CPDB_RETURN_NOT_OK(WriteCatalogSnapshotFile(dir + "/catalog.snap", snapshot));
  }
  CPDB_RETURN_NOT_OK(
      WriteStringToFile(dir + "/requests.txt", JoinLines(gen.requests)));
  return WritePlan(spec, seed, dir, gen);
}

// The coverage check: the union of every workload's requests for `seed`
// must issue every OpRegistry op and every (metric, answer) pair
// Engine::ValidateConsensusRequest accepts. Prints what is missing.
Status Coverage(uint64_t seed) {
  std::set<std::string> issued;
  for (const WorkloadSpec& spec : kWorkloads) {
    CPDB_ASSIGN_OR_RETURN(GenOutput gen, Generate(spec, seed, "."));
    for (const std::string& text : gen.requests) {
      CPDB_ASSIGN_OR_RETURN(RequestLine line, ParseRequestLine(text));
      CPDB_ASSIGN_OR_RETURN(ServiceRequest request, ServiceRequestFromLine(line));
      issued.insert(std::string("op=") + OpRegistry::Get().spec(request.op).name);
      if (request.op == ServiceRequest::Op::kTopK) {
        issued.insert(std::string("topk ") + TopKMetricName(request.metric) +
                      "/" + TopKAnswerName(request.answer));
      }
    }
  }
  std::vector<std::string> required;
  for (const OpSpec& spec : OpRegistry::Get().specs()) {
    required.push_back(std::string("op=") + spec.name);
  }
  for (TopKMetric metric : {TopKMetric::kSymDiff, TopKMetric::kIntersection,
                            TopKMetric::kFootrule, TopKMetric::kKendall}) {
    for (TopKAnswer answer : {TopKAnswer::kMean, TopKAnswer::kMedian,
                              TopKAnswer::kMeanUnrestricted,
                              TopKAnswer::kMeanApprox}) {
      if (Engine::ValidateConsensusRequest(metric, answer).ok()) {
        required.push_back(std::string("topk ") + TopKMetricName(metric) + "/" +
                           TopKAnswerName(answer));
      }
    }
  }
  std::string missing;
  for (const std::string& item : required) {
    if (issued.count(item) == 0) missing += (missing.empty() ? "" : ", ") + item;
  }
  std::printf("{\"required\": %zu, \"missing\": %s}\n", required.size(),
              JsonString(missing).c_str());
  return missing.empty() ? Status::OK()
                         : Status::InvalidArgument("not covered: " + missing);
}

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written once at the end.

struct Span {
  std::string name;
  int64_t start = 0;
  int64_t end = 0;
  int32_t parent = -1;
  int64_t request_id = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  int32_t Open(const char* name, int64_t request_id) {
    if (!enabled_) return -1;
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.request_id = request_id;
    span.start = NowNanos();
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return stack_.back();
  }

  void Close(int32_t id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end = NowNanos();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t request_id)
      : tracer_(tracer), id_(tracer->Open(name, request_id)) {}
  ~ScopedSpan() { tracer_->Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

// ---------------------------------------------------------------------------
// The layered replay: one request at a time through each layer's public
// functions, mirroring what the serve path executes for it.

std::string SolveSpanName(const ServiceRequest& request) {
  switch (request.op) {
    case ServiceRequest::Op::kTopK:
      return std::string("engine.solve.") + TopKMetricName(request.metric) +
             "_" + TopKAnswerName(request.answer);
    case ServiceRequest::Op::kWorld:
      return request.median_world ? "engine.solve.world_median"
                                  : "engine.solve.world_mean";
    case ServiceRequest::Op::kBaseline:
      return "engine.solve." + request.baseline_method;
    default:
      return std::string("engine.solve.") +
             OpRegistry::Get().spec(request.op).name;
  }
}

// An engine call that fans out over the thread pool, kept so the traced
// run can replay it at 1 and 4 threads (engine.speedup_4t).
using EngineCall = std::function<void(const Engine&)>;

// Distinct engine calls by (span name, struct key, k): the span name
// carries the op, metric, answer and baseline method.
using EngineCallKey = std::tuple<std::string, uint64_t, int>;

// An OpHost that hands a tree-addressed hook the distribution and
// marginals it got the first time, so the hook's solve can be re-run alone
// on another engine.
class FixedHost : public OpHost {
 public:
  FixedHost(const Engine* engine,
            std::shared_ptr<const RankDistribution> dist,
            std::shared_ptr<const std::vector<double>> marginals)
      : engine_(engine), dist_(std::move(dist)), marginals_(std::move(marginals)) {}

  const Engine* engine() const override { return engine_; }
  std::shared_ptr<const RankDistribution> GatedDistFor(
      const CatalogEntry&, const ServiceRequest&) override {
    return dist_;
  }
  std::shared_ptr<const RankDistribution> RankDistFor(const CatalogEntry&,
                                                      int) override {
    return dist_;
  }
  std::shared_ptr<const std::vector<double>> MarginalsFor(
      const CatalogEntry&) override {
    return marginals_;
  }
  ServiceResponse StatsNow() override { return ServiceResponse(); }
  Result<MetricsSnapshot> MetricsNow() override { return MetricsDisabledError(); }
  Result<ServiceResponse> ExecuteLoadOp(const ServiceRequest&, const Clock*,
                                        ResponseTiming*) override {
    return Status::Internal("FixedHost serves tree-addressed hooks only");
  }

 private:
  const Engine* engine_;
  std::shared_ptr<const RankDistribution> dist_;
  std::shared_ptr<const std::vector<double>> marginals_;
};

// The layered host: loads go through the layers one public function at a
// time; tree-addressed ops run serve's own OpRegistry hooks, with this
// host's cache lookups and folds wrapped in spans.
class Replayer : public OpHost {
 public:
  Replayer(const Engine* engine, int64_t cache_budget, Tracer* tracer)
      : engine_(engine),
        tracer_(tracer),
        rank_cache_(cache_budget),
        marginals_cache_(cache_budget) {}

  const Engine* engine() const override { return engine_; }

  // As QueryScheduler::DistFor: a request that can only fail gets no
  // distribution, so it never populates the cache.
  std::shared_ptr<const RankDistribution> GatedDistFor(
      const CatalogEntry& entry, const ServiceRequest& request) override {
    if (request.k < 1 ||
        !Engine::ValidateConsensusRequest(request.metric, request.answer).ok()) {
      return nullptr;
    }
    return RankDistFor(entry, request.k);
  }

  std::shared_ptr<const RankDistribution> RankDistFor(const CatalogEntry& entry,
                                                      int k) override {
    ScopedSpan span(tracer_, "service.cache", current_id_);
    fetched_dist_ = rank_cache_.GetOrCompute(entry.struct_key, k, [&] {
      NoteCall({"engine.fold.rankdist", entry.struct_key.value(), k},
               [entry, k](const Engine& engine) {
                 engine.ComputeRankDistribution(*entry.tree, k,
                                                entry.program.get());
               });
      ScopedSpan fold(tracer_, "engine.fold.rankdist", current_id_);
      return engine_->ComputeRankDistribution(*entry.tree, k,
                                              entry.program.get());
    });
    return fetched_dist_;
  }

  std::shared_ptr<const std::vector<double>> MarginalsFor(
      const CatalogEntry& entry) override {
    ScopedSpan span(tracer_, "service.cache", current_id_);
    fetched_marginals_ = marginals_cache_.GetOrCompute(entry.struct_key, [&] {
      NoteCall({"engine.fold.marginals", entry.struct_key.value(), 0},
               [entry](const Engine& engine) {
                 engine.LeafMarginals(*entry.tree, entry.program.get());
               });
      ScopedSpan fold(tracer_, "engine.fold.marginals", current_id_);
      return engine_->LeafMarginals(*entry.tree, entry.program.get());
    });
    return fetched_marginals_;
  }

  // Admin ops are not replayed (Execute answers "*" for them).
  ServiceResponse StatsNow() override { return ServiceResponse(); }
  Result<MetricsSnapshot> MetricsNow() override { return MetricsDisabledError(); }

  Result<ServiceResponse> ExecuteLoadOp(const ServiceRequest& request,
                                        const Clock*, ResponseTiming*) override {
    return Load(request, current_id_);
  }

  // Installs a decoded snapshot tree by tree — parse, canonicalize,
  // compile, insert — and seeds its distributions, as one setup request
  // per tree.
  Status InstallSnapshot(const CatalogSnapshot& snapshot, int64_t* next_id) {
    for (const SnapshotTree& record : snapshot.trees) {
      const int64_t id = (*next_id)++;
      ScopedSpan root(tracer_, "request", id);
      Result<AndXorTree> tree = [&] {
        ScopedSpan span(tracer_, "io.tree_parse", id);
        return ParseTree(record.content);
      }();
      if (!tree.ok()) return tree.status();
      CPDB_ASSIGN_OR_RETURN(CatalogEntry entry,
                            InsertTree(record.name, std::move(*tree), id));
      if (entry.content_fp != record.content_fp) {
        return Status::Internal("snapshot fingerprint mismatch");
      }
    }
    ScopedSpan seed(tracer_, "service.cache.seed", *next_id);
    for (const SnapshotDistribution& record : snapshot.distributions) {
      rank_cache_.Seed(record.struct_key, record.k, record.dist);
    }
    return Status::OK();
  }

  // The response line serve prints for `text` (no newline), or "*" for
  // admin ops.
  Result<std::string> Execute(const std::string& text, int64_t id) {
    ScopedSpan root(tracer_, "request", id);
    Result<ServiceRequest> request = [&]() -> Result<ServiceRequest> {
      ScopedSpan span(tracer_, "io.request_parse", id);
      CPDB_ASSIGN_OR_RETURN(RequestLine line, ParseRequestLine(text));
      return ServiceRequestFromLine(line);
    }();
    if (!request.ok()) return request.status();
    const OpSpec& spec = OpRegistry::Get().spec(request->op);
    if (spec.routing == OpRouting::kAdmin) return std::string("*");
    current_id_ = id;
    Result<ServiceResponse> response =
        spec.routing == OpRouting::kCatalogGlobal
            ? ExecuteLoadOp(*request, nullptr, nullptr)
            : TreeOp(spec, *request, id);
    if (!response.ok()) return response.status();
    ScopedSpan span(tracer_, "service.format", id);
    std::string line = FormatResponseLine(ResponseToFields(*response));
    line.pop_back();
    return line;
  }

  // Folds outside any request, on the first four shapes: the per-unit fold
  // cost on workloads whose requests never fold (their caches are seeded).
  void ProbeFolds(int64_t* next_id) {
    size_t probed = 0;
    for (const CatalogEntry& entry : catalog_.SnapshotEntries()) {
      if (probed++ == 4) break;
      const int64_t id = (*next_id)++;
      ScopedSpan root(tracer_, "request", id);
      {
        ScopedSpan span(tracer_, "engine.fold.rankdist", id);
        engine_->ComputeRankDistribution(*entry.tree, 5, entry.program.get());
      }
      ScopedSpan span(tracer_, "engine.fold.marginals", id);
      engine_->LeafMarginals(*entry.tree, entry.program.get());
    }
  }

  const TreeCatalog& catalog() const { return catalog_; }
  const RankDistCache& rank_cache() const { return rank_cache_; }
  const MarginalsCache& marginals_cache() const { return marginals_cache_; }
  const std::map<EngineCallKey, EngineCall>& engine_calls() const {
    return engine_calls_;
  }
  // The structural key each tree-addressed or load request touched.
  const std::map<int64_t, StructKey>& request_keys() const {
    return request_keys_;
  }

 private:
  Result<CatalogEntry> InsertTree(const std::string& name, AndXorTree tree,
                                  int64_t id) {
    Result<TreeIdentity> identity = [&] {
      ScopedSpan span(tracer_, "model.canonicalize", id);
      return TreeCatalog::ComputeIdentity(std::move(tree));
    }();
    if (!identity.ok()) return identity.status();
    request_keys_[id] = identity->struct_key;
    if (compiled_shapes_.insert(identity->struct_key.value()).second) {
      // The catalog compiles each new shape once inside its insert; this
      // standalone compile of the same canonical tree is what
      // model.compile_ns reports.
      ScopedSpan span(tracer_, "model.compile", id);
      (void)FlatTree::Compile(*identity->canonical_tree);
    }
    ScopedSpan span(tracer_, "service.catalog.insert", id);
    return catalog_.InsertWithIdentity(name, *identity);
  }

  Result<ServiceResponse> Load(const ServiceRequest& request, int64_t id) {
    Result<std::string> text = [&] {
      ScopedSpan span(tracer_, "io.file_read", id);
      return ReadFileToString(request.load_file);
    }();
    if (!text.ok()) return text.status();
    if (request.load_format != "tree") {
      return Status::InvalidArgument("the benchmark loads tree files only");
    }
    Result<AndXorTree> tree = [&] {
      ScopedSpan span(tracer_, "io.tree_parse", id);
      return ParseTree(*text);
    }();
    if (!tree.ok()) return tree.status();
    CPDB_ASSIGN_OR_RETURN(CatalogEntry entry,
                          InsertTree(request.load_name, std::move(*tree), id));
    ServiceResponse response;
    response.op = ServiceRequest::Op::kLoad;
    response.tree_name = entry.name;
    response.fingerprint = entry.content_fp;
    return response;
  }

  void NoteCall(const EngineCallKey& key, EngineCall call) {
    engine_calls_.emplace(key, std::move(call));
  }

  // Resolves the tree and runs the op's own execute_tree hook against this
  // host inside the op's solve span; the hook's cache lookups and folds
  // nest under it as child spans.
  Result<ServiceResponse> TreeOp(const OpSpec& spec,
                                 const ServiceRequest& request, int64_t id) {
    Result<CatalogEntry> looked_up = [&] {
      ScopedSpan span(tracer_, "service.catalog.lookup", id);
      return catalog_.Lookup(request.tree_name);
    }();
    if (!looked_up.ok()) return looked_up.status();
    const CatalogEntry entry = *looked_up;
    request_keys_[id] = entry.struct_key;
    const std::string solve = SolveSpanName(request);
    fetched_dist_.reset();
    fetched_marginals_.reset();
    Result<ServiceResponse> response = [&] {
      ScopedSpan span(tracer_, solve.c_str(), id);
      return spec.execute_tree(*this, entry, request, nullptr, nullptr);
    }();
    NoteCall({solve, entry.struct_key.value(), request.k},
             [&spec, entry, request, dist = fetched_dist_,
              marginals = fetched_marginals_](const Engine& engine) {
               FixedHost host(&engine, dist, marginals);
               (void)spec.execute_tree(host, entry, request, nullptr, nullptr);
             });
    return response;
  }

  const Engine* engine_;
  Tracer* tracer_;
  TreeCatalog catalog_;
  RankDistCache rank_cache_;
  MarginalsCache marginals_cache_;
  std::set<uint64_t> compiled_shapes_;
  int64_t current_id_ = 0;
  // What the current hook fetched through this host.
  std::shared_ptr<const RankDistribution> fetched_dist_;
  std::shared_ptr<const std::vector<double>> fetched_marginals_;
  std::map<EngineCallKey, EngineCall> engine_calls_;
  std::map<int64_t, StructKey> request_keys_;
};

// ---------------------------------------------------------------------------
// replay

struct Inputs {
  const WorkloadSpec* spec = nullptr;
  std::vector<std::string> lines;  // the request lines
  std::string snapshot_bytes;      // empty when the workload has none
};

bool IsAdminLine(const std::string& line) {
  return line.rfind("op=stats", 0) == 0 || line.rfind("op=metrics", 0) == 0;
}

// The order serve executes a batch in: loads first, then the fused top-k slots, then the other
// tree-addressed slots, then admin ops — so the replay's cache sees the
// same sequence of lookups.
std::vector<size_t> ExecutionOrder(const Inputs& in) {
  std::vector<size_t> order(in.lines.size());
  std::iota(order.begin(), order.end(), 0);
  auto rank = [&](size_t i) {
    const std::string& line = in.lines[i];
    if (line.rfind("op=load", 0) == 0) return 0;
    if (line.rfind("op=topk", 0) == 0) return 1;
    if (IsAdminLine(line)) return 3;
    return 2;
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return rank(a) < rank(b); });
  return order;
}

struct ReplayRun {
  std::vector<std::string> expected;  // by line index
  int64_t main_ns = 0;                // requests, setup excluded
  std::map<int64_t, std::string> phase_of_id;
};

Result<ReplayRun> RunReplay(const Inputs& in, Replayer* replayer) {
  ReplayRun run;
  int64_t next_id = static_cast<int64_t>(in.lines.size());
  if (!in.snapshot_bytes.empty()) {
    CPDB_ASSIGN_OR_RETURN(
        CatalogSnapshot snapshot,
        DecodeCatalogSnapshot(in.snapshot_bytes.data(),
                              in.snapshot_bytes.size()));
    const int64_t first = next_id;
    CPDB_RETURN_NOT_OK(replayer->InstallSnapshot(snapshot, &next_id));
    for (int64_t id = first; id <= next_id; ++id) run.phase_of_id[id] = "setup";
  }
  run.expected.assign(in.lines.size(), "");
  const int64_t start = NowNanos();
  for (size_t i : ExecutionOrder(in)) {
    const int64_t id = static_cast<int64_t>(i);
    run.phase_of_id[id] = "request";
    Result<std::string> line = replayer->Execute(in.lines[i], id);
    if (!line.ok()) {
      return Status::Internal("replay of '" + in.lines[i] +
                              "' failed: " + line.status().ToString());
    }
    run.expected[i] = *line;
  }
  run.main_ns = NowNanos() - start;
  return run;
}

// Per-span self time: duration minus the union of its children (children of
// one span run sequentially on one thread, so the union is their sum,
// clipped to the parent's interval).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end - spans[i].start;
  }
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    const Span& parent = spans[static_cast<size_t>(span.parent)];
    const int64_t covered = std::min(span.end, parent.end) -
                            std::max(span.start, parent.start);
    self[static_cast<size_t>(span.parent)] -= std::max<int64_t>(0, covered);
  }
  return self;
}

struct LayerStats {
  std::map<std::string, std::vector<double>> main;   // by span name
  std::map<std::string, std::vector<double>> probe;
  int64_t violations = 0;
  // request id -> summed durations of the root's direct children that the
  // scheduler also executes (everything but request parse, format, and
  // the standalone compile)
  std::map<int64_t, int64_t> scheduled_ns;
  std::map<int64_t, int64_t> root_ns;
};

LayerStats Aggregate(const std::vector<Span>& spans,
                     const std::map<int64_t, std::string>& phase_of_id) {
  LayerStats stats;
  const std::vector<int64_t> self = SelfTimes(spans);
  std::map<int64_t, int64_t> layer_sum;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    auto phase = phase_of_id.find(span.request_id);
    const bool probe = phase == phase_of_id.end() || phase->second == "probe";
    if (span.parent < 0) {
      stats.root_ns[span.request_id] += span.end - span.start;
      continue;
    }
    layer_sum[span.request_id] += self[i];
    (probe ? stats.probe : stats.main)[span.name].push_back(
        static_cast<double>(self[i]));
    const Span& parent = spans[static_cast<size_t>(span.parent)];
    if (parent.parent < 0 && span.name != "io.request_parse" &&
        span.name != "service.format" && span.name != "model.compile") {
      stats.scheduled_ns[span.request_id] += span.end - span.start;
    }
  }
  for (const auto& [id, sum] : layer_sum) {
    if (sum > stats.root_ns[id]) ++stats.violations;
  }
  return stats;
}

std::string SpansJson(const std::vector<Span>& spans,
                      const std::map<int64_t, std::string>& phase_of_id,
                      const Inputs& in) {
  const int64_t origin = spans.empty() ? 0 : spans.front().start;
  std::string json = "{\"requests\": [";
  bool first = true;
  for (const auto& [id, phase] : phase_of_id) {
    json += first ? "\n" : ",\n";
    first = false;
    json += "{\"id\": " + std::to_string(id) + ", \"phase\": " +
            JsonString(phase);
    if (id >= 0 && static_cast<size_t>(id) < in.lines.size()) {
      json += ", \"line\": " + JsonString(in.lines[static_cast<size_t>(id)]);
    }
    json += "}";
  }
  json += "],\n\"spans\": [";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    json += i > 0 ? ",\n" : "\n";
    json += "{\"name\": " + JsonString(span.name) +
            ", \"start\": " + std::to_string(span.start - origin) +
            ", \"end\": " + std::to_string(span.end - origin) +
            ", \"parent\": " + std::to_string(span.parent) +
            ", \"request_id\": " + std::to_string(span.request_id) + "}";
  }
  return json + "]}\n";
}

// Every solve the registry can serve: probes for the ones a workload does
// not issue itself, so each engine.solve.* metric is measured everywhere.
std::vector<std::string> ProbeLines(const std::string& tree) {
  std::vector<std::string> lines;
  const char* answers[] = {"mean", "median", "any-size", "approx"};
  for (const char* metric : {"symdiff", "intersection", "footrule", "kendall"}) {
    for (const char* answer : answers) {
      if (Engine::ValidateConsensusRequest(*ParseTopKMetricName(metric),
                                           *ParseTopKAnswerName(answer))
              .ok()) {
        lines.push_back(TopKLine(tree, 5, metric, answer));
      }
    }
  }
  lines.push_back("op=world tree=" + tree + " answer=mean");
  lines.push_back("op=world tree=" + tree + " answer=median");
  lines.push_back("op=marginals tree=" + tree);
  lines.push_back("op=aggregate tree=" + tree);
  for (const char* method : {"escore", "erank", "global", "prf"}) {
    lines.push_back(BaselineLine(tree, 5, method));
  }
  lines.push_back("op=hardness tree=" + tree);
  return lines;
}

// Times each distinct engine call once more on fresh 1- and 4-thread
// engines; the ratio of the summed best-of times is engine.speedup_4t.
double SpeedupAt4Threads(const std::map<EngineCallKey, EngineCall>& calls) {
  EngineOptions one;
  one.num_threads = 1;
  EngineOptions four;
  four.num_threads = 4;
  Engine engine1(one);
  Engine engine4(four);
  double total1 = 0.0;
  double total4 = 0.0;
  for (const auto& [key, call] : calls) {
    double best1 = 0.0;
    double best4 = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      int64_t t0 = NowNanos();
      call(engine1);
      const double t1 = static_cast<double>(NowNanos() - t0);
      t0 = NowNanos();
      call(engine4);
      const double t4 = static_cast<double>(NowNanos() - t0);
      best1 = rep == 0 ? t1 : std::min(best1, t1);
      best4 = rep == 0 ? t4 : std::min(best4, t4);
      if (t1 > 2e7) break;  // one repetition of a 20 ms call is enough
    }
    total1 += best1;
    total4 += best4;
  }
  return total4 > 0.0 ? total1 / total4 : 0.0;
}

double HitRatio(const CacheStats& stats) {
  const int64_t lookups = stats.hits + stats.misses + stats.coalesced;
  return lookups == 0 ? 0.0
                      : static_cast<double>(stats.hits) /
                            static_cast<double>(lookups);
}

// The in-process scheduler arm: the same requests through
// QueryScheduler/ShardedScheduler, configured as serve configures them,
// the batch timed as a whole on a fresh scheduler, kSchedulerReps times.
constexpr int kSchedulerReps = 5;

// One serve back end as CmdServe builds it, with the snapshot installed.
class Backend {
 public:
  static Result<std::unique_ptr<Backend>> Create(const WorkloadSpec& spec,
                                                 const CatalogSnapshot* snapshot) {
    auto backend = std::unique_ptr<Backend>(new Backend());
    SchedulerOptions options;
    options.cache_budget_bytes = spec.cache_budget;
    EngineOptions engine_options;
    if (spec.shards > 0) {
      engine_options.num_threads =
          ShardedScheduler::ThreadsPerShard(kThreads, spec.shards);
      backend->sharded_ = std::make_unique<ShardedScheduler>(
          spec.shards, engine_options, options);
      if (snapshot != nullptr) {
        CPDB_RETURN_NOT_OK(backend->sharded_->InstallSnapshot(*snapshot));
      }
      return backend;
    }
    engine_options.num_threads = kThreads;
    backend->engine_ = std::make_unique<Engine>(engine_options);
    backend->catalog_ = std::make_unique<TreeCatalog>();
    backend->scheduler_ = std::make_unique<QueryScheduler>(
        backend->engine_.get(), backend->catalog_.get(), options);
    if (snapshot != nullptr) {
      CPDB_RETURN_NOT_OK(InstallCatalogSnapshot(*snapshot, backend->catalog_.get(),
                                                backend->scheduler_.get()));
    }
    return backend;
  }

  std::vector<Result<ServiceResponse>> ExecuteBatch(
      const std::vector<ServiceRequest>& requests) {
    return sharded_ != nullptr ? sharded_->ExecuteBatch(requests)
                               : scheduler_->ExecuteBatch(requests);
  }

 private:
  Backend() = default;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<TreeCatalog> catalog_;
  std::unique_ptr<QueryScheduler> scheduler_;
  std::unique_ptr<ShardedScheduler> sharded_;
};

// The median ExecuteBatch time of the whole batch, in ns.
Result<double> TimeScheduler(const Inputs& in, const CatalogSnapshot* snapshot) {
  std::vector<ServiceRequest> requests;
  for (const std::string& text : in.lines) {
    CPDB_ASSIGN_OR_RETURN(RequestLine line, ParseRequestLine(text));
    CPDB_ASSIGN_OR_RETURN(ServiceRequest request, ServiceRequestFromLine(line));
    requests.push_back(std::move(request));
  }
  std::vector<double> times;
  for (int rep = 0; rep < kSchedulerReps; ++rep) {
    CPDB_ASSIGN_OR_RETURN(std::unique_ptr<Backend> backend,
                          Backend::Create(*in.spec, snapshot));
    const int64_t start = NowNanos();
    std::vector<Result<ServiceResponse>> results =
        backend->ExecuteBatch(requests);
    times.push_back(static_cast<double>(NowNanos() - start));
    for (const auto& result : results) CPDB_RETURN_NOT_OK(result.status());
  }
  return Median(times);
}

// Median time of `fn` over `reps` calls.
double MedianTime(int reps, const std::function<Status()>& fn, Status* status) {
  std::vector<double> times;
  for (int rep = 0; rep < reps && status->ok(); ++rep) {
    const int64_t start = NowNanos();
    *status = fn();
    times.push_back(static_cast<double>(NowNanos() - start));
  }
  return Median(times);
}

// service.snapshot.decode_ns / install_ns over `bytes`.
Status TimeSnapshot(const std::string& bytes, std::map<std::string, double>* m) {
  Status status;
  (*m)["service.snapshot.decode_ns"] = MedianTime(
      5,
      [&] { return DecodeCatalogSnapshot(bytes.data(), bytes.size()).status(); },
      &status);
  CPDB_RETURN_NOT_OK(status);
  CPDB_ASSIGN_OR_RETURN(CatalogSnapshot snapshot,
                        DecodeCatalogSnapshot(bytes.data(), bytes.size()));
  Engine engine;
  (*m)["service.snapshot.install_ns"] = MedianTime(
      5,
      [&] {
        TreeCatalog catalog;
        QueryScheduler scheduler(&engine, &catalog);
        return InstallCatalogSnapshot(snapshot, &catalog, &scheduler);
      },
      &status);
  return status;
}

Status Replay(const WorkloadSpec& spec, const std::string& dir, bool trace) {
  Inputs in;
  in.spec = &spec;
  CPDB_ASSIGN_OR_RETURN(in.lines, ReadLines(dir + "/requests.txt"));
  if (spec.catalog) {
    CPDB_ASSIGN_OR_RETURN(in.snapshot_bytes,
                          ReadFileToString(dir + "/catalog.snap"));
  }

  EngineOptions engine_options;
  engine_options.num_threads = kThreads;
  Engine engine(engine_options);

  // Untraced: the reference answers and the tracing-overhead baseline.
  Tracer off(false);
  Replayer untraced_replayer(&engine, spec.cache_budget, &off);
  CPDB_ASSIGN_OR_RETURN(ReplayRun untraced, RunReplay(in, &untraced_replayer));
  CPDB_RETURN_NOT_OK(WriteStringToFile(dir + "/expected.txt",
                                       JoinLines(untraced.expected)));
  std::string out = "{\"requests\": " + std::to_string(in.lines.size()) +
                    ", \"untraced_ns\": " + std::to_string(untraced.main_ns) +
                    ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
                    ", \"compiler\": " + JsonString(PERFBENCH_COMPILER);
  if (!trace) {
    std::printf("%s}\n", out.c_str());
    return Status::OK();
  }

  Tracer tracer(true);
  Replayer replayer(&engine, spec.cache_budget, &tracer);
  CPDB_ASSIGN_OR_RETURN(ReplayRun traced, RunReplay(in, &replayer));
  if (traced.expected != untraced.expected) {
    return Status::Internal("traced and untraced replays disagree");
  }
  const CacheStats rank_stats = replayer.rank_cache().stats();
  const CacheStats marg_stats = replayer.marginals_cache().stats();
  const CatalogCounts counts = replayer.catalog().Counts();

  std::map<std::string, double> m;
  std::map<int64_t, std::string> phase_of_id = traced.phase_of_id;
  int64_t next_id = static_cast<int64_t>(in.lines.size()) + 1000000;
  auto probe_id = [&] {
    phase_of_id[next_id] = "probe";
    return next_id++;
  };

  // Probes: fold and solve units the workload's own requests never run.
  const LayerStats before_probes = Aggregate(tracer.spans(), phase_of_id);
  if (before_probes.main.count("engine.fold.rankdist") == 0 ||
      before_probes.main.count("engine.fold.marginals") == 0) {
    int64_t first = next_id;
    replayer.ProbeFolds(&next_id);
    for (int64_t id = first; id < next_id; ++id) phase_of_id[id] = "probe";
  }
  const std::vector<CatalogEntry> entries = replayer.catalog().SnapshotEntries();
  if (entries.empty()) return Status::Internal("empty catalog after replay");
  for (const std::string& line : ProbeLines(entries.front().name)) {
    Result<RequestLine> tokens = ParseRequestLine(line);
    Result<ServiceRequest> request = ServiceRequestFromLine(*tokens);
    if (!request.ok()) return request.status();
    if (before_probes.main.count(SolveSpanName(*request)) > 0) continue;
    Result<std::string> answered = replayer.Execute(line, probe_id());
    if (!answered.ok()) return answered.status();
  }

  // Snapshot decode/install: of the workload's own snapshot, or — for a
  // workload that starts cold — of the catalog and retained distributions
  // its requests built.
  std::string snapshot_bytes = in.snapshot_bytes;
  if (snapshot_bytes.empty()) {
    CatalogSnapshot built = BuildCatalogSnapshot(replayer.catalog(), nullptr);
    for (const RankDistCache::RetainedEntry& entry :
         replayer.rank_cache().RetainedEntries()) {
      built.distributions.push_back({entry.struct_key, entry.k, entry.dist});
    }
    snapshot_bytes = EncodeCatalogSnapshot(built);
  }
  CPDB_RETURN_NOT_OK(TimeSnapshot(snapshot_bytes, &m));

  const LayerStats layers = Aggregate(tracer.spans(), phase_of_id);
  if (layers.violations > 0) {
    return Status::Internal(std::to_string(layers.violations) +
                            " requests' layer self times exceed their total");
  }
  auto layer_mean = [&](const std::string& span) {
    auto it = layers.main.find(span);
    if (it != layers.main.end()) return Mean(it->second);
    it = layers.probe.find(span);
    return it != layers.probe.end() ? Mean(it->second) : 0.0;
  };
  for (const char* name :
       {"io.request_parse", "io.tree_parse", "model.canonicalize",
        "model.compile", "service.catalog.insert", "service.catalog.lookup",
        "service.cache", "service.format", "engine.fold.rankdist",
        "engine.fold.marginals"}) {
    const std::string metric =
        std::string(name) == "service.cache" ? "service.cache.self" : name;
    m[metric + "_ns"] = layer_mean(name);
  }
  for (const std::string& line : ProbeLines("t")) {
    Result<RequestLine> tokens = ParseRequestLine(line);
    Result<ServiceRequest> request = ServiceRequestFromLine(*tokens);
    const std::string span = SolveSpanName(*request);
    m[span + "_ns"] = layer_mean(span);
  }
  m["service.catalog.dedup_ratio"] =
      counts.shapes == 0 ? 1.0
                         : static_cast<double>(counts.contents) /
                               static_cast<double>(counts.shapes);
  m["service.cache.rankdist_hit_ratio"] = HitRatio(rank_stats);
  m["service.cache.marginals_hit_ratio"] = HitRatio(marg_stats);
  m["service.cache.evictions"] =
      static_cast<double>(rank_stats.evictions + marg_stats.evictions);
  m["service.cache.bytes"] =
      static_cast<double>(rank_stats.bytes + marg_stats.bytes);
  const EngineObsCounters obs = engine.obs_counters();
  m["engine.fold_compiles"] =
      static_cast<double>(obs.fold_compiles + replayer.catalog().fold_compiles());
  m["engine.arena_highwater_bytes"] =
      static_cast<double>(obs.arena_highwater_bytes);
  m["trace.overhead_ratio"] = untraced.main_ns > 0
                                  ? static_cast<double>(traced.main_ns) /
                                        static_cast<double>(untraced.main_ns)
                                  : 0.0;

  // Shard imbalance: traced work per shard, shards by ShardOfKey.
  const int shards = kImbalanceShards;
  std::vector<double> shard_work(static_cast<size_t>(shards), 0.0);
  for (const auto& [id, key] : replayer.request_keys()) {
    auto phase = phase_of_id.find(id);
    if (phase == phase_of_id.end() || phase->second == "probe") continue;
    shard_work[static_cast<size_t>(ShardedScheduler::ShardOfKey(key, shards))] +=
        static_cast<double>(layers.root_ns.at(id));
  }
  const double mean_work = Mean(shard_work);
  m["service.shard.imbalance"] =
      mean_work > 0.0
          ? *std::max_element(shard_work.begin(), shard_work.end()) / mean_work
          : 0.0;

  // Scheduler self time and the in-process per-request time run.py
  // subtracts from the per-request wall time for tools.transport_ns.
  std::unique_ptr<CatalogSnapshot> snapshot;
  if (!in.snapshot_bytes.empty()) {
    CPDB_ASSIGN_OR_RETURN(CatalogSnapshot decoded,
                          DecodeCatalogSnapshot(in.snapshot_bytes.data(),
                                                in.snapshot_bytes.size()));
    snapshot = std::make_unique<CatalogSnapshot>(std::move(decoded));
  }
  CPDB_ASSIGN_OR_RETURN(const double batch_ns, TimeScheduler(in, snapshot.get()));
  double layered = 0.0;
  int64_t scheduled = 0;
  for (size_t i = 0; i < in.lines.size(); ++i) {
    if (IsAdminLine(in.lines[i])) continue;
    const int64_t id = static_cast<int64_t>(i);
    if (layers.scheduled_ns.count(id)) layered += layers.scheduled_ns.at(id);
    ++scheduled;
  }
  m["service.scheduler.self_ns"] =
      (batch_ns - layered) / static_cast<double>(std::max<int64_t>(1, scheduled));
  const double in_process_ns = batch_ns / static_cast<double>(in.lines.size());
  m["engine.speedup_4t"] = SpeedupAt4Threads(replayer.engine_calls());

  CPDB_RETURN_NOT_OK(WriteStringToFile(
      dir + "/spans.json", SpansJson(tracer.spans(), phase_of_id, in)));
  out += ", \"traced_ns\": " + std::to_string(traced.main_ns) +
         ", \"in_process_request_ns\": " + JsonNumber(in_process_ns) +
         ", \"spans\": " + std::to_string(tracer.spans().size()) +
         ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : m) {
    out += (first ? "" : ", ") + JsonString(name) + ": " + JsonNumber(value);
    first = false;
  }
  std::printf("%s}}\n", out.c_str());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// spawn

int Spawn(const std::string& rusage_path, char** program) {
  const pid_t pid = fork();
  if (pid < 0) return 127;
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the launcher
    execv(program[0], program);
    _exit(127);
  }
  int status = 0;
  struct rusage usage {};
  if (wait4(pid, &status, 0, &usage) != pid) return 127;
  const double user = static_cast<double>(usage.ru_utime.tv_sec) +
                      static_cast<double>(usage.ru_utime.tv_usec) / 1e6;
  const double sys = static_cast<double>(usage.ru_stime.tv_sec) +
                     static_cast<double>(usage.ru_stime.tv_usec) / 1e6;
  const Status written = WriteStringToFile(
      rusage_path, JsonNumber(user) + " " + JsonNumber(sys) + " " +
                       std::to_string(usage.ru_maxrss) + "\n");
  if (!written.ok()) return 127;
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

// ---------------------------------------------------------------------------

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: cpdb_perfbench gen|replay|coverage --workload=W --dir=D "
                 "[--seed=S] [--trace=0|1]\n"
                 "       cpdb_perfbench spawn --rusage=FILE -- PROGRAM ARGS...\n");
    return 2;
  }
  const std::string command = argv[1];
  if (command == "spawn") {
    const std::string prefix = "--rusage=";
    if (argc < 5 || std::string(argv[2]).rfind(prefix, 0) != 0 ||
        std::string(argv[3]) != "--") {
      std::fprintf(stderr, "usage: cpdb_perfbench spawn --rusage=FILE -- PROGRAM ARGS...\n");
      return 2;
    }
    return Spawn(std::string(argv[2]).substr(prefix.size()), argv + 4);
  }
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "bad flag '%s'\n", arg.c_str());
      return 2;
    }
    flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
  if (command == "coverage") {
    Result<long long> seed = ParseStrictInt("seed", flags["seed"]);
    Status status = seed.ok() ? Coverage(static_cast<uint64_t>(*seed))
                              : seed.status();
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    return 0;
  }
  const WorkloadSpec* spec = FindWorkload(flags["workload"]);
  if (spec == nullptr || flags["dir"].empty()) {
    std::fprintf(stderr, "unknown workload '%s' or missing --dir\n",
                 flags["workload"].c_str());
    return 2;
  }
  Status status;
  if (command == "gen") {
    Result<long long> seed = ParseStrictInt("seed", flags["seed"]);
    if (!seed.ok()) {
      std::fprintf(stderr, "%s\n", seed.status().ToString().c_str());
      return 2;
    }
    status = Gen(*spec, static_cast<uint64_t>(*seed), flags["dir"]);
  } else if (command == "replay") {
    status = Replay(*spec, flags["dir"], flags["trace"] == "1");
  } else {
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return 2;
  }
  if (!status.ok()) {
    std::fprintf(stderr, "cpdb_perfbench %s: %s\n", command.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace cpdb

int main(int argc, char** argv) { return cpdb::Main(argc, argv); }
