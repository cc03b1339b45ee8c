// Copyright 2026 The ConsensusDB Authors
//
// QueryScheduler — the batched execution layer between the request
// protocol and cpdb::Engine. A batch is a vector of heterogeneous typed
// requests (catalog loads, consensus Top-k under any metric, set-consensus
// worlds, cache-stats probes), possibly against different catalog trees.
// The scheduler:
//
//   1. applies every `load` to the TreeCatalog (in request order, before
//      any query — a batch is a unit of work, not a transcript: queries may
//      reference trees loaded later in the same batch);
//   2. resolves query trees by name and routes the shared precomputes
//      through the three owned caches — rank distributions by (StructKey, k)
//      for Top-k queries, leaf marginals by StructKey for world queries,
//      and the metric-tail precomputes (Kendall q matrices, symdiff median
//      searches, expected ranks) by (StructKey, kind, k) — so queries
//      sharing a structural key (permuted duplicates included), within
//      this batch or with any earlier one, pay each precompute once; the
//      folds themselves reuse the catalog's precompiled per-shape program,
//      so the steady-state query path never compiles;
//   3. fans the remaining per-query work (Hungarian columns, re-scoring,
//      and any tail no cache supplied) through
//      Engine::EvaluateConsensusBatch, and answers world queries through
//      Engine::ConsensusWorldWithMarginals.
//
// All three caches are single-flight, LRU-evicting under the configured byte
// budget (SchedulerOptions::cache_budget_bytes) — a long-lived server
// under key churn holds bounded memory. Answers are bitwise identical to
// one-at-a-time Engine calls with the caches enabled, disabled, cold,
// warm, or evicting, for any thread count — the caches store values the
// engine computes deterministically, so memoization is invisible except in
// the CacheStats counters and the latency.
//
// Besides ExecuteBatch there is a streaming path: ExecuteStreaming pulls
// requests one at a time and emits each response before reading the next
// request — the serve --stream mode, where a client on a pipe sees answer
// N before writing request N+1. Streaming trades the batch conveniences
// for incrementality: requests execute strictly in input order (a query
// may only reference trees loaded *earlier*), and `stats` reports the
// counters at its point in the stream rather than post-batch.
//
// This is the chassis for sharding, and service/sharded_scheduler.h is the
// front-end built on it: a ShardedScheduler owns one (Engine, TreeCatalog,
// QueryScheduler) context per shard and partitions batches across them by
// tree fingerprint — exactly this interface (catalog handles + a batch
// call with per-slot Results), replicated.

#ifndef CPDB_SERVICE_QUERY_SCHEDULER_H_
#define CPDB_SERVICE_QUERY_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/hardness.h"
#include "engine/engine.h"
#include "io/request_protocol.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "service/marginals_cache.h"
#include "service/precompute_cache.h"
#include "service/rank_dist_cache.h"
#include "service/tree_catalog.h"

namespace cpdb {

/// \brief One typed request of a service batch. The set of ops, their wire
/// names, parameter schemas, and routing traits are declared in one place:
/// service/op_registry.h.
struct ServiceRequest {
  enum class Op {
    kLoad,       ///< register a tree file with the catalog
    kTopK,       ///< consensus Top-k against a catalog tree
    kWorld,      ///< set-consensus world against a catalog tree
    kStats,      ///< report the scheduler's cache counters
    kMetrics,    ///< scrape the scheduler's metrics registry
    kMarginals,  ///< per-key presence marginals of a catalog tree
    kAggregate,  ///< label group-by COUNT consensus (mean + median)
    kBaseline,   ///< baseline ranking semantics (escore/erank/global/prf)
    kHardness,   ///< structural hardness statistics of a catalog tree
  };

  Op op = Op::kTopK;

  // kLoad
  std::string load_name;
  std::string load_file;
  std::string load_format = "tree";  // tree | bid

  // kTopK / kWorld / kMarginals / kAggregate / kBaseline / kHardness
  std::string tree_name;
  int k = 1;                                  // kTopK / kBaseline
  TopKMetric metric = TopKMetric::kSymDiff;   // kTopK
  TopKAnswer answer = TopKAnswer::kMean;      // kTopK
  bool median_world = false;                  // kWorld: median vs mean

  // kBaseline
  std::string baseline_method = "escore";  // escore | erank | global | prf

  // kMetrics
  std::string metrics_format = "kv";  // kv | prom

  /// Any op: `trace=on` asks for side-band trace_* stage-timing fields on
  /// this request's ok response. Never changes the answer fields.
  bool trace = false;
};

/// \brief Maps a tokenized protocol line to a typed request — the semantic
/// half of parsing (the grammar half is io/request_protocol.h). Strict
/// throughout, per the CLI convention: unknown op, unknown field for the
/// op, unknown metric/answer/format value, or an out-of-range k are errors,
/// never defaults. `line` must be non-empty (callers skip comment lines).
Result<ServiceRequest> ServiceRequestFromLine(const RequestLine& line);

/// \brief One shard's pair of cache counter snapshots — the per-shard
/// breakdown a sharded front-end attaches to its kStats answers.
struct ShardCacheStats {
  CacheStats rank_dist;   ///< the shard's RankDistCache counters
  CacheStats marginals;   ///< the shard's MarginalsCache counters
  CatalogCounts catalog;  ///< the shard's catalog name/content/shape counts
};

/// \brief Side-band timing for one request — never part of the answer.
/// Spans are (stage name, nanoseconds) in execution order; total_ns is the
/// request's service latency (the sum of its spans for load/topk/world,
/// one whole-op measurement for stats/metrics). The `trace` bit records
/// whether the *request* asked for trace output: ResponseToFields emits
/// trace_* fields only when it is set, so a response carrying timing for
/// histogram purposes still renders byte-identical to an untimed one.
struct ResponseTiming {
  bool trace = false;
  int64_t total_ns = 0;
  std::vector<std::pair<std::string, int64_t>> spans;
};

/// \brief One request's answer; which members are meaningful depends on op.
struct ServiceResponse {
  ServiceRequest::Op op = ServiceRequest::Op::kTopK;
  std::string tree_name;     // kTopK/kWorld echo; kLoad: the bound name
  ContentFp fingerprint;     // kLoad: the wire-visible content identity
  int k = 0;                 // kTopK echo
  std::string metric;        // kTopK/kWorld echo (textual)
  std::string answer;        // kTopK/kWorld echo (textual)
  std::vector<KeyId> keys;   // kTopK: answer keys; kWorld: world keys
  double expected_distance = 0.0;  // kTopK/kWorld
  CacheStats stats;                // kStats: rank-distribution cache
                                   // (aggregated totals when sharded)
  CacheStats marginals_stats;      // kStats: marginals cache (ditto)
  /// kStats: catalog name/content/shape counts (summed across shards when
  /// sharded — StructKey routing keeps shard catalogs disjoint at every
  /// level, so the sums are exact). Rendered as the `shapes=` and
  /// `dedup_ratio=` fields.
  CatalogCounts catalog;
  /// kStats via a ShardedScheduler: one entry per shard, in shard order,
  /// summing to the two aggregate members above. Empty for the
  /// single-engine QueryScheduler, whose wire output stays byte-identical
  /// to what it was before sharding existed.
  std::vector<ShardCacheStats> shard_stats;
  std::string metrics_format;  // kMetrics echo (kv | prom)
  MetricsSnapshot metrics;     // kMetrics: the scrape
  /// kMarginals: per-key presence marginals aligned with `keys`;
  /// kAggregate: the mean group-count vector.
  std::vector<double> values;
  /// kAggregate: the median (closest-possible) group-count vector.
  std::vector<int64_t> group_counts;
  std::string method;      // kBaseline echo (escore | erank | global | prf)
  TreeHardness hardness;   // kHardness: the structural statistics
  /// Side-band stage timings; rendered as trace_* fields only when
  /// timing.trace is set (the request said trace=on).
  ResponseTiming timing;
};

/// \brief Renders a response as protocol fields, ready for
/// FormatResponseLine. The inverse direction of ServiceRequestFromLine.
std::vector<RequestField> ResponseToFields(const ServiceResponse& response);

/// \brief Reads and parses a kLoad request's file into a validated tree
/// (request.load_format selects the parser). The single shared front half
/// of load execution — both QueryScheduler and ShardedScheduler route
/// through it, so the two paths' read/parse error statuses are
/// byte-identical by construction, not by convention.
Result<AndXorTree> LoadRequestTree(const ServiceRequest& request);

/// \brief Scheduler knobs.
struct SchedulerOptions {
  /// Disables all three memo caches: every query recomputes its folds through
  /// the engine. Exists for the parity tests and the cache-speedup
  /// benchmarks; production serving keeps it on.
  bool use_cache = true;

  /// Byte budget applied to *each* owned cache (the CLI's --cache-budget):
  /// retained entries are charged their size-based footprint and evicted
  /// LRU-first when the charge would exceed the budget.
  /// kUnboundedCacheBytes (the default) never evicts; 0 retains nothing
  /// while still coalescing concurrent computes. Answers are bitwise
  /// independent of the budget — eviction costs recomputation, never
  /// correctness.
  int64_t cache_budget_bytes = kUnboundedCacheBytes;

  /// Owns a ServeInstruments registry and records per-op latency
  /// histograms, per-stage spans, and request/error counters
  /// (the CLI's --metrics). Off means *zero* timing reads on the serve
  /// path (no clock calls, no atomics) and op=metrics answers an error.
  /// Answers are byte-identical either way — the differential suite pins
  /// it.
  bool enable_metrics = true;

  /// The timing source; nullptr resolves to SteadyClock::Instance().
  /// Tests inject a FakeClock here to make every histogram bucket and
  /// trace field deterministic. Not owned; must outlive the scheduler.
  const Clock* clock = nullptr;
};

/// \brief The serve path's instruments, owned by one scheduler (one per
/// shard when sharded — cheap per-shard instances, merged at scrape time).
/// The per-op instruments are generated from the OpRegistry's wire names
/// (cpdb_<op>_requests_total / cpdb_<op>_latency_nanoseconds, registered
/// in table order), so adding an op auto-registers its pair while every
/// existing name stays golden-pinned; tests/service_test.cc pins the cache
/// re-export names and tests/obs_test.cc the export formats.
struct ServeInstruments {
  ServeInstruments();

  MetricsRegistry registry;

  Counter* requests_total;        // cpdb_requests_total
  Counter* request_errors_total;  // cpdb_request_errors_total

  /// Per-op counters/histograms indexed by ServiceRequest::Op (== the
  /// registry's table order).
  std::vector<Counter*> op_requests;
  std::vector<LatencyHistogram*> op_latencies;

  // Stage spans: parse (request-line and tree-file parses), catalog
  // (insert/lookup), cache (memo-cache routing incl. fold-on-miss),
  // fold (engine evaluation), format (response rendering, recorded by the
  // transport).
  LatencyHistogram* stage_parse;    // cpdb_stage_parse_latency_nanoseconds
  LatencyHistogram* stage_catalog;  // cpdb_stage_catalog_latency_nanoseconds
  LatencyHistogram* stage_cache;    // cpdb_stage_cache_latency_nanoseconds
  LatencyHistogram* stage_fold;     // cpdb_stage_fold_latency_nanoseconds
  LatencyHistogram* stage_format;   // cpdb_stage_format_latency_nanoseconds

  Counter* op_counter(ServiceRequest::Op op) {
    return op_requests[static_cast<size_t>(op)];
  }
  LatencyHistogram* op_latency(ServiceRequest::Op op) {
    return op_latencies[static_cast<size_t>(op)];
  }
  /// The stage histogram for a span name, or nullptr for an unknown name.
  LatencyHistogram* stage(const std::string& name);
};

/// \brief Re-exports a CacheStats snapshot as metric samples appended to
/// `out` (hits/misses/coalesced/evictions as counters with a _total
/// suffix, entries/bytes as gauges), named `<prefix><field>`. The caller
/// sorts `out` before merging. Shared by the metrics scrape and the
/// golden-name test, so the exported names cannot drift from the pinned
/// set silently.
void AppendCacheStatsMetrics(const CacheStats& stats,
                             const std::string& prefix, MetricsSnapshot* out);

/// \brief Renders one slow-query log line (the serve --slow-query-ms
/// sink): tab-separated name=value fields — line number, total
/// milliseconds (FormatRoundTripDouble), each recorded span in
/// nanoseconds, then the raw request echoed through EscapeFieldValue so a
/// hostile request cannot forge log structure. No trailing newline.
std::string FormatSlowQueryLine(int64_t line_number,
                                const std::string& raw_request,
                                const ResponseTiming& timing);

/// \brief Executes request batches against one engine and one catalog.
///
/// The scheduler owns the RankDistCache, MarginalsCache and PrecomputeCache
/// (the only mutable state in the serving layer besides the catalog maps)
/// and is thread-compatible: concurrent ExecuteBatch / ExecuteOne calls are
/// safe — catalog and caches are internally locked; the engine is stateless
/// per query — but batches racing on `load` of conflicting content may
/// observe AlreadyExists.
class QueryScheduler {
 public:
  /// \brief Neither pointer is owned; both must outlive the scheduler.
  QueryScheduler(const Engine* engine, TreeCatalog* catalog,
                 SchedulerOptions options = SchedulerOptions());

  /// \brief Executes a batch; results[i] answers requests[i]. Per-request
  /// failures (unknown tree, unreadable file, unsupported metric/answer
  /// combination) land in their slot without affecting other slots.
  /// kStats slots report the counters *after* the batch's query work, in
  /// keeping with loads-before-queries batch semantics.
  std::vector<Result<ServiceResponse>> ExecuteBatch(
      const std::vector<ServiceRequest>& requests);

  /// \brief Executes one request immediately — the unit of the streaming
  /// path. Same cache routing and bitwise-identical answers as a
  /// single-request ExecuteBatch, with the two order-sensitive
  /// differences streaming implies: a kTopK/kWorld request sees only trees
  /// loaded before this call, and kStats reports the counters as of now.
  Result<ServiceResponse> ExecuteOne(const ServiceRequest& request);

  /// \brief The incremental serve loop: repeatedly pulls a request from
  /// `next` (which returns false when the input is exhausted) and passes
  /// its response to `emit` — always emitting request N's response
  /// *before* pulling request N+1, so a streaming client observes answers
  /// as it writes. Equivalent to calling ExecuteOne in a loop; exists so
  /// the interleaving contract lives (and is tested) in the scheduler
  /// rather than in every transport.
  void ExecuteStreaming(
      const std::function<bool(ServiceRequest*)>& next,
      const std::function<void(const Result<ServiceResponse>&)>& emit);

  /// \brief Seeds the owned rank-distribution cache with a precomputed
  /// entry — the warm-restart seam: a catalog snapshot's persisted
  /// distributions land here so a restarted replica's first batch hits
  /// warm instead of re-folding. No-op (returns false) when caching is
  /// disabled or the entry is not retained (existing entry, over-budget);
  /// never changes answers, exactly like every other cache path.
  bool SeedRankDistribution(StructKey struct_key, int k,
                            std::shared_ptr<const RankDistribution> dist) {
    if (!options_.use_cache) return false;
    return cache_.Seed(struct_key, k, std::move(dist));
  }

  /// \brief The rank-distribution cache's retained entries, in
  /// (struct_key, k) order — what a snapshot save persists as the
  /// precomputed-distributions section.
  std::vector<RankDistCache::RetainedEntry> RetainedRankDistributions() const {
    return cache_.RetainedEntries();
  }

  /// \brief Counter snapshot of the owned rank-distribution cache.
  CacheStats cache_stats() const { return cache_.stats(); }

  /// \brief Counter snapshot of the owned marginals cache.
  CacheStats marginals_stats() const { return marginals_cache_.stats(); }

  /// \brief Counter snapshot of the owned precompute cache (all kinds).
  /// Exported only through the metrics scrape, never the stats op.
  CacheStats precompute_stats() const { return precompute_cache_.stats(); }

  const SchedulerOptions& options() const { return options_; }

  /// \brief The owned instruments, or nullptr when metrics are disabled.
  /// The sharded front-end records its front-end work (loads, routing
  /// failures, stats/metrics ops) through this.
  ServeInstruments* instruments() const { return instruments_.get(); }

  /// \brief The injected clock (never null; defaults to SteadyClock).
  const Clock* clock() const { return clock_; }

  /// \brief The full metrics scrape: the registry's instruments plus the
  /// fold/arena counters (cpdb_fold_compiles_total counts the catalog's
  /// per-shape compiles together with the engine's on-demand ones), the
  /// catalog's identity gauges (cpdb_catalog_entries = bound names,
  /// cpdb_catalog_shapes = distinct structures), and the three caches'
  /// counters re-exported under cpdb_rankdist_cache_* /
  /// cpdb_marginals_cache_* / cpdb_precompute_cache_*.
  /// Must not be called when metrics are disabled (instruments() is
  /// nullptr).
  MetricsSnapshot MetricsSnapshotNow() const;

 private:
  /// The OpRegistry hooks execute against the scheduler through a private
  /// OpHost adapter (service/op_registry.h) defined in the .cc — the
  /// primitives below are its surface.
  friend class SchedulerOpHost;

  /// The rank distribution for one valid Top-k request: through the cache
  /// when enabled (single-flight, charged against the budget), nullptr
  /// when disabled or when the request can only fail — the engine rejects
  /// such queries before paying the fold, and the scheduler must not
  /// populate the cache for them.
  std::shared_ptr<const RankDistribution> DistFor(const CatalogEntry& entry,
                                                  const ServiceRequest& request);

  /// The rank distribution at cutoff k unconditionally (the baseline
  /// rankings' precompute): through the cache when enabled, computed fresh
  /// otherwise.
  std::shared_ptr<const RankDistribution> RankDistFor(const CatalogEntry& entry,
                                                      int k);

  /// The leaf marginals for a tree-addressed request: through the
  /// marginals cache when enabled, computed fresh otherwise.
  std::shared_ptr<const std::vector<double>> MarginalsFor(
      const CatalogEntry& entry);

  /// The load path with stage spans: parse (read + parse the tree file)
  /// and catalog (the insert). `clk` null means no spans are recorded.
  Result<ServiceResponse> ExecuteLoadTimed(const ServiceRequest& request,
                                           const Clock* clk,
                                           ResponseTiming* timing);

  ServiceResponse StatsResponse() const;

  /// The timing source for a unit of work: the injected clock when this
  /// request must be timed (metrics on, or the request said trace=on),
  /// nullptr — which makes every Stopwatch inert — otherwise.
  const Clock* TimingClock(bool any_trace) const {
    return (instruments_ != nullptr || any_trace) ? clock_ : nullptr;
  }

  /// Sums a finished request's spans into total_ns, records the op and
  /// stage histograms (when metrics are on), and attaches trace output to
  /// an ok response when the request asked for it.
  void FinishTiming(const ServiceRequest& request, ResponseTiming* timing,
                    Result<ServiceResponse>* response);

  const Engine* engine_;
  TreeCatalog* catalog_;
  SchedulerOptions options_;
  const Clock* clock_;
  std::unique_ptr<ServeInstruments> instruments_;
  RankDistCache cache_;
  MarginalsCache marginals_cache_;
  PrecomputeCache precompute_cache_;
};

}  // namespace cpdb

#endif  // CPDB_SERVICE_QUERY_SCHEDULER_H_
