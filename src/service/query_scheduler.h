// Copyright 2026 The ConsensusDB Authors
//
// QueryScheduler — the serving front end: the batched execution layer
// between the request protocol and cpdb::Engine, over N >= 1 shards. A
// batch is a vector of heterogeneous typed requests (catalog loads,
// consensus Top-k under any metric, set-consensus worlds, the analytics
// ops, stats and metrics probes), possibly against different catalog
// trees.
//
// Consensus answers are a pure function of (tree shape, request), so the
// scheduler partitions by shape: each shard is a private (Engine,
// TreeCatalog, three memo caches, instruments) context, and a tree lives on
// the shard owning its structural key (ShardOfKey) — permuted duplicates of
// one shape land together, sharing one fold program and one set of cache
// lines. Everything outside a shard runs once, on the front end:
//
//   1. every `load` applies first, in request order (a batch is a unit of
//      work, not a transcript: queries may reference trees loaded later in
//      the same batch) — read and parse, identity, then the insert into the
//      owning shard's catalog;
//   2. every tree-addressed request (the OpRegistry's kTreeAddressed rows)
//      routes to the shard holding its tree, and the per-shard sub-batches
//      run concurrently, one ParallelFor over the busy shards on the
//      scheduler's one pool, which every shard engine borrows (serve
//      decodes its snapshot on it too). Inside a shard every
//      slot's fetch runs first, in slot order: the shared precomputes
//      route through the three caches — rank distributions by
//      (StructKey, k), leaf marginals by StructKey, and the metric-tail
//      tails (kendall mean answers, symdiff median searches, expected
//      ranks) by (StructKey, kind, k) — so queries sharing a structural
//      key pay each precompute once, and a batch folds each shape's rank
//      distribution once, at its largest k, serving smaller k a prefix.
//      Then every slot's solve fans across the shard engine's width;
//   3. the admin ops (stats, metrics) answer last with the shards' state
//      merged: counters summed, registries merged bucket-wise.
//
// With one shard there is nothing to route: every tree-addressed request
// goes to shard 0, whose catalog Lookup reports unknown names. That is
// also what lets the single-shard constructor borrow a caller's engine and
// catalog — trees inserted straight into that catalog are served. With N >
// 1 a name directory remembers which shard each bound name lives on.
//
// Determinism: every (StructKey, k) cache key lives on exactly one shard
// and sees its requests in slot order, and the engine is schedule
// deterministic, so answers are bitwise identical for every op, thread
// count, shard count and cache budget — with the caches cold, warm or
// evicting. Sharding shows only in throughput and in the kStats per-shard
// breakdown (rendered only when N > 1); a finite budget applies per shard
// cache, so eviction-driven counters may differ across shard counts while
// answers never do.
//
// ExecuteBatch is the only way a request executes. serve --stream runs each
// request as a one-request batch, so there a query may only reference trees
// loaded *earlier*, and `stats` reports the counters as of its line rather
// than post-batch.

#ifndef CPDB_SERVICE_QUERY_SCHEDULER_H_
#define CPDB_SERVICE_QUERY_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
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

struct CatalogSnapshot;

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

/// \brief One shard's cache and catalog counter snapshots — the per-shard
/// breakdown a multi-shard scheduler attaches to its kStats answers.
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
                                   // (summed across shards)
  CacheStats marginals_stats;      // kStats: marginals cache (ditto)
  /// kStats: catalog name/content/shape counts (summed across shards —
  /// StructKey routing keeps shard catalogs disjoint at every level, so
  /// the sums are exact). Rendered as the `shapes=` and `dedup_ratio=`
  /// fields.
  CatalogCounts catalog;
  /// kStats with N > 1 shards: one entry per shard, in shard order,
  /// summing to the aggregate members above. Empty for one shard, whose
  /// wire output stays byte-identical to the pre-sharding protocol.
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

/// \brief Scheduler knobs.
struct SchedulerOptions {
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

/// \brief The serve path's instruments, one per scheduler shard (cheap
/// per-shard instances, merged at scrape time).
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

/// \brief Executes request batches over N >= 1 shards, each an (Engine,
/// TreeCatalog, caches, instruments) context.
///
/// Thread-compatible: concurrent ExecuteBatch calls are safe (catalogs and
/// caches are internally locked, the name directory has its own mutex, the
/// engines are stateless per query), though batches racing on `load` of
/// conflicting content may observe AlreadyExists.
class QueryScheduler {
 public:
  /// \brief One shard over a caller-owned engine and catalog. Neither
  /// pointer is owned; both must outlive the scheduler. Trees the caller
  /// inserts straight into `catalog` are served.
  QueryScheduler(const Engine* engine, TreeCatalog* catalog,
                 SchedulerOptions options = SchedulerOptions());

  /// \brief `num_shards` (clamped to >= 1) owned contexts, each with its
  /// own engine, at a width of engine_options.num_threads — callers wanting
  /// a fixed total thread count split it with ThreadsPerShard — on one
  /// pool of width × num_shards threads, and caches configured by
  /// `options` (so a cache budget applies to each shard's caches).
  QueryScheduler(int num_shards, const EngineOptions& engine_options,
                 SchedulerOptions options = SchedulerOptions());

  ~QueryScheduler();

  /// \brief The shard owning structural key `key`: a deterministic pure
  /// function of (key, num_shards), identical across processes and runs.
  /// The key — already a canonical-orientation hash — is remixed through a
  /// finalizer before the modulo so shard balance never leans on FNV-1a's
  /// low-bit behavior. Routing by StructKey (not ContentFp) pins every
  /// permuted duplicate of one shape to one shard, so the whole fleet
  /// compiles each shape once and shares its cache entries.
  static int ShardOfKey(StructKey key, int num_shards);

  /// \brief The per-shard engine-thread count for a total budget:
  /// max(1, total / num_shards), with total < 1 first resolved to the
  /// hardware concurrency (the ThreadPool convention). The floor division
  /// drops any remainder, and the floor of 1 means more shards than
  /// threads raises the effective total to num_shards — every shard
  /// engine needs at least one thread to exist. `serve --shards=N
  /// --threads=T` sizes each shard engine's width with this, and the
  /// scheduler's pool at N times it.
  static int ThreadsPerShard(int total_threads, int num_shards);

  /// \brief Registers `tree` under `name` in the owning shard's catalog —
  /// the direct seam tests and benchmarks use to seed shards without going
  /// through kLoad files. Same semantics as TreeCatalog::Insert
  /// (idempotent for identical content, AlreadyExists on a rebind).
  Result<CatalogEntry> Insert(const std::string& name, AndXorTree tree);

  /// \brief Installs a decoded catalog snapshot (service/catalog_snapshot.h):
  /// every record inserts as is (TreeCatalog::InsertWithIdentity — the
  /// identity the decoder computed, or a live catalog's) into the shard
  /// owning its structural key, through the same routing
  /// kLoad takes — so query routing, dedup, and AlreadyExists/rebind
  /// semantics are identical to loading the same trees line-by-line — and
  /// every persisted rank distribution seeds the cache of the shard that
  /// owns its key. Placement is a pure function of content, so a snapshot
  /// saved at --shards=M restores correctly at --shards=N for any M, N.
  /// The records' identities move into the catalogs; pass a copy to keep
  /// the snapshot.
  Status InstallSnapshot(CatalogSnapshot snapshot);

  /// \brief Captures the merged serving state as one snapshot: the union
  /// of the shard catalogs (each name lives on exactly one shard) plus,
  /// when `include_distributions` is set, the retained rank distributions
  /// of the trees it holds. Records are sorted, so saving at --shards=M
  /// and at --shards=N produces byte-identical files for the same logical
  /// state.
  CatalogSnapshot BuildSnapshot(bool include_distributions) const;

  /// \brief Executes a batch; results[i] answers requests[i]. Per-request
  /// failures (unknown tree, unreadable file, unsupported metric/answer
  /// combination) land in their slot without affecting other slots.
  /// kStats slots report the counters *after* the batch's query work, in
  /// keeping with loads-before-queries batch semantics.
  std::vector<Result<ServiceResponse>> ExecuteBatch(
      const std::vector<ServiceRequest>& requests);

  /// \brief Seeds the owning shard's rank-distribution cache with a
  /// precomputed entry — the warm-restart seam: a catalog snapshot's
  /// persisted distributions land here so a restarted replica's first
  /// batch hits warm instead of re-folding. No-op (returns false) when
  /// the entry is not retained (existing entry, over-budget); never
  /// changes answers, exactly like every other cache path.
  bool SeedRankDistribution(StructKey struct_key, int k,
                            std::shared_ptr<const RankDistribution> dist);

  /// \brief Every shard's retained rank-distribution cache entries, in
  /// (struct_key, k) order — what a snapshot save persists as the
  /// precomputed-distributions section.
  std::vector<RankDistCache::RetainedEntry> RetainedRankDistributions() const;

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// \brief The pool the shard engines borrow and the shard dispatch runs
  /// on; one thread (no workers) over a caller's engine.
  ThreadPool* pool() const { return pool_.get(); }

  /// \brief Rank-distribution cache counters, summed over shards (each
  /// shard's snapshot is consistent; the sum is taken shard by shard, like
  /// any fleet-wide roll-up).
  CacheStats cache_stats() const;

  /// \brief Marginals cache counters, summed over shards.
  CacheStats marginals_stats() const;

  /// \brief Precompute cache counters (all kinds), summed over shards.
  /// Exported only through the metrics scrape, never the stats op.
  CacheStats precompute_stats() const;

  /// \brief Per-shard counter snapshots, in shard order.
  std::vector<ShardCacheStats> PerShardStats() const;

  const SchedulerOptions& options() const { return options_; }

  /// \brief The front end's instruments — shard 0's, where every request
  /// no shard owns (admin ops, unknown names) is recorded — or nullptr
  /// when metrics are disabled. The transport records its parse/format
  /// stages here.
  ServeInstruments* instruments() const;

  /// \brief The injected clock (never null; defaults to SteadyClock).
  const Clock* clock() const { return clock_; }

  /// \brief The full metrics scrape, the shards' snapshots merged
  /// (counters and gauges sum, histograms merge bucket-wise). Each shard
  /// contributes its registry's instruments plus the fold/arena counters
  /// (cpdb_fold_compiles_total counts the catalog's per-shape compiles
  /// together with the engine's on-demand ones, cpdb_rank_folds_total the
  /// engine's rank-distribution folds), the catalog's identity
  /// gauges (cpdb_catalog_entries = bound names, cpdb_catalog_shapes =
  /// distinct structures), and the three caches' counters re-exported
  /// under cpdb_rankdist_cache_* / cpdb_marginals_cache_* /
  /// cpdb_precompute_cache_*. Must not be called when metrics are
  /// disabled (instruments() is nullptr).
  MetricsSnapshot MetricsSnapshotNow() const;

  /// \brief Each shard's own scrape, in shard order — the seam the parity
  /// test uses to pin merged == bucket-wise sum of per-shard.
  std::vector<MetricsSnapshot> PerShardMetricsSnapshots() const;

 private:
  /// One shard's execution context; defined in the .cc.
  class Shard;
  /// The one OpHost adapter (service/op_registry.h) the registry hooks
  /// execute against; defined in the .cc.
  class Host;

  /// The load path with stage spans: parse (read + parse the tree file)
  /// and catalog (identity + the routed insert). `*out_shard` receives the
  /// shard the load is recorded on (0 when it fails before routing).
  Result<ServiceResponse> ExecuteLoad(const ServiceRequest& request,
                                      const Clock* clk, ResponseTiming* timing,
                                      size_t* out_shard);

  /// Insert, also reporting the shard the name routed to.
  Result<CatalogEntry> Insert(const std::string& name, AndXorTree tree,
                              size_t* out_shard);

  /// The shared back half of Insert and InstallSnapshot: picks the shard
  /// for `name` — shard 0 with one shard; otherwise the directory's
  /// binding, or ShardOfKey(key) for a new name — and runs `insert`
  /// against that shard's catalog. With N > 1 it holds mu_ across the
  /// insert, so racing loads of one unbound name cannot route to different
  /// shards, and records the binding on success.
  Result<CatalogEntry> InsertRouted(
      const std::string& name, StructKey key,
      const std::function<Result<CatalogEntry>(TreeCatalog*)>& insert,
      size_t* out_shard = nullptr);

  /// The shard a tree-addressed request executes on: shard 0 with one
  /// shard (its catalog Lookup reports unknown names), otherwise the
  /// directory's binding. An unknown name fails here with
  /// TreeCatalog::UnknownTreeError, recorded on shard 0.
  Result<size_t> RouteTree(const ServiceRequest& request, const Clock* clk);

  /// Executes an admin row (stats, metrics) against the merged state,
  /// timed as one whole-op measurement recorded *after* the hook runs — a
  /// scrape describes the work before it, never itself. The caller has
  /// already counted the request against shard 0.
  Result<ServiceResponse> ExecuteAdmin(const ServiceRequest& request,
                                       const Clock* clk);

  ServiceResponse StatsResponse() const;

  /// The timing source for a unit of work: the injected clock when this
  /// request must be timed (metrics on, or the request said trace=on),
  /// nullptr — which makes every Stopwatch inert — otherwise.
  const Clock* TimingClock(bool any_trace) const {
    return (options_.enable_metrics || any_trace) ? clock_ : nullptr;
  }

  SchedulerOptions options_;
  const Clock* clock_;
  // Declared before shards_, so it outlives the engines that borrow it.
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Guards directory_ (name -> owning shard), used only with N > 1: queries
  // address trees by name, and the key is only known to the shard that
  // loaded it.
  mutable std::mutex mu_;
  std::map<std::string, size_t> directory_;
};

}  // namespace cpdb

#endif  // CPDB_SERVICE_QUERY_SCHEDULER_H_
