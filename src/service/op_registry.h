// Copyright 2026 The ConsensusDB Authors
//
// OpRegistry — the declarative table behind the serve protocol. Every op
// the protocol speaks is ONE OpSpec row declaring:
//
//   * its wire name (the single name↔enum map: parse, echo, error
//     messages, and the auto-generated per-op instruments all read it);
//   * its parameter schema (a strict parse hook — unknown fields, unknown
//     enum values, and out-of-range integers are errors, never defaults);
//   * its routing trait — how the scheduler's front end places the
//     request among its shards:
//       kTreeAddressed  routes by the named tree's StructKey to the
//                       owning shard (topk, world, marginals, aggregate,
//                       baseline, hardness);
//       kCatalogGlobal  executes on the front end, which computes the
//                       identity and inserts into the owning shard (load);
//       kAdmin          executes on the front end by merging per-shard
//                       state (stats, metrics);
//   * its batch phase — the position ExecuteBatch runs it in (loads
//     before queries before stats before metrics);
//   * its hooks against an abstract OpHost (Engine + caches + catalog +
//     merged admin state): for a tree-addressed op a fetch (the cache
//     lookups of every precompute the request needs) and a solve (the pure
//     engine work over what fetch returned), for an admin op one execute
//     hook, and
//   * a deterministic response formatter.
//
// QueryScheduler::ExecuteBatch/ExecuteOne/ExecuteStreaming and its shard
// fan-out are generic walks of this table: adding an op means adding one
// row here (plus its core/engine computation), not editing dispatch
// sites. Every tree-addressed request runs the same pipeline: its fetch in
// slot order on the shard's dispatching thread, then its solve, fanned
// with the batch's other solves across the shard engine's pool. The wire
// error for an unknown op enumerates the valid names from the table, so
// the message can never go stale.
//
// Determinism contract: every solve computes through schedule-deterministic
// Engine forms over inputs that are a pure function of (tree shape,
// request), so answers are bitwise identical for any thread count, shard
// count, or cache budget — the differential suite
// (tests/op_registry_test.cc) pins this, and pins the four analytics ops
// against their offline CLI twins to the byte.

#ifndef CPDB_SERVICE_OP_REGISTRY_H_
#define CPDB_SERVICE_OP_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "service/query_scheduler.h"
#include "service/tree_catalog.h"

namespace cpdb {

/// \brief How the scheduler's front end places a request among its shards
/// (and which execute hook an OpSpec provides).
enum class OpRouting {
  /// Addressed to one catalog tree by name: routed to the shard owning the
  /// tree's StructKey and executed there through `fetch` then `solve`.
  kTreeAddressed,
  /// Touches the catalog as a whole: executed on the front-end thread
  /// (which routes the result to the owning shard) through the host's
  /// load primitive.
  kCatalogGlobal,
  /// Introspection: executed on the front end by merging per-shard state
  /// through `execute_admin`.
  kAdmin,
};

/// \brief ExecuteBatch phase slots, in execution order. Loads first (a
/// batch is a unit of work: queries may reference trees loaded later in
/// the same batch), then queries, then stats (describing the batch that
/// just ran), then metrics (describing everything, stats probes included).
enum OpBatchPhase : int {
  kLoadPhase = 0,
  kQueryPhase = 1,
  kStatsPhase = 2,
  kMetricsPhase = 3,
};

/// \brief The execution surface an OpSpec hook runs against. QueryScheduler
/// implements it with one private adapter: the tree primitives resolve on
/// the shard holding the request's tree, the admin and load primitives on
/// the front end (merged across shards).
class OpHost {
 public:
  virtual ~OpHost() = default;

  /// The engine tree-addressed hooks evaluate against.
  virtual const Engine* engine() const = 0;

  /// The rank distribution for a *valid* consensus request, through the
  /// RankDistCache: nullptr only when the request can only fail (its solve
  /// rejects it without a fold, and the cache must not be populated for
  /// it). The topk row's rank_k hook is that gate: 0 for a request that can
  /// only fail.
  virtual std::shared_ptr<const RankDistribution> GatedDistFor(
      const CatalogEntry& entry, const ServiceRequest& request) = 0;

  /// The rank distribution at cutoff k unconditionally, through the
  /// RankDistCache. The baseline rankings (method=global|prf) route here.
  virtual std::shared_ptr<const RankDistribution> RankDistFor(
      const CatalogEntry& entry, int k) = 0;

  /// The tree's leaf marginals through the MarginalsCache. world,
  /// marginals, and aggregate route here.
  virtual std::shared_ptr<const std::vector<double>> MarginalsFor(
      const CatalogEntry& entry) = 0;

  /// The metric-tail precomputes, through the scheduler's PrecomputeCache.
  /// The defaults compute fresh through engine(), so a host that keeps no
  /// cache answers the same bytes.
  ///
  /// The kendall mean answer (Engine::ConsensusTopKWithDist, metric
  /// kendall, answer mean) over `dist`, the entry's rank distribution at
  /// cutoff dist.k(): the footrule answer re-scored from its keys' q
  /// columns.
  virtual std::shared_ptr<const Result<TopKResult>> KendallMeanFor(
      const CatalogEntry& entry, const RankDistribution& dist);

  /// The symdiff median search (Engine::MedianSymDiffSearch) over `dist`,
  /// the entry's rank distribution at cutoff dist.k().
  virtual std::shared_ptr<const Result<TopKResult>> MedianSymDiffFor(
      const CatalogEntry& entry, const RankDistribution& dist);

  /// The expected ranks (Engine::ExpectedRanks) behind method=erank.
  virtual std::shared_ptr<const std::vector<double>> ExpectedRanksFor(
      const CatalogEntry& entry);

  /// The kStats answer as of now (merged across shards).
  virtual ServiceResponse StatsNow() = 0;

  /// The full metrics scrape, or the in-band refusal
  /// (MetricsDisabledError) when metrics are off.
  virtual Result<MetricsSnapshot> MetricsNow() = 0;

  /// The load path with stage spans (parse, catalog): the identity is
  /// computed up front and the tree inserted into the owning shard.
  virtual Result<ServiceResponse> ExecuteLoadOp(const ServiceRequest& request,
                                                const Clock* clk,
                                                ResponseTiming* timing) = 0;
};

/// \brief The precomputes a tree-addressed op's fetch looked up, held by
/// owning handles so they stay alive through the solve even if their cache
/// evicts them meanwhile. Each op sets only the members its request needs.
struct OpInputs {
  /// Whether the fetch made any lookup: the `cache` span is recorded only
  /// then (hardness and baseline method=escore look nothing up).
  bool fetched = false;
  /// topk (GatedDistFor: null only for a request that can only fail);
  /// baseline method=global|prf (RankDistFor).
  std::shared_ptr<const RankDistribution> dist;
  /// world, marginals, aggregate.
  std::shared_ptr<const std::vector<double>> marginals;
  /// topk metric=kendall answer=mean.
  std::shared_ptr<const Result<TopKResult>> kendall_mean;
  /// topk metric=symdiff answer=median.
  std::shared_ptr<const Result<TopKResult>> symdiff_median;
  /// baseline method=erank.
  std::shared_ptr<const std::vector<double>> expected_ranks;
};

/// \brief One op, declaratively. The function members are stateless hooks
/// (plain function pointers — the table is immutable and shareable across
/// threads without synchronization).
struct OpSpec {
  ServiceRequest::Op op = ServiceRequest::Op::kTopK;

  /// The wire name: `op=<name>` on requests and responses, and the stem of
  /// the auto-registered instruments (cpdb_<name>_requests_total,
  /// cpdb_<name>_latency_nanoseconds).
  const char* name = "";

  OpRouting routing = OpRouting::kTreeAddressed;
  int batch_phase = kQueryPhase;

  /// Maps a tokenized protocol line (op field already matched to this
  /// spec; trace already parsed) onto `request`. Strict: unknown fields
  /// for this op, unknown enum values, and out-of-range integers are
  /// errors.
  Status (*parse)(const RequestLine& line, ServiceRequest* request) = nullptr;

  /// kTreeAddressed only: the cache lookups — every precompute the request
  /// needs, through `host`, in a fixed order. The scheduler runs the
  /// fetches of a batch one by one in slot order on the shard's
  /// dispatching thread, so each cache sees its lookups in slot order.
  OpInputs (*fetch)(OpHost& host, const CatalogEntry& entry,
                    const ServiceRequest& request) = nullptr;

  /// kTreeAddressed only: the cutoff k at which `fetch` reads the
  /// rank-distribution cache, or 0 when it reads none. The scheduler plans
  /// a batch's folds from it: each shape folds once, at its largest k, and
  /// every smaller k is served a prefix of that fold.
  int (*rank_k)(const ServiceRequest& request) = nullptr;

  /// kTreeAddressed only: the engine work over the fetched inputs. Touches
  /// no cache and no catalog, so the scheduler fans the solves of a batch
  /// across the shard engine's pool.
  Result<ServiceResponse> (*solve)(const Engine& engine,
                                   const CatalogEntry& entry,
                                   const ServiceRequest& request,
                                   const OpInputs& inputs) = nullptr;

  /// kTreeAddressed only: one request end to end — FetchOpInputs then
  /// SolveOp, recording cache/fold spans on `timing` (clk null = inert
  /// watches). The same function on every tree-addressed row; it exists
  /// for callers that replay one request at a time against their own
  /// OpHost.
  Result<ServiceResponse> (*execute_tree)(OpHost& host,
                                          const CatalogEntry& entry,
                                          const ServiceRequest& request,
                                          const Clock* clk,
                                          ResponseTiming* timing) = nullptr;

  /// Executes a kAdmin op against the host's merged state. The caller owns
  /// whole-op timing and instrument records. Null for non-admin ops.
  Result<ServiceResponse> (*execute_admin)(OpHost& host,
                                           const ServiceRequest& request) =
      nullptr;

  /// Appends the op's answer fields after the leading op=<name> field.
  /// Deterministic: field order and value formatting
  /// (FormatRoundTripDouble for doubles) are fixed here.
  void (*format)(const ServiceResponse& response,
                 std::vector<RequestField>* fields) = nullptr;
};

/// \brief The immutable op table, built once. Registration order is the
/// instrument-registration and documentation order: load, topk, world,
/// stats, metrics, marginals, aggregate, baseline, hardness — existing
/// ops first so historical scrape layouts keep their prefix.
class OpRegistry {
 public:
  static const OpRegistry& Get();

  /// All specs in registration order; specs()[i].op == Op(i).
  const std::vector<OpSpec>& specs() const { return specs_; }

  /// The spec for an op value (total: every enum value has a row).
  const OpSpec& spec(ServiceRequest::Op op) const {
    return specs_[static_cast<size_t>(op)];
  }

  /// The spec registered under a wire name, or nullptr.
  const OpSpec* FindByName(const std::string& name) const;

  /// "load, topk, ..., baseline or hardness" — the valid-op enumeration
  /// for the unknown-op error, derived from the table.
  const std::string& ExpectedOpsList() const { return expected_ops_; }

  /// The in-band error for an unrecognized op field value, enumerating
  /// every registered wire name.
  Status UnknownOpError(const std::string& op) const;

 private:
  OpRegistry();
  std::vector<OpSpec> specs_;
  std::string expected_ops_;
};

/// \brief Appends a finished span to `timing` — only when the stopwatch
/// was live, so untimed requests accumulate nothing.
void AddSpan(ResponseTiming* timing, const char* stage,
             const Stopwatch& stopwatch);

/// \brief Runs `spec.fetch` inside a `cache` span, recorded only when the
/// fetch made a lookup.
OpInputs FetchOpInputs(const OpSpec& spec, OpHost& host,
                       const CatalogEntry& entry,
                       const ServiceRequest& request, const Clock* clk,
                       ResponseTiming* timing);

/// \brief Runs `spec.solve` inside a `fold` span.
Result<ServiceResponse> SolveOp(const OpSpec& spec, const Engine& engine,
                                const CatalogEntry& entry,
                                const ServiceRequest& request,
                                const OpInputs& inputs, const Clock* clk,
                                ResponseTiming* timing);

/// \brief The in-band refusal for op=metrics when metrics are disabled.
Status MetricsDisabledError();

}  // namespace cpdb

#endif  // CPDB_SERVICE_OP_REGISTRY_H_
