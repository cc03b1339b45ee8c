// Copyright 2026 The ConsensusDB Authors

#include "service/query_scheduler.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "io/table_io.h"
#include "io/tree_text.h"
#include "model/builders.h"
#include "service/op_registry.h"

namespace cpdb {

ServeInstruments::ServeInstruments() {
  requests_total =
      registry.AddCounter("cpdb_requests_total", "Requests received, any op.");
  request_errors_total = registry.AddCounter(
      "cpdb_request_errors_total", "Requests answered with an error line.");
  // The per-op instruments are generated from the registry's wire names in
  // table order — existing ops first, so every historical instrument keeps
  // its exact name and help text, and a new op's pair appears the moment
  // its row is registered.
  const std::vector<OpSpec>& specs = OpRegistry::Get().specs();
  op_requests.reserve(specs.size());
  for (const OpSpec& spec : specs) {
    op_requests.push_back(
        registry.AddCounter("cpdb_" + std::string(spec.name) + "_requests_total",
                            "op=" + std::string(spec.name) + " requests received."));
  }
  op_latencies.reserve(specs.size());
  for (const OpSpec& spec : specs) {
    op_latencies.push_back(registry.AddHistogram(
        "cpdb_" + std::string(spec.name) + "_latency_nanoseconds",
        "op=" + std::string(spec.name) + " service latency."));
  }
  stage_parse = registry.AddHistogram(
      "cpdb_stage_parse_latency_nanoseconds",
      "Parse durations: request lines and load-file trees.");
  stage_catalog =
      registry.AddHistogram("cpdb_stage_catalog_latency_nanoseconds",
                            "Catalog insert and lookup durations.");
  stage_cache = registry.AddHistogram(
      "cpdb_stage_cache_latency_nanoseconds",
      "Memo-cache routing durations (folds on miss included).");
  stage_fold = registry.AddHistogram("cpdb_stage_fold_latency_nanoseconds",
                                     "Engine evaluation durations.");
  stage_format = registry.AddHistogram(
      "cpdb_stage_format_latency_nanoseconds",
      "Response formatting durations (recorded by the transport).");
}

LatencyHistogram* ServeInstruments::stage(const std::string& name) {
  if (name == "parse") return stage_parse;
  if (name == "catalog") return stage_catalog;
  if (name == "cache") return stage_cache;
  if (name == "fold") return stage_fold;
  if (name == "format") return stage_format;
  return nullptr;
}

void AppendCacheStatsMetrics(const CacheStats& stats,
                             const std::string& prefix, MetricsSnapshot* out) {
  auto add = [&](const char* name, MetricSample::Kind kind, int64_t value,
                 const char* help) {
    MetricSample sample;
    sample.name = prefix + name;
    sample.help = help;
    sample.kind = kind;
    sample.value = value;
    out->samples.push_back(std::move(sample));
  };
  add("hits_total", MetricSample::Kind::kCounter, stats.hits, "Cache hits.");
  add("misses_total", MetricSample::Kind::kCounter, stats.misses,
      "Cache misses (entry computed).");
  add("coalesced_total", MetricSample::Kind::kCounter, stats.coalesced,
      "Lookups coalesced onto an in-flight compute.");
  add("evictions_total", MetricSample::Kind::kCounter, stats.evictions,
      "Entries evicted under the byte budget.");
  add("entries", MetricSample::Kind::kGauge, stats.entries,
      "Entries currently retained.");
  add("bytes", MetricSample::Kind::kGauge, stats.bytes,
      "Bytes currently charged against the budget.");
}

std::string FormatSlowQueryLine(int64_t line_number,
                                const std::string& raw_request,
                                const ResponseTiming& timing) {
  std::string out = "slow-query\tline=" + std::to_string(line_number);
  out += "\ttotal_ms=" +
         FormatRoundTripDouble(static_cast<double>(timing.total_ns) / 1e6);
  for (const auto& [stage, nanos] : timing.spans) {
    out += "\t" + stage + "_ns=" + std::to_string(nanos);
  }
  out += "\trequest=" + EscapeFieldValue(raw_request);
  return out;
}

QueryScheduler::QueryScheduler(const Engine* engine, TreeCatalog* catalog,
                               SchedulerOptions options)
    : engine_(engine),
      catalog_(catalog),
      options_(options),
      clock_(options.clock != nullptr ? options.clock
                                      : SteadyClock::Instance()),
      instruments_(options.enable_metrics ? std::make_unique<ServeInstruments>()
                                          : nullptr),
      cache_(options.cache_budget_bytes),
      marginals_cache_(options.cache_budget_bytes),
      precompute_cache_(options.cache_budget_bytes) {}

Result<AndXorTree> LoadRequestTree(const ServiceRequest& request) {
  CPDB_ASSIGN_OR_RETURN(std::string content,
                        ReadFileToString(request.load_file));
  if (request.load_format == "tree") {
    return ParseTree(content);
  }
  CPDB_ASSIGN_OR_RETURN(std::vector<Block> blocks, ParseBidTable(content));
  return MakeBlockIndependent(blocks);
}

Result<ServiceResponse> QueryScheduler::ExecuteLoadTimed(
    const ServiceRequest& request, const Clock* clk, ResponseTiming* timing) {
  Stopwatch parse_watch(clk);
  Result<AndXorTree> tree = LoadRequestTree(request);
  AddSpan(timing, "parse", parse_watch);
  if (!tree.ok()) return tree.status();
  Stopwatch catalog_watch(clk);
  Result<CatalogEntry> entry =
      catalog_->Insert(request.load_name, std::move(*tree));
  AddSpan(timing, "catalog", catalog_watch);
  if (!entry.ok()) return entry.status();
  ServiceResponse response;
  response.op = ServiceRequest::Op::kLoad;
  response.tree_name = entry->name;
  response.fingerprint = entry->content_fp;
  return response;
}

std::shared_ptr<const RankDistribution> QueryScheduler::DistFor(
    const CatalogEntry& entry, const ServiceRequest& request) {
  // A request that can only fail (bad k, unsupported metric/answer pair)
  // must not populate the cache: the engine rejects such queries *before*
  // paying the fold, and the scheduler keeps that property. The engine
  // call downstream reports the actual error.
  if (!options_.use_cache || request.k < 1 ||
      !Engine::ValidateConsensusRequest(request.metric, request.answer).ok()) {
    return nullptr;
  }
  // Keyed by struct_key: permuted duplicates resolve to one entry. The
  // fold itself runs over the catalog's canonical tree with the catalog's
  // precompiled per-shape program, so a miss pays the O(L^2 k) fold but
  // never a compile.
  const AndXorTree& tree = *entry.tree;
  const int k = request.k;
  return cache_.GetOrCompute(entry.struct_key, k, [this, &tree, k, &entry] {
    return engine_->ComputeRankDistribution(tree, k, entry.program.get());
  });
}

std::shared_ptr<const RankDistribution> QueryScheduler::RankDistFor(
    const CatalogEntry& entry, int k) {
  const AndXorTree& tree = *entry.tree;
  if (!options_.use_cache) {
    return std::make_shared<const RankDistribution>(
        engine_->ComputeRankDistribution(tree, k, entry.program.get()));
  }
  // Same (StructKey, k) keying as the consensus path's DistFor, so a
  // baseline probe and a Top-k query against the same content share one
  // fold — in either order.
  return cache_.GetOrCompute(entry.struct_key, k, [this, &tree, k, &entry] {
    return engine_->ComputeRankDistribution(tree, k, entry.program.get());
  });
}

std::shared_ptr<const std::vector<double>> QueryScheduler::MarginalsFor(
    const CatalogEntry& entry) {
  const AndXorTree& tree = *entry.tree;
  if (!options_.use_cache) {
    return std::make_shared<const std::vector<double>>(
        engine_->LeafMarginals(tree, entry.program.get()));
  }
  return marginals_cache_.GetOrCompute(entry.struct_key, [this, &tree, &entry] {
    return engine_->LeafMarginals(tree, entry.program.get());
  });
}

ServiceResponse QueryScheduler::StatsResponse() const {
  ServiceResponse response;
  response.op = ServiceRequest::Op::kStats;
  response.stats = cache_.stats();
  response.marginals_stats = marginals_cache_.stats();
  response.catalog = catalog_->Counts();
  return response;
}

MetricsSnapshot QueryScheduler::MetricsSnapshotNow() const {
  MetricsSnapshot snapshot = instruments_->registry.Snapshot();
  // The registry holds the serve-path instruments; the engine counters and
  // the cache counters live in their own structs and are re-exported into
  // the same scrape, so one op=metrics answer covers the whole shard.
  MetricsSnapshot extra;
  const EngineObsCounters engine_counters = engine_->obs_counters();
  const CatalogCounts catalog_counts = catalog_->Counts();
  MetricSample fold_compiles;
  fold_compiles.name = "cpdb_fold_compiles_total";
  fold_compiles.help =
      "FlatTree compilations performed: the catalog's one-per-shape compiles "
      "plus the engine's on-demand ones.";
  fold_compiles.kind = MetricSample::Kind::kCounter;
  fold_compiles.value =
      engine_counters.fold_compiles + catalog_->fold_compiles();
  extra.samples.push_back(std::move(fold_compiles));
  MetricSample catalog_entries;
  catalog_entries.name = "cpdb_catalog_entries";
  catalog_entries.help = "Names bound in the tree catalog.";
  catalog_entries.kind = MetricSample::Kind::kGauge;
  catalog_entries.value = catalog_counts.names;
  extra.samples.push_back(std::move(catalog_entries));
  MetricSample catalog_shapes;
  catalog_shapes.name = "cpdb_catalog_shapes";
  catalog_shapes.help =
      "Distinct tree structures (canonical orientations) in the catalog.";
  catalog_shapes.kind = MetricSample::Kind::kGauge;
  catalog_shapes.value = catalog_counts.shapes;
  extra.samples.push_back(std::move(catalog_shapes));
  MetricSample arena_highwater;
  arena_highwater.name = "cpdb_poly_arena_highwater_bytes";
  arena_highwater.help =
      "Peak thread-local fold-arena capacity observed on any engine thread.";
  arena_highwater.kind = MetricSample::Kind::kGauge;
  arena_highwater.value = engine_counters.arena_highwater_bytes;
  extra.samples.push_back(std::move(arena_highwater));
  AppendCacheStatsMetrics(cache_.stats(), "cpdb_rankdist_cache_", &extra);
  AppendCacheStatsMetrics(marginals_cache_.stats(), "cpdb_marginals_cache_",
                          &extra);
  AppendCacheStatsMetrics(precompute_cache_.stats(), "cpdb_precompute_cache_",
                          &extra);
  std::sort(extra.samples.begin(), extra.samples.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  snapshot.MergeFrom(extra);
  return snapshot;
}

void QueryScheduler::FinishTiming(const ServiceRequest& request,
                                  ResponseTiming* timing,
                                  Result<ServiceResponse>* response) {
  timing->total_ns = 0;
  for (const auto& [stage, nanos] : timing->spans) timing->total_ns += nanos;
  if (instruments_ != nullptr && !timing->spans.empty()) {
    instruments_->op_latency(request.op)->Record(timing->total_ns);
    for (const auto& [stage, nanos] : timing->spans) {
      if (LatencyHistogram* hist = instruments_->stage(stage)) {
        hist->Record(nanos);
      }
    }
  }
  // Attach timing to every timed ok response — not just traced ones: the
  // transport's slow-query log reads total_ns off the response. The wire
  // is unaffected because ResponseToFields only renders trace_* fields
  // when timing.trace (the request said trace=on) is set.
  if (response->ok() && !timing->spans.empty()) {
    timing->trace = request.trace;
    (*response)->timing = std::move(*timing);
  }
}

// The OpHost surface the registry's hooks execute against when the op runs
// on this (single-engine) scheduler: straight forwarding onto the private
// primitives. Lives in namespace cpdb so the header's friend declaration
// names exactly this class.
class SchedulerOpHost : public OpHost {
 public:
  explicit SchedulerOpHost(QueryScheduler* scheduler)
      : scheduler_(scheduler) {}

  const Engine* engine() const override { return scheduler_->engine_; }

  std::shared_ptr<const RankDistribution> GatedDistFor(
      const CatalogEntry& entry, const ServiceRequest& request) override {
    return scheduler_->DistFor(entry, request);
  }

  std::shared_ptr<const RankDistribution> RankDistFor(const CatalogEntry& entry,
                                                      int k) override {
    return scheduler_->RankDistFor(entry, k);
  }

  std::shared_ptr<const std::vector<double>> MarginalsFor(
      const CatalogEntry& entry) override {
    return scheduler_->MarginalsFor(entry);
  }

  // The tail precomputes: through the precompute cache when caching is on,
  // the base class's fresh computation otherwise.
  std::shared_ptr<const std::vector<std::vector<double>>> KendallFor(
      const CatalogEntry& entry, int k) override {
    if (!scheduler_->options_.use_cache) return OpHost::KendallFor(entry, k);
    return scheduler_->precompute_cache_.KendallQ(
        entry.struct_key, k, [this, &entry, k] {
          return engine()->KendallQMatrix(*entry.tree, k, entry.program.get());
        });
  }

  std::shared_ptr<const Result<TopKResult>> MedianSymDiffFor(
      const CatalogEntry& entry, const RankDistribution& dist) override {
    if (!scheduler_->options_.use_cache) {
      return OpHost::MedianSymDiffFor(entry, dist);
    }
    return scheduler_->precompute_cache_.SymDiffMedian(
        entry.struct_key, dist.k(), [this, &entry, &dist] {
          return engine()->MedianSymDiffSearch(*entry.tree, dist);
        });
  }

  std::shared_ptr<const std::vector<double>> ExpectedRanksFor(
      const CatalogEntry& entry) override {
    if (!scheduler_->options_.use_cache) return OpHost::ExpectedRanksFor(entry);
    return scheduler_->precompute_cache_.ExpectedRanks(
        entry.struct_key,
        [this, &entry] { return engine()->ExpectedRanks(*entry.tree); });
  }

  ServiceResponse StatsNow() override { return scheduler_->StatsResponse(); }

  Result<MetricsSnapshot> MetricsNow() override {
    if (scheduler_->instruments_ == nullptr) return MetricsDisabledError();
    return scheduler_->MetricsSnapshotNow();
  }

  Result<ServiceResponse> ExecuteLoadOp(const ServiceRequest& request,
                                        const Clock* clk,
                                        ResponseTiming* timing) override {
    return scheduler_->ExecuteLoadTimed(request, clk, timing);
  }

 private:
  QueryScheduler* scheduler_;
};

namespace {

// The shared admin-op wrapper (stats, metrics — any kAdmin row): one
// whole-op measurement, no stages, recorded *after* the hook runs so a
// metrics scrape describes the work before it, never itself. A refused op
// (e.g. metrics while disabled) records nothing — the caller counts the
// error.
Result<ServiceResponse> ExecuteAdminTimed(const OpSpec& spec, OpHost& host,
                                          const ServiceRequest& request,
                                          const Clock* clk,
                                          ServeInstruments* instruments) {
  Stopwatch watch(clk);
  Result<ServiceResponse> response = spec.execute_admin(host, request);
  if (watch.enabled() && response.ok()) {
    (*response).timing.total_ns = watch.ElapsedNanos();
    (*response).timing.trace = request.trace;
    if (instruments != nullptr) {
      instruments->op_latency(spec.op)->Record((*response).timing.total_ns);
    }
  }
  return response;
}

}  // namespace

std::vector<Result<ServiceResponse>> QueryScheduler::ExecuteBatch(
    const std::vector<ServiceRequest>& requests) {
  std::vector<Result<ServiceResponse>> responses(
      requests.size(),
      Result<ServiceResponse>(Status::Internal("request not executed")));
  const OpRegistry& ops = OpRegistry::Get();
  SchedulerOpHost host(this);

  // Timing is live when metrics are on or any request asked for a trace;
  // otherwise `clk` is null and every Stopwatch below is inert (zero clock
  // reads). Instrumentation never touches answer bytes either way.
  bool any_trace = false;
  for (const ServiceRequest& request : requests) any_trace |= request.trace;
  const Clock* clk = TimingClock(any_trace);
  ServeInstruments* instruments = instruments_.get();
  if (instruments != nullptr) {
    instruments->requests_total->Increment(
        static_cast<int64_t>(requests.size()));
    for (const ServiceRequest& request : requests) {
      instruments->op_counter(request.op)->Increment();
    }
  }
  std::vector<ResponseTiming> timings(requests.size());

  // Loads first, in request order: a batch is a unit of work, so queries
  // may reference trees loaded anywhere in the same batch.
  for (size_t i = 0; i < requests.size(); ++i) {
    if (ops.spec(requests[i].op).batch_phase == kLoadPhase) {
      responses[i] = host.ExecuteLoadOp(requests[i], clk, &timings[i]);
    }
  }

  // Resolve every tree-addressed slot's tree; unknown names fail their
  // slot only. Slots whose spec fuses into the consensus batch are split
  // from the ones executing their own hook.
  std::vector<size_t> fused_slots;
  std::vector<CatalogEntry> fused_entries;
  std::vector<size_t> direct_slots;
  std::vector<CatalogEntry> direct_entries;
  for (size_t i = 0; i < requests.size(); ++i) {
    const OpSpec& spec = ops.spec(requests[i].op);
    if (spec.routing != OpRouting::kTreeAddressed) continue;
    Stopwatch catalog_watch(clk);
    Result<CatalogEntry> entry = catalog_->Lookup(requests[i].tree_name);
    AddSpan(&timings[i], "catalog", catalog_watch);
    if (!entry.ok()) {
      responses[i] = entry.status();
      continue;
    }
    if (spec.fuse_consensus_batch) {
      fused_slots.push_back(i);
      fused_entries.push_back(*std::move(entry));
    } else {
      direct_slots.push_back(i);
      direct_entries.push_back(*std::move(entry));
    }
  }

  // The deduplication step: route every Top-k query's shared precomputes —
  // its rank distribution, then the tail precompute its metric needs —
  // through the StructKey-keyed caches, in slot order, so the first query
  // of each key computes and the rest hit, within this batch and across
  // batches alike. Misses compute here on the calling thread (each fanning
  // its own units across the pool), so no pool worker ever waits on
  // another's in-flight compute. The handles keep cached entries alive for
  // the duration of the engine call even if they are evicted meanwhile.
  std::vector<std::shared_ptr<const RankDistribution>> dists(
      fused_slots.size());
  std::vector<ConsensusTailHandles> tails(fused_slots.size());
  for (size_t j = 0; j < fused_slots.size(); ++j) {
    const ServiceRequest& request = requests[fused_slots[j]];
    Stopwatch cache_watch(clk);
    dists[j] = DistFor(fused_entries[j], request);
    if (dists[j] != nullptr) {
      tails[j] = ConsensusTailsFor(host, fused_entries[j], request, *dists[j]);
    }
    AddSpan(&timings[fused_slots[j]], "cache", cache_watch);
  }

  // One engine submission for all fused slots: whole queries fan across
  // the pool, cached precomputes are shared read-only.
  std::vector<Engine::ConsensusQuery> queries(fused_slots.size());
  for (size_t j = 0; j < fused_slots.size(); ++j) {
    const ServiceRequest& request = requests[fused_slots[j]];
    queries[j] = {fused_entries[j].tree.get(), request.k, request.metric,
                  request.answer, dists[j].get(),
                  fused_entries[j].program.get(), tails[j].view()};
  }
  Stopwatch fold_watch(clk);
  std::vector<Result<TopKResult>> results =
      engine_->EvaluateConsensusBatch(queries);
  // The whole submission is one engine call, so per-slot attribution inside
  // it would be fiction: its duration is split evenly across the fused
  // slots, the first also taking the remainder, so the slots' fold spans
  // sum to the submission's wall time. One fold span per slot is what the
  // sharded-parity tests count; values are side-band by contract.
  const int64_t batch_fold_nanos = fold_watch.ElapsedNanos();
  const int64_t num_fused = static_cast<int64_t>(fused_slots.size());
  for (size_t j = 0; j < fused_slots.size(); ++j) {
    const size_t slot = fused_slots[j];
    if (fold_watch.enabled()) {
      timings[slot].spans.emplace_back(
          "fold", batch_fold_nanos / num_fused +
                      (j == 0 ? batch_fold_nanos % num_fused : 0));
    }
    if (!results[j].ok()) {
      responses[slot] = results[j].status();
      continue;
    }
    responses[slot] = ConsensusTopKResponse(requests[slot], *results[j]);
  }

  // The direct tree-addressed slots (worlds, the analytics ops) run their
  // own execute hooks after the fused finalize, in slot order — each
  // routes its precompute through the caches inside the hook.
  for (size_t j = 0; j < direct_slots.size(); ++j) {
    const size_t slot = direct_slots[j];
    responses[slot] = ops.spec(requests[slot].op)
                          .execute_tree(host, direct_entries[j],
                                        requests[slot], clk, &timings[slot]);
  }

  // Close out load/query timing — histogram records and error counts land
  // *before* the admin passes below, so a scrape in this batch describes
  // all of the batch's query work, sharded or not.
  for (size_t i = 0; i < requests.size(); ++i) {
    if (ops.spec(requests[i].op).batch_phase >= kStatsPhase) continue;
    FinishTiming(requests[i], &timings[i], &responses[i]);
    if (instruments != nullptr && !responses[i].ok()) {
      instruments->request_errors_total->Increment();
    }
  }

  // Admin phases in declared order — stats next-to-last (the counters
  // describe the batch that just ran), metrics last of all (a scrape in a
  // batch answers for everything the batch did, its stats probes
  // included), regardless of slot order.
  for (int phase : {kStatsPhase, kMetricsPhase}) {
    for (size_t i = 0; i < requests.size(); ++i) {
      const OpSpec& spec = ops.spec(requests[i].op);
      if (spec.batch_phase != phase) continue;
      responses[i] =
          ExecuteAdminTimed(spec, host, requests[i], clk, instruments);
      if (instruments != nullptr && !responses[i].ok()) {
        instruments->request_errors_total->Increment();
      }
    }
  }
  return responses;
}

Result<ServiceResponse> QueryScheduler::ExecuteOne(
    const ServiceRequest& request) {
  const OpSpec& spec = OpRegistry::Get().spec(request.op);
  SchedulerOpHost host(this);
  const Clock* clk = TimingClock(request.trace);
  ServeInstruments* instruments = instruments_.get();
  if (instruments != nullptr) {
    instruments->requests_total->Increment();
    instruments->op_counter(request.op)->Increment();
  }
  // Dispatch is by routing trait — three shapes of execution, not one
  // branch per op. Adding an op touches the registry table, never this
  // switch.
  Result<ServiceResponse> result = [&]() -> Result<ServiceResponse> {
    ResponseTiming timing;
    switch (spec.routing) {
      case OpRouting::kCatalogGlobal: {
        Result<ServiceResponse> response =
            host.ExecuteLoadOp(request, clk, &timing);
        FinishTiming(request, &timing, &response);
        return response;
      }
      case OpRouting::kAdmin:
        return ExecuteAdminTimed(spec, host, request, clk, instruments);
      case OpRouting::kTreeAddressed: {
        Stopwatch catalog_watch(clk);
        Result<CatalogEntry> entry = catalog_->Lookup(request.tree_name);
        AddSpan(&timing, "catalog", catalog_watch);
        Result<ServiceResponse> response =
            entry.ok() ? spec.execute_tree(host, *entry, request, clk, &timing)
                       : Result<ServiceResponse>(entry.status());
        FinishTiming(request, &timing, &response);
        return response;
      }
    }
    return Status::Internal("unknown request op");
  }();
  if (instruments != nullptr && !result.ok()) {
    instruments->request_errors_total->Increment();
  }
  return result;
}

void QueryScheduler::ExecuteStreaming(
    const std::function<bool(ServiceRequest*)>& next,
    const std::function<void(const Result<ServiceResponse>&)>& emit) {
  ServiceRequest request;
  // The contract is the loop shape itself: each response is emitted before
  // the next request is pulled, so a client driving `next` from a pipe has
  // answer N in hand while composing request N+1.
  while (next(&request)) {
    emit(ExecuteOne(request));
  }
}

}  // namespace cpdb
