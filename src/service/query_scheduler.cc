// Copyright 2026 The ConsensusDB Authors

#include "service/query_scheduler.h"

#include <algorithm>
#include <exception>
#include <memory>
#include <set>
#include <thread>
#include <utility>

#include "io/table_io.h"
#include "io/tree_text.h"
#include "model/builders.h"
#include "service/catalog_snapshot.h"
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

namespace {

// Reads and parses a kLoad request's file into a validated tree
// (request.load_format selects the parser) — the front half of load
// execution, ahead of identity and routing.
Result<AndXorTree> LoadRequestTree(const ServiceRequest& request) {
  CPDB_ASSIGN_OR_RETURN(std::string content,
                        ReadFileToString(request.load_file));
  if (request.load_format == "tree") {
    return ParseTree(content);
  }
  CPDB_ASSIGN_OR_RETURN(std::vector<Block> blocks, ParseBidTable(content));
  return MakeBlockIndependent(blocks);
}

void AccumulateCacheStats(CacheStats* total, const CacheStats& part) {
  total->hits += part.hits;
  total->misses += part.misses;
  total->coalesced += part.coalesced;
  total->entries += part.entries;
  total->bytes += part.bytes;
  total->evictions += part.evictions;
}

// One shape in a shard's fold plan for one batch: the largest k the
// batch's fetches read the shape's rank distribution at, and a fold at that
// k taken early for a smaller k's miss, waiting for k's own miss.
struct PlannedShape {
  int k = 0;
  std::unique_ptr<RankDistribution> stash;
};

// A shard's fold plan for one batch. It lives in ExecuteSlots' frame, never
// on the shard, since concurrent batches share shards.
using FoldPlan = std::map<StructKey, PlannedShape>;

}  // namespace

// One shard's execution context: an engine and a catalog (owned, or
// borrowed by the single-shard constructor), the three memo caches — the
// only mutable serving state besides the catalog maps — and the
// instruments every request the shard owns records into.
class QueryScheduler::Shard {
 public:
  Shard(const Engine* engine_in, TreeCatalog* catalog_in,
        const SchedulerOptions& options)
      : engine(engine_in),
        catalog(catalog_in),
        instruments(options.enable_metrics
                        ? std::make_unique<ServeInstruments>()
                        : nullptr),
        cache(options.cache_budget_bytes),
        marginals_cache(options.cache_budget_bytes),
        precompute_cache(options.cache_budget_bytes) {}

  Shard(std::unique_ptr<Engine> engine_in,
        std::unique_ptr<TreeCatalog> catalog_in,
        const SchedulerOptions& options)
      : Shard(engine_in.get(), catalog_in.get(), options) {
    owned_engine = std::move(engine_in);
    owned_catalog = std::move(catalog_in);
  }

  /// The rank distribution at cutoff k unconditionally (the baseline
  /// rankings' precompute too), through the cache. Keyed by (StructKey, k),
  /// so permuted duplicates, and a baseline probe and a Top-k query against
  /// one shape, share one fold — which runs over the catalog's canonical
  /// tree with its precompiled program, so a miss pays the O(L^2 k) fold
  /// but never a compile.
  ///
  /// With a batch's `plan`, each shape folds once, at its planned k: a miss
  /// below it is a prefix (bitwise the direct fold, the prefix lemma in
  /// core/rank_distribution.h) of, in order, the stashed fold, a resident
  /// entry at the planned k, or a fresh fold at the planned k, which is
  /// stashed; the planned k's own miss takes the stash over, so no second
  /// copy stays alive. The cache sees exactly the lookups it would without
  /// a plan.
  std::shared_ptr<const RankDistribution> RankDistFor(const CatalogEntry& entry,
                                                      int k, FoldPlan* plan) {
    auto fold = [this, &entry](int at) {
      return engine->ComputeRankDistribution(*entry.tree, at,
                                             entry.program.get());
    };
    return cache.GetOrCompute(entry.struct_key, k, [&]() -> RankDistribution {
      PlannedShape* shape = nullptr;
      if (plan != nullptr) {
        auto planned = plan->find(entry.struct_key);
        if (planned != plan->end()) shape = &planned->second;
      }
      if (shape == nullptr) return fold(k);
      if (k >= shape->k) {
        if (shape->stash == nullptr || shape->stash->k() != k) return fold(k);
        RankDistribution taken = std::move(*shape->stash);
        shape->stash.reset();
        return taken;
      }
      if (shape->stash == nullptr) {
        if (std::shared_ptr<const RankDistribution> resident =
                cache.Peek(entry.struct_key, shape->k)) {
          return resident->Prefix(k);
        }
        shape->stash = std::make_unique<RankDistribution>(fold(shape->k));
      }
      return shape->stash->Prefix(k);
    });
  }

  /// The leaf marginals for a tree-addressed request, through the marginals
  /// cache.
  std::shared_ptr<const std::vector<double>> MarginalsFor(
      const CatalogEntry& entry) {
    return marginals_cache.GetOrCompute(entry.struct_key, [this, &entry] {
      return engine->LeafMarginals(*entry.tree, entry.program.get());
    });
  }

  /// Counts one request into this shard's registry.
  void Count(const ServiceRequest& request) const {
    if (instruments == nullptr) return;
    instruments->requests_total->Increment();
    instruments->op_counter(request.op)->Increment();
  }

  /// Closes out a load or tree-addressed request: counts it, sums its
  /// spans into total_ns, records the op and stage histograms and any
  /// error (when metrics are on), and attaches the timing to an ok
  /// response — every timed one, not just traced ones, since the
  /// transport's slow-query log reads total_ns off it. The wire is
  /// unaffected: ResponseToFields renders trace_* fields only when
  /// timing.trace (the request said trace=on) is set.
  void Finish(const ServiceRequest& request, ResponseTiming* timing,
              Result<ServiceResponse>* response) const {
    timing->total_ns = 0;
    for (const auto& [stage, nanos] : timing->spans) timing->total_ns += nanos;
    if (instruments != nullptr) {
      Count(request);
      if (!timing->spans.empty()) {
        instruments->op_latency(request.op)->Record(timing->total_ns);
        for (const auto& [stage, nanos] : timing->spans) {
          if (LatencyHistogram* hist = instruments->stage(stage)) {
            hist->Record(nanos);
          }
        }
      }
      if (!response->ok()) instruments->request_errors_total->Increment();
    }
    if (response->ok() && !timing->spans.empty()) {
      timing->trace = request.trace;
      (*response)->timing = std::move(*timing);
    }
  }

  /// Executes this shard's tree-addressed slots of a batch — the only way
  /// a tree-addressed request executes: catalog lookups, then every
  /// slot's fetch in slot order, then every slot's solve fanned across the
  /// engine's pool. Writes only (*responses)[slot] and (*timings)[slot]
  /// for its own slots.
  void ExecuteSlots(QueryScheduler* front,
                    const std::vector<ServiceRequest>& requests,
                    const std::vector<size_t>& slots, const Clock* clk,
                    std::vector<Result<ServiceResponse>>* responses,
                    std::vector<ResponseTiming>* timings);

  ShardCacheStats Stats() const {
    return ShardCacheStats{cache.stats(), marginals_cache.stats(),
                           catalog->Counts()};
  }

  /// This shard's scrape: the registry's instruments plus the engine,
  /// catalog and cache counters re-exported into the same snapshot.
  MetricsSnapshot Metrics() const;

  std::unique_ptr<Engine> owned_engine;
  std::unique_ptr<TreeCatalog> owned_catalog;
  const Engine* engine;
  TreeCatalog* catalog;
  const std::unique_ptr<ServeInstruments> instruments;
  RankDistCache cache;
  MarginalsCache marginals_cache;
  PrecomputeCache precompute_cache;
};

// The OpHost surface every registry hook executes against: the tree
// primitives resolve on `shard` (the one holding the request's tree), the
// admin and load primitives on the front end.
class QueryScheduler::Host : public OpHost {
 public:
  Host(QueryScheduler* front, Shard* shard, FoldPlan* plan = nullptr)
      : front_(front), shard_(shard), plan_(plan) {}

  const Engine* engine() const override { return shard_->engine; }

  // Through the cache (single-flight, charged against the budget), or
  // nullptr when the request can only fail — its solve rejects it without
  // a fold, and the cache must not be populated for it.
  std::shared_ptr<const RankDistribution> GatedDistFor(
      const CatalogEntry& entry, const ServiceRequest& request) override {
    const int k = OpRegistry::Get().spec(request.op).rank_k(request);
    if (k == 0) return nullptr;
    return RankDistFor(entry, k);
  }

  std::shared_ptr<const RankDistribution> RankDistFor(const CatalogEntry& entry,
                                                      int k) override {
    return shard_->RankDistFor(entry, k, plan_);
  }

  std::shared_ptr<const std::vector<double>> MarginalsFor(
      const CatalogEntry& entry) override {
    return shard_->MarginalsFor(entry);
  }

  // The tail precomputes, through the precompute cache.
  std::shared_ptr<const Result<TopKResult>> KendallMeanFor(
      const CatalogEntry& entry, const RankDistribution& dist) override {
    return shard_->precompute_cache.KendallMean(
        entry.struct_key, dist.k(), [this, &entry, &dist] {
          return engine()->ConsensusTopKWithDist(
              *entry.tree, dist, TopKMetric::kKendall, TopKAnswer::kMean,
              entry.program.get());
        });
  }

  std::shared_ptr<const Result<TopKResult>> MedianSymDiffFor(
      const CatalogEntry& entry, const RankDistribution& dist) override {
    return shard_->precompute_cache.SymDiffMedian(
        entry.struct_key, dist.k(), [this, &entry, &dist] {
          return engine()->MedianSymDiffSearch(*entry.tree, dist);
        });
  }

  std::shared_ptr<const std::vector<double>> ExpectedRanksFor(
      const CatalogEntry& entry) override {
    return shard_->precompute_cache.ExpectedRanks(
        entry.struct_key,
        [this, &entry] { return engine()->ExpectedRanks(*entry.tree); });
  }

  ServiceResponse StatsNow() override { return front_->StatsResponse(); }

  Result<MetricsSnapshot> MetricsNow() override {
    if (!front_->options_.enable_metrics) return MetricsDisabledError();
    return front_->MetricsSnapshotNow();
  }

  // The scheduler itself calls ExecuteLoad directly, since it needs the
  // owning shard to record the load on.
  Result<ServiceResponse> ExecuteLoadOp(const ServiceRequest& request,
                                        const Clock* clk,
                                        ResponseTiming* timing) override {
    size_t shard = 0;
    return front_->ExecuteLoad(request, clk, timing, &shard);
  }

 private:
  QueryScheduler* front_;
  Shard* shard_;
  FoldPlan* plan_;
};

void QueryScheduler::Shard::ExecuteSlots(
    QueryScheduler* front, const std::vector<ServiceRequest>& requests,
    const std::vector<size_t>& slots, const Clock* clk,
    std::vector<Result<ServiceResponse>>* responses,
    std::vector<ResponseTiming>* timings) {
  const OpRegistry& ops = OpRegistry::Get();
  FoldPlan plan;
  Host host(front, this, &plan);

  // 1. Resolve every slot's tree; unknown names fail their slot only.
  std::vector<size_t> live;
  std::vector<CatalogEntry> entries;
  for (size_t slot : slots) {
    Stopwatch catalog_watch(clk);
    Result<CatalogEntry> entry = catalog->Lookup(requests[slot].tree_name);
    AddSpan(&(*timings)[slot], "catalog", catalog_watch);
    if (!entry.ok()) {
      (*responses)[slot] = entry.status();
      continue;
    }
    live.push_back(slot);
    entries.push_back(*std::move(entry));
  }

  // 2. Plan: each shape's largest rank cutoff among the live slots, so a
  // smaller cutoff's miss folds once, at it (RankDistFor).
  for (size_t j = 0; j < live.size(); ++j) {
    const ServiceRequest& request = requests[live[j]];
    const int k = ops.spec(request.op).rank_k(request);
    if (k > 0) {
      int& planned = plan[entries[j].struct_key].k;
      planned = std::max(planned, k);
    }
  }

  // 3. Fetch, in slot order on this thread: every slot's precomputes route
  // through the StructKey-keyed caches, so the first request of each key
  // computes and the rest hit, within this batch and across batches alike.
  // A miss fans its own units across the pool, so no pool worker ever
  // waits on another's in-flight compute. The handles keep cached entries
  // alive through the solves even if they are evicted meanwhile.
  std::vector<OpInputs> inputs(live.size());
  for (size_t j = 0; j < live.size(); ++j) {
    const ServiceRequest& request = requests[live[j]];
    inputs[j] = FetchOpInputs(ops.spec(request.op), host, entries[j], request,
                              clk, &(*timings)[live[j]]);
  }

  // 4. Solve: whole solves fan across the pool, each timed by its own fold
  // span. A slot is written by exactly one unit and every solve is
  // schedule-deterministic, so the answers are those of a sequential loop,
  // bitwise. Solves nest their own ParallelFor (the pool is nest-safe), so
  // inner units of one solve fill gaps left by another. Pool tasks must
  // not throw: a throwing solve fails its own slot.
  engine->ParallelFor(static_cast<int64_t>(live.size()), [&](int64_t i) {
    const size_t j = static_cast<size_t>(i);
    const size_t slot = live[j];
    const ServiceRequest& request = requests[slot];
    try {
      (*responses)[slot] = SolveOp(ops.spec(request.op), *engine, entries[j],
                                   request, inputs[j], clk, &(*timings)[slot]);
    } catch (const std::exception& e) {
      (*responses)[slot] =
          Status::Internal(std::string("solve failed: ") + e.what());
    } catch (...) {
      (*responses)[slot] = Status::Internal("solve failed");
    }
  });

  for (size_t slot : slots) {
    Finish(requests[slot], &(*timings)[slot], &(*responses)[slot]);
  }
}

MetricsSnapshot QueryScheduler::Shard::Metrics() const {
  MetricsSnapshot snapshot = instruments->registry.Snapshot();
  MetricsSnapshot extra;
  auto add = [&extra](const char* name, const char* help,
                      MetricSample::Kind kind, int64_t value) {
    MetricSample sample;
    sample.name = name;
    sample.help = help;
    sample.kind = kind;
    sample.value = value;
    extra.samples.push_back(std::move(sample));
  };
  const EngineObsCounters engine_counters = engine->obs_counters();
  const CatalogCounts catalog_counts = catalog->Counts();
  add("cpdb_fold_compiles_total",
      "FlatTree compilations performed: the catalog's one-per-shape compiles "
      "plus the engine's on-demand ones.",
      MetricSample::Kind::kCounter,
      engine_counters.fold_compiles + catalog->fold_compiles());
  add("cpdb_rank_folds_total",
      "Rank-distribution folds performed; a batch folds each shape once, at "
      "its largest k.",
      MetricSample::Kind::kCounter, engine_counters.rank_folds);
  add("cpdb_catalog_entries", "Names bound in the tree catalog.",
      MetricSample::Kind::kGauge, catalog_counts.names);
  add("cpdb_catalog_shapes",
      "Distinct tree structures (canonical orientations) in the catalog.",
      MetricSample::Kind::kGauge, catalog_counts.shapes);
  add("cpdb_poly_arena_highwater_bytes",
      "Peak thread-local fold-arena capacity observed on any engine thread.",
      MetricSample::Kind::kGauge, engine_counters.arena_highwater_bytes);
  AppendCacheStatsMetrics(cache.stats(), "cpdb_rankdist_cache_", &extra);
  AppendCacheStatsMetrics(marginals_cache.stats(), "cpdb_marginals_cache_",
                          &extra);
  AppendCacheStatsMetrics(precompute_cache.stats(), "cpdb_precompute_cache_",
                          &extra);
  std::sort(extra.samples.begin(), extra.samples.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  snapshot.MergeFrom(extra);
  return snapshot;
}

QueryScheduler::QueryScheduler(const Engine* engine, TreeCatalog* catalog,
                               SchedulerOptions options)
    : options_(options),
      clock_(options.clock != nullptr ? options.clock
                                      : SteadyClock::Instance()),
      pool_(std::make_unique<ThreadPool>(1)) {
  shards_.push_back(std::make_unique<Shard>(engine, catalog, options_));
}

QueryScheduler::QueryScheduler(int num_shards,
                               const EngineOptions& engine_options,
                               SchedulerOptions options)
    : options_(options),
      clock_(options.clock != nullptr ? options.clock
                                      : SteadyClock::Instance()) {
  const int n = std::max(num_shards, 1);
  // ThreadsPerShard(t, 1) resolves a width < 1 to the hardware concurrency,
  // as an engine's own pool would.
  const int width = ThreadsPerShard(engine_options.num_threads, 1);
  pool_ = std::make_unique<ThreadPool>(static_cast<int>(
      std::min<int64_t>(ThreadPool::kMaxThreads, int64_t{width} * n)));
  shards_.reserve(static_cast<size_t>(n));
  for (int s = 0; s < n; ++s) {
    shards_.push_back(std::make_unique<Shard>(
        std::make_unique<Engine>(pool_.get(), width),
        std::make_unique<TreeCatalog>(), options_));
  }
}

QueryScheduler::~QueryScheduler() = default;

int QueryScheduler::ShardOfKey(StructKey key, int num_shards) {
  // SplitMix64 finalizer: a bijective remix, so the partition stays a pure
  // deterministic function of the structural key while spreading any
  // residual structure in the FNV-1a value across all 64 bits before the
  // modulo.
  uint64_t x = key.value();
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return static_cast<int>(x % static_cast<uint64_t>(std::max(num_shards, 1)));
}

int QueryScheduler::ThreadsPerShard(int total_threads, int num_shards) {
  int total = total_threads;
  if (total < 1) {
    // The ThreadPool convention: values < 1 mean the hardware concurrency.
    // Resolve it here so the split divides the real budget instead of
    // handing every shard its own full-machine pool.
    total = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  }
  return std::max(1, total / std::max(num_shards, 1));
}

Result<CatalogEntry> QueryScheduler::InsertRouted(
    const std::string& name, StructKey key,
    const std::function<Result<CatalogEntry>(TreeCatalog*)>& insert,
    size_t* out_shard) {
  if (shards_.size() == 1) {
    if (out_shard != nullptr) *out_shard = 0;
    return insert(shards_[0]->catalog);
  }
  // A bound name stays on its shard: re-inserting identical content lands
  // there anyway (same structural key, same shard), and different content
  // must reach the catalog that holds the name so the rebind is rejected
  // with exactly the AlreadyExists one catalog reports. Loads are the cold
  // path (queries take mu_ only for a map lookup), so holding mu_ across
  // the catalog insert is cheap.
  std::lock_guard<std::mutex> lock(mu_);
  auto it = directory_.find(name);
  const size_t shard =
      it != directory_.end()
          ? it->second
          : static_cast<size_t>(ShardOfKey(key, num_shards()));
  if (out_shard != nullptr) *out_shard = shard;
  Result<CatalogEntry> entry = insert(shards_[shard]->catalog);
  if (entry.ok()) directory_.emplace(name, shard);
  return entry;
}

Result<CatalogEntry> QueryScheduler::Insert(const std::string& name,
                                            AndXorTree tree) {
  return Insert(name, std::move(tree), nullptr);
}

Result<CatalogEntry> QueryScheduler::Insert(const std::string& name,
                                            AndXorTree tree,
                                            size_t* out_shard) {
  // Same error (and same cheap-first ordering) as TreeCatalog::Insert.
  if (name.empty()) {
    return Status::InvalidArgument("catalog name must not be empty");
  }
  // Serialize, hash and canonicalize once, outside the directory lock:
  // routing needs the structural key, and the catalog reuses the identity.
  CPDB_ASSIGN_OR_RETURN(TreeIdentity identity,
                        TreeCatalog::ComputeIdentity(std::move(tree)));
  return InsertRouted(
      name, identity.struct_key,
      [&](TreeCatalog* catalog) {
        return catalog->InsertWithIdentity(name, std::move(identity));
      },
      out_shard);
}

Status QueryScheduler::InstallSnapshot(CatalogSnapshot snapshot) {
  for (SnapshotTree& record : snapshot.trees) {
    // Routed by the decoder-verified structural key; the record's own
    // identity moves into the catalog as is, like a live load after
    // ComputeIdentity, and its name stays.
    TreeIdentity& identity = record;
    CPDB_RETURN_NOT_OK(InsertRouted(record.name, record.struct_key,
                                    [&](TreeCatalog* catalog) {
                                      return catalog->InsertWithIdentity(
                                          record.name, std::move(identity));
                                    })
                           .status());
  }
  for (const SnapshotDistribution& record : snapshot.distributions) {
    SeedRankDistribution(record.struct_key, record.k, record.dist);
  }
  return Status::OK();
}

CatalogSnapshot QueryScheduler::BuildSnapshot(
    bool include_distributions) const {
  CatalogSnapshot snapshot;
  std::set<StructKey> struct_keys;
  for (const auto& shard : shards_) {
    CatalogSnapshot part = BuildCatalogSnapshot(*shard->catalog, nullptr);
    for (SnapshotTree& record : part.trees) {
      struct_keys.insert(record.struct_key);
      snapshot.trees.push_back(std::move(record));
    }
  }
  // Merge order must not leak the shard count: names are disjoint across
  // shards, so sorting by name yields one canonical order whatever N was.
  std::sort(snapshot.trees.begin(), snapshot.trees.end(),
            [](const SnapshotTree& a, const SnapshotTree& b) {
              return a.name < b.name;
            });
  if (include_distributions) {
    for (RankDistCache::RetainedEntry& entry : RetainedRankDistributions()) {
      // Only keys of trees the snapshot holds: the decoder rejects a
      // distribution with no tree record, so never write one.
      if (struct_keys.count(entry.struct_key) == 0) continue;
      snapshot.distributions.push_back(SnapshotDistribution{
          entry.struct_key, entry.k, std::move(entry.dist)});
    }
  }
  return snapshot;
}

bool QueryScheduler::SeedRankDistribution(
    StructKey struct_key, int k, std::shared_ptr<const RankDistribution> dist) {
  // Each (StructKey, k) key lives on exactly one shard — the one every
  // query for that shape reaches.
  return shards_[static_cast<size_t>(ShardOfKey(struct_key, num_shards()))]
      ->cache.Seed(struct_key, k, std::move(dist));
}

std::vector<RankDistCache::RetainedEntry>
QueryScheduler::RetainedRankDistributions() const {
  std::vector<RankDistCache::RetainedEntry> entries;
  for (const auto& shard : shards_) {
    for (RankDistCache::RetainedEntry& entry : shard->cache.RetainedEntries()) {
      entries.push_back(std::move(entry));
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const RankDistCache::RetainedEntry& a,
               const RankDistCache::RetainedEntry& b) {
              if (a.struct_key != b.struct_key) {
                return a.struct_key < b.struct_key;
              }
              return a.k < b.k;
            });
  return entries;
}

Result<ServiceResponse> QueryScheduler::ExecuteLoad(
    const ServiceRequest& request, const Clock* clk, ResponseTiming* timing,
    size_t* out_shard) {
  *out_shard = 0;
  Stopwatch parse_watch(clk);
  Result<AndXorTree> tree = LoadRequestTree(request);
  AddSpan(timing, "parse", parse_watch);
  if (!tree.ok()) return tree.status();
  Stopwatch catalog_watch(clk);
  Result<CatalogEntry> entry =
      Insert(request.load_name, std::move(*tree), out_shard);
  AddSpan(timing, "catalog", catalog_watch);
  if (!entry.ok()) return entry.status();
  ServiceResponse response;
  response.op = ServiceRequest::Op::kLoad;
  response.tree_name = entry->name;
  response.fingerprint = entry->content_fp;
  return response;
}

Result<size_t> QueryScheduler::RouteTree(const ServiceRequest& request,
                                         const Clock* clk) {
  if (shards_.size() == 1) return size_t{0};
  Stopwatch catalog_watch(clk);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = directory_.find(request.tree_name);
    if (it != directory_.end()) return it->second;
  }
  // The owning shard does its own catalog span on success; an unknown name
  // stops here and leaves the same records a shard's failed Lookup would
  // (a catalog span, an op-latency record, an error count) on shard 0,
  // with the byte-identical NotFound.
  Result<ServiceResponse> failed =
      TreeCatalog::UnknownTreeError(request.tree_name);
  ResponseTiming timing;
  AddSpan(&timing, "catalog", catalog_watch);
  shards_[0]->Finish(request, &timing, &failed);
  return failed.status();
}

Result<ServiceResponse> QueryScheduler::ExecuteAdmin(
    const ServiceRequest& request, const Clock* clk) {
  Host host(this, shards_[0].get());
  ServeInstruments* front_instruments = instruments();
  Stopwatch watch(clk);
  Result<ServiceResponse> response =
      OpRegistry::Get().spec(request.op).execute_admin(host, request);
  if (watch.enabled() && response.ok()) {
    response->timing.total_ns = watch.ElapsedNanos();
    response->timing.trace = request.trace;
    if (front_instruments != nullptr) {
      front_instruments->op_latency(request.op)->Record(
          response->timing.total_ns);
    }
  }
  if (front_instruments != nullptr && !response.ok()) {
    front_instruments->request_errors_total->Increment();
  }
  return response;
}

ServiceResponse QueryScheduler::StatsResponse() const {
  ServiceResponse response;
  response.op = ServiceRequest::Op::kStats;
  std::vector<ShardCacheStats> per_shard = PerShardStats();
  for (const ShardCacheStats& shard : per_shard) {
    AccumulateCacheStats(&response.stats, shard.rank_dist);
    AccumulateCacheStats(&response.marginals_stats, shard.marginals);
    // Exact sums: StructKey routing makes names, contents, and shapes all
    // disjoint across shards, so the fleet-wide dedup ratio is the ratio
    // of the sums.
    response.catalog.names += shard.catalog.names;
    response.catalog.contents += shard.catalog.contents;
    response.catalog.shapes += shard.catalog.shapes;
  }
  // The breakdown is rendered only when there is more than one shard: a
  // one-shard stats line stays byte-identical to the pre-sharding one.
  if (per_shard.size() > 1) response.shard_stats = std::move(per_shard);
  return response;
}

std::vector<Result<ServiceResponse>> QueryScheduler::ExecuteBatch(
    const std::vector<ServiceRequest>& requests) {
  std::vector<Result<ServiceResponse>> responses(
      requests.size(),
      Result<ServiceResponse>(Status::Internal("request not executed")));
  std::vector<ResponseTiming> timings(requests.size());
  const OpRegistry& ops = OpRegistry::Get();

  // Timing is live when metrics are on or any request asked for a trace;
  // otherwise `clk` is null and every Stopwatch is inert (zero clock
  // reads). Instrumentation never touches answer bytes either way.
  bool any_trace = false;
  for (const ServiceRequest& request : requests) any_trace |= request.trace;
  const Clock* clk = TimingClock(any_trace);

  // Loads first, in request order, on the calling thread: they are
  // order-sensitive on names, and each decides the routing of every query
  // that follows. Each is recorded on the shard it inserted into.
  for (size_t i = 0; i < requests.size(); ++i) {
    if (ops.spec(requests[i].op).batch_phase != kLoadPhase) continue;
    size_t shard = 0;
    responses[i] = ExecuteLoad(requests[i], clk, &timings[i], &shard);
    shards_[shard]->Finish(requests[i], &timings[i], &responses[i]);
  }

  // Partition the tree-addressed slots by owning shard, preserving slot
  // order within each shard — per-key request order is what keeps each
  // shard's cache counters independent of the shard count.
  std::vector<std::vector<size_t>> slots(shards_.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    if (ops.spec(requests[i].op).routing != OpRouting::kTreeAddressed) {
      continue;
    }
    Result<size_t> shard = RouteTree(requests[i], clk);
    if (!shard.ok()) {
      responses[i] = shard.status();
      continue;
    }
    slots[*shard].push_back(i);
  }

  // Fan the busy shards out over the pool; each writes only its own
  // slots. A throw must fail slots, not the process: pool tasks must not
  // throw.
  std::vector<size_t> busy;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (!slots[s].empty()) busy.push_back(s);
  }
  pool_->ParallelFor(static_cast<int64_t>(busy.size()), [&](int64_t b) {
    const size_t s = busy[static_cast<size_t>(b)];
    try {
      shards_[s]->ExecuteSlots(this, requests, slots[s], clk, &responses,
                               &timings);
    } catch (const std::exception& e) {
      for (size_t slot : slots[s]) {
        responses[slot] = Status::Internal(
            std::string("shard execution failed: ") + e.what());
      }
    } catch (...) {
      for (size_t slot : slots[s]) {
        responses[slot] = Status::Internal("shard execution failed");
      }
    }
  });

  // Admin phases in declared order — stats next-to-last (the counters
  // describe the batch that just ran), metrics last of all (a scrape in a
  // batch answers for everything the batch did, its own admin requests
  // included), regardless of slot order. The dispatch loop has returned,
  // so the shard registries are quiescent.
  for (const ServiceRequest& request : requests) {
    if (ops.spec(request.op).routing == OpRouting::kAdmin) {
      shards_[0]->Count(request);
    }
  }
  for (int phase : {kStatsPhase, kMetricsPhase}) {
    for (size_t i = 0; i < requests.size(); ++i) {
      if (ops.spec(requests[i].op).batch_phase != phase) continue;
      responses[i] = ExecuteAdmin(requests[i], clk);
    }
  }
  return responses;
}

Result<ServiceResponse> QueryScheduler::ExecuteOne(
    const ServiceRequest& request) {
  return ExecuteBatch({request})[0];
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

CacheStats QueryScheduler::cache_stats() const {
  CacheStats total;
  for (const auto& shard : shards_) {
    AccumulateCacheStats(&total, shard->cache.stats());
  }
  return total;
}

CacheStats QueryScheduler::marginals_stats() const {
  CacheStats total;
  for (const auto& shard : shards_) {
    AccumulateCacheStats(&total, shard->marginals_cache.stats());
  }
  return total;
}

CacheStats QueryScheduler::precompute_stats() const {
  CacheStats total;
  for (const auto& shard : shards_) {
    AccumulateCacheStats(&total, shard->precompute_cache.stats());
  }
  return total;
}

std::vector<ShardCacheStats> QueryScheduler::PerShardStats() const {
  std::vector<ShardCacheStats> stats;
  stats.reserve(shards_.size());
  for (const auto& shard : shards_) stats.push_back(shard->Stats());
  return stats;
}

ServeInstruments* QueryScheduler::instruments() const {
  return shards_[0]->instruments.get();
}

MetricsSnapshot QueryScheduler::MetricsSnapshotNow() const {
  MetricsSnapshot merged = shards_[0]->Metrics();
  for (size_t s = 1; s < shards_.size(); ++s) {
    merged.MergeFrom(shards_[s]->Metrics());
  }
  return merged;
}

std::vector<MetricsSnapshot> QueryScheduler::PerShardMetricsSnapshots() const {
  std::vector<MetricsSnapshot> snapshots;
  snapshots.reserve(shards_.size());
  for (const auto& shard : shards_) snapshots.push_back(shard->Metrics());
  return snapshots;
}

}  // namespace cpdb
