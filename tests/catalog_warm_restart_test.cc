// Copyright 2026 The ConsensusDB Authors
//
// Warm-restart differential tests: a serving process restored from a
// catalog snapshot must be indistinguishable on the wire from one that
// loaded the same trees line-by-line. The load-bearing comparisons are
// byte-level — responses are rendered through the actual protocol
// formatter and compared as strings — across every op (all four Top-k
// metrics, both worlds, stats, error lines) and shard counts {1, 2, 4}.
//
// Stats parity splits by snapshot flavor, by design:
//   * trees-only snapshot: full byte parity *including* stats lines — both
//     services start with cold caches;
//   * snapshot with precomputed distributions: all answers byte-identical,
//     and the warm service's first batch hits the rank-distribution cache
//     it was seeded with (zero misses), which is the entire point — the
//     hit/miss counters legitimately differ from a cold start and the test
//     asserts exactly that.
//
// This suite runs in the TSan CI job: the concurrent case exercises
// queries racing InstallSnapshot on a live sharded front-end.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "engine/engine.h"
#include "io/request_protocol.h"
#include "io/table_io.h"
#include "io/tree_text.h"
#include "service/catalog_snapshot.h"
#include "service/query_scheduler.h"
#include "service/sharded_scheduler.h"
#include "service/tree_catalog.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

constexpr char kTreeText[] =
    "(and (xor 0.6 (leaf key=1 score=8) 0.3 (leaf key=1 score=5))"
    " (xor 0.7 (leaf key=2 score=9))"
    " (xor 0.5 (leaf key=3 score=7) 0.5 (leaf key=3 score=6)))";

constexpr char kOtherTreeText[] =
    "(and (xor 0.5 (leaf key=4 score=3)) (xor 0.25 (leaf key=5 score=1)))";

AndXorTree RandomDeepTree(uint64_t seed, int num_keys = 8) {
  Rng rng(seed);
  RandomTreeOptions opts;
  opts.num_keys = num_keys;
  opts.max_depth = 3;
  opts.max_alternatives = 2;
  auto tree = RandomAndXorTree(opts, &rng);
  EXPECT_TRUE(tree.ok());
  return *std::move(tree);
}

ServiceRequest TopKRequest(const std::string& tree, int k, TopKMetric metric,
                           TopKAnswer answer = TopKAnswer::kMean) {
  ServiceRequest request;
  request.op = ServiceRequest::Op::kTopK;
  request.tree_name = tree;
  request.k = k;
  request.metric = metric;
  request.answer = answer;
  return request;
}

ServiceRequest WorldRequest(const std::string& tree, bool median = false) {
  ServiceRequest request;
  request.op = ServiceRequest::Op::kWorld;
  request.tree_name = tree;
  request.median_world = median;
  return request;
}

ServiceRequest StatsRequest() {
  ServiceRequest request;
  request.op = ServiceRequest::Op::kStats;
  return request;
}

// The heterogeneous differential workload over `names`: every metric, all
// answer flavors, both worlds, an unknown tree, an unsupported
// (metric, answer) pair, bracketed by stats probes.
std::vector<ServiceRequest> DifferentialBatch(
    const std::vector<std::string>& names) {
  std::vector<ServiceRequest> batch;
  batch.push_back(StatsRequest());
  for (const std::string& name : names) {
    batch.push_back(TopKRequest(name, 3, TopKMetric::kSymDiff));
    batch.push_back(TopKRequest(name, 3, TopKMetric::kIntersection));
    batch.push_back(TopKRequest(name, 2, TopKMetric::kFootrule));
    batch.push_back(TopKRequest(name, 2, TopKMetric::kKendall));
    batch.push_back(TopKRequest(name, 3, TopKMetric::kSymDiff,
                                TopKAnswer::kMedian));
    batch.push_back(TopKRequest(name, 3, TopKMetric::kSymDiff,
                                TopKAnswer::kMeanUnrestricted));
    batch.push_back(TopKRequest(name, 3, TopKMetric::kIntersection,
                                TopKAnswer::kMeanApprox));
    batch.push_back(WorldRequest(name));
    batch.push_back(WorldRequest(name, /*median=*/true));
  }
  batch.push_back(TopKRequest("no_such_tree", 2, TopKMetric::kSymDiff));
  batch.push_back(TopKRequest(names[0], 2, TopKMetric::kFootrule,
                              TopKAnswer::kMedian));  // NotImplemented
  batch.push_back(StatsRequest());
  return batch;
}

// Renders a result vector exactly as the serve command would write it —
// response lines through the protocol formatter, failures as in-band error
// lines — so "identical responses" means identical *bytes on the wire*,
// stats and error text included.
std::vector<std::string> WireLines(
    const std::vector<Result<ServiceResponse>>& results) {
  std::vector<std::string> lines;
  lines.reserve(results.size());
  for (size_t i = 0; i < results.size(); ++i) {
    lines.push_back(results[i].ok()
                        ? FormatResponseLine(ResponseToFields(*results[i]))
                        : FormatErrorLine(i + 1, results[i].status()));
  }
  return lines;
}

// Wire-level comparison with stats lines included or skipped (skipped for
// the warmed-cache flavor, whose counters differ by design).
void ExpectSameWire(const std::vector<Result<ServiceResponse>>& got,
                    const std::vector<Result<ServiceResponse>>& want,
                    bool compare_stats, const std::string& label) {
  const std::vector<std::string> got_lines = WireLines(got);
  const std::vector<std::string> want_lines = WireLines(want);
  ASSERT_EQ(got_lines.size(), want_lines.size()) << label;
  for (size_t i = 0; i < got_lines.size(); ++i) {
    if (!compare_stats && got[i].ok() &&
        got[i]->op == ServiceRequest::Op::kStats) {
      continue;
    }
    EXPECT_EQ(got_lines[i], want_lines[i])
        << label << " slot " << i;
  }
}

EngineOptions ReferenceEngineOptions(int threads = 2) {
  EngineOptions options;
  options.num_threads = threads;
  return options;
}

class CatalogWarmRestartTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trees_.push_back(*ParseTree(kTreeText));
    trees_.push_back(*ParseTree(kOtherTreeText));
    for (uint64_t seed : {11u, 23u, 47u, 91u, 130u, 177u}) {
      trees_.push_back(RandomDeepTree(seed));
    }
    for (size_t i = 0; i < trees_.size(); ++i) {
      names_.push_back("t" + std::to_string(i));
    }
    snapshot_path_ = ::testing::TempDir() + "/warm_restart.snap";
  }

  // The cold path: feed every tree line-by-line (Insert, the seam op=load
  // ends in) into whichever back end is given.
  void SeedCold(TreeCatalog* catalog, ShardedScheduler* sharded) const {
    for (size_t i = 0; i < trees_.size(); ++i) {
      if (catalog != nullptr) {
        ASSERT_TRUE(catalog->Insert(names_[i], trees_[i]).ok());
      }
      if (sharded != nullptr) {
        ASSERT_TRUE(sharded->Insert(names_[i], trees_[i]).ok());
      }
    }
  }

  // Saves a trees-only snapshot (cold caches) of the full tree set.
  void SaveTreesOnlySnapshot() const {
    TreeCatalog catalog;
    SeedCold(&catalog, nullptr);
    ASSERT_TRUE(WriteCatalogSnapshotFile(
                    snapshot_path_, BuildCatalogSnapshot(catalog, nullptr))
                    .ok());
  }

  // Loads the snapshot file, as serve --catalog does.
  Result<CatalogSnapshot> LoadSnapshot() const {
    return ReadCatalogSnapshotFile(snapshot_path_);
  }

  std::vector<AndXorTree> trees_;
  std::vector<std::string> names_;
  std::string snapshot_path_;
};

// ---------------------------------------------------------------------------
// Single scheduler: warm vs cold, full byte parity (stats included)
// ---------------------------------------------------------------------------

// A trees-only snapshot restores a service whose *entire wire transcript* —
// answers, error lines, and stats lines — is byte-identical to a cold
// service fed the same trees line-by-line, batch and streaming, cold and
// re-run warm.
TEST_F(CatalogWarmRestartTest, TreesOnlySnapshotIsByteIdenticalToColdStart) {
  SaveTreesOnlySnapshot();
  const std::vector<ServiceRequest> batch = DifferentialBatch(names_);

  Engine cold_engine(ReferenceEngineOptions());
  TreeCatalog cold_catalog;
  QueryScheduler cold(&cold_engine, &cold_catalog);
  SeedCold(&cold_catalog, nullptr);
  auto want_first = cold.ExecuteBatch(batch);
  auto want_second = cold.ExecuteBatch(batch);

  Result<CatalogSnapshot> snapshot = LoadSnapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  Engine warm_engine(ReferenceEngineOptions());
  TreeCatalog warm_catalog;
  QueryScheduler warm(&warm_engine, &warm_catalog);
  ASSERT_TRUE(InstallCatalogSnapshot(*snapshot, &warm_catalog, &warm).ok());
  EXPECT_EQ(warm_catalog.size(), trees_.size());
  // No distribution sections => the restored cache is exactly as cold as
  // a fresh one, so even hit/miss counters must match byte-for-byte.
  ExpectSameWire(warm.ExecuteBatch(batch), want_first,
                 /*compare_stats=*/true, "first batch");
  ExpectSameWire(warm.ExecuteBatch(batch), want_second,
                 /*compare_stats=*/true, "second batch");
}

TEST_F(CatalogWarmRestartTest, StreamingTranscriptMatchesColdStart) {
  SaveTreesOnlySnapshot();
  const std::vector<ServiceRequest> requests = DifferentialBatch(names_);
  auto stream_through = [&requests](QueryScheduler* scheduler) {
    std::vector<Result<ServiceResponse>> responses;
    size_t cursor = 0;
    scheduler->ExecuteStreaming(
        [&](ServiceRequest* out) {
          if (cursor == requests.size()) return false;
          *out = requests[cursor++];
          return true;
        },
        [&](const Result<ServiceResponse>& response) {
          responses.push_back(response);
        });
    return responses;
  };

  Engine cold_engine(ReferenceEngineOptions());
  TreeCatalog cold_catalog;
  QueryScheduler cold(&cold_engine, &cold_catalog);
  SeedCold(&cold_catalog, nullptr);
  auto want = stream_through(&cold);

  Result<CatalogSnapshot> snapshot = LoadSnapshot();
  ASSERT_TRUE(snapshot.ok());
  Engine warm_engine(ReferenceEngineOptions());
  TreeCatalog warm_catalog;
  QueryScheduler warm(&warm_engine, &warm_catalog);
  ASSERT_TRUE(InstallCatalogSnapshot(*snapshot, &warm_catalog, &warm).ok());
  ExpectSameWire(stream_through(&warm), want, /*compare_stats=*/true,
                 "streaming");
}

// ---------------------------------------------------------------------------
// Sharded: warm vs cold across shard counts
// ---------------------------------------------------------------------------

TEST_F(CatalogWarmRestartTest, ShardedWarmStartMatchesColdAcrossShardCounts) {
  SaveTreesOnlySnapshot();
  const std::vector<ServiceRequest> batch = DifferentialBatch(names_);

  // The single-engine cold service anchors answer parity across every
  // configuration. Its stats lines are excluded from that comparison —
  // sharded stats carry the per-shard breakdown fields by design — so the
  // stats bytes are pinned by the like-for-like comparison below instead.
  Engine reference_engine(ReferenceEngineOptions());
  TreeCatalog reference_catalog;
  QueryScheduler reference(&reference_engine, &reference_catalog);
  SeedCold(&reference_catalog, nullptr);
  auto want_first = reference.ExecuteBatch(batch);
  auto want_second = reference.ExecuteBatch(batch);

  for (int shards : {1, 2, 4}) {
    // Like-for-like cold service: same shard count, trees fed line-by-line.
    // Against this reference the warm transcript must be byte-identical in
    // full, per-shard stats fields included.
    ShardedScheduler cold(shards, ReferenceEngineOptions());
    SeedCold(nullptr, &cold);
    auto cold_first = cold.ExecuteBatch(batch);
    auto cold_second = cold.ExecuteBatch(batch);
    ExpectSameWire(cold_first, want_first, /*compare_stats=*/false,
                   "cold shards=" + std::to_string(shards));

    const std::string label = "shards=" + std::to_string(shards);
    Result<CatalogSnapshot> snapshot = LoadSnapshot();
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    ShardedScheduler warm(shards, ReferenceEngineOptions());
    ASSERT_TRUE(warm.InstallSnapshot(*snapshot).ok());
    ExpectSameWire(warm.ExecuteBatch(batch), cold_first,
                   /*compare_stats=*/true, label + " first");
    ExpectSameWire(warm.ExecuteBatch(batch), cold_second,
                   /*compare_stats=*/true, label + " second");
  }
}

// A snapshot saved from a sharded service equals the snapshot saved from
// the single-engine service, byte for byte, for every shard count — the
// file is a pure function of the logical serving state.
TEST_F(CatalogWarmRestartTest, SavedBytesAreIndependentOfShardCount) {
  const std::vector<ServiceRequest> batch = DifferentialBatch(names_);

  Engine single_engine(ReferenceEngineOptions());
  TreeCatalog single_catalog;
  QueryScheduler single(&single_engine, &single_catalog);
  SeedCold(&single_catalog, nullptr);
  for (const auto& result : single.ExecuteBatch(batch)) {
    (void)result;  // warm the caches; per-slot failures are part of the mix
  }
  const std::string want_bytes = EncodeCatalogSnapshot(
      BuildCatalogSnapshot(single_catalog, &single));

  for (int shards : {1, 2, 4}) {
    ShardedScheduler sharded(shards, ReferenceEngineOptions());
    SeedCold(nullptr, &sharded);
    sharded.ExecuteBatch(batch);
    EXPECT_EQ(EncodeCatalogSnapshot(
                  sharded.BuildSnapshot(/*include_distributions=*/true)),
              want_bytes)
        << "shards=" << shards;
  }
}

// ---------------------------------------------------------------------------
// Precomputed distributions: warm answers, warm counters
// ---------------------------------------------------------------------------

// A snapshot with distribution sections restores a service whose answers
// are byte-identical to cold AND whose first batch never misses the
// rank-distribution cache — the restart is warm where it matters.
TEST_F(CatalogWarmRestartTest, PrecomputedDistributionsMakeFirstBatchWarm) {
  const std::vector<ServiceRequest> batch = DifferentialBatch(names_);

  // Cold run, twice: the second pass is what a warmed cache should mimic.
  Engine cold_engine(ReferenceEngineOptions());
  TreeCatalog cold_catalog;
  QueryScheduler cold(&cold_engine, &cold_catalog);
  SeedCold(&cold_catalog, nullptr);
  auto want_cold = cold.ExecuteBatch(batch);
  ASSERT_TRUE(WriteCatalogSnapshotFile(
                  snapshot_path_, BuildCatalogSnapshot(cold_catalog, &cold))
                  .ok());
  const CacheStats after_cold = cold.cache_stats();
  ASSERT_GT(after_cold.misses, 0);

  for (int shards : {0, 1, 2, 4}) {  // 0 = the single-engine scheduler
    const std::string label = "shards=" + std::to_string(shards);
    Result<CatalogSnapshot> snapshot = LoadSnapshot();
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    ASSERT_EQ(snapshot->distributions.size(),
              static_cast<size_t>(after_cold.entries));

    std::vector<Result<ServiceResponse>> got;
    CacheStats warm_stats;
    if (shards == 0) {
      Engine warm_engine(ReferenceEngineOptions());
      TreeCatalog warm_catalog;
      QueryScheduler warm(&warm_engine, &warm_catalog);
      ASSERT_TRUE(
          InstallCatalogSnapshot(*snapshot, &warm_catalog, &warm).ok());
      // Seeding provisions the cache without pretending to be traffic:
      // entries and bytes are charged, counters stay zero.
      EXPECT_EQ(warm.cache_stats().entries, after_cold.entries);
      EXPECT_EQ(warm.cache_stats().bytes, after_cold.bytes);
      EXPECT_EQ(warm.cache_stats().hits, 0);
      EXPECT_EQ(warm.cache_stats().misses, 0);
      got = warm.ExecuteBatch(batch);
      warm_stats = warm.cache_stats();
    } else {
      ShardedScheduler warm(shards, ReferenceEngineOptions());
      ASSERT_TRUE(warm.InstallSnapshot(*snapshot).ok());
      EXPECT_EQ(warm.cache_stats().entries, after_cold.entries);
      EXPECT_EQ(warm.cache_stats().bytes, after_cold.bytes);
      got = warm.ExecuteBatch(batch);
      warm_stats = warm.cache_stats();
    }

    // Answers (and error lines) byte-identical; stats lines excluded —
    // their difference is the feature under test, asserted directly:
    ExpectSameWire(got, want_cold, /*compare_stats=*/false, label);
    // ...the warm service's first batch re-folded nothing.
    EXPECT_EQ(warm_stats.misses, 0) << label;
    EXPECT_GT(warm_stats.hits, 0) << label;
    EXPECT_EQ(warm_stats.entries, after_cold.entries) << label;
    EXPECT_EQ(warm_stats.bytes, after_cold.bytes) << label;
  }
}

// Seeding respects the byte budget like any other cache write: a budget too
// small to hold a distribution refuses it (and answers stay correct, just
// cold), and a zero budget retains nothing.
TEST_F(CatalogWarmRestartTest, SeedingRespectsTheCacheBudget) {
  const std::vector<ServiceRequest> batch = DifferentialBatch(names_);
  Engine cold_engine(ReferenceEngineOptions());
  TreeCatalog cold_catalog;
  QueryScheduler cold(&cold_engine, &cold_catalog);
  SeedCold(&cold_catalog, nullptr);
  auto want = cold.ExecuteBatch(batch);
  ASSERT_TRUE(WriteCatalogSnapshotFile(
                  snapshot_path_, BuildCatalogSnapshot(cold_catalog, &cold))
                  .ok());

  Result<CatalogSnapshot> snapshot = LoadSnapshot();
  ASSERT_TRUE(snapshot.ok());
  for (int64_t budget : {int64_t{0}, int64_t{700}}) {
    SchedulerOptions options;
    options.cache_budget_bytes = budget;
    Engine engine(ReferenceEngineOptions());
    TreeCatalog catalog;
    QueryScheduler warm(&engine, &catalog, options);
    ASSERT_TRUE(InstallCatalogSnapshot(*snapshot, &catalog, &warm).ok());
    EXPECT_LE(warm.cache_stats().bytes, budget);
    ExpectSameWire(warm.ExecuteBatch(batch), want, /*compare_stats=*/false,
                   "budget=" + std::to_string(budget));
  }
}

// ---------------------------------------------------------------------------
// In-memory install of a non-canonical load
// ---------------------------------------------------------------------------

// A snapshot built from live state holds each tree's canonical orientation
// in `record.canonical_tree`; installing it without an encode/decode round
// trip must still bind the name to the record's own content identity.
// Re-loading the original file under the same name is then an idempotent ok
// with the original fingerprint, and the transcript equals the one after
// installing the decoded file.
TEST_F(CatalogWarmRestartTest, InMemoryInstallKeepsNonCanonicalIdentity) {
  const std::string tree_path =
      ::testing::TempDir() + "/warm_restart_noncanonical.sexp";
  ASSERT_TRUE(WriteStringToFile(tree_path, kOtherTreeText).ok());
  Result<TreeIdentity> identity =
      TreeCatalog::ComputeIdentity(*ParseTree(kOtherTreeText));
  ASSERT_TRUE(identity.ok());
  ASSERT_NE(identity->content_fp.value(), identity->struct_key.value())
      << "the fixture must be a non-canonical orientation";

  ServiceRequest load;
  load.op = ServiceRequest::Op::kLoad;
  load.load_name = "t";
  load.load_file = tree_path;
  const std::vector<ServiceRequest> batch = {
      load, TopKRequest("t", 2, TopKMetric::kSymDiff), WorldRequest("t"),
      StatsRequest()};

  for (int shards : {1, 4}) {
    const std::string label = "shards=" + std::to_string(shards);
    QueryScheduler source(shards, ReferenceEngineOptions());
    auto loaded = source.ExecuteBatch(batch);
    ASSERT_TRUE(loaded[0].ok()) << label << loaded[0].status().ToString();
    ASSERT_EQ(loaded[0]->fingerprint, identity->content_fp) << label;
    const CatalogSnapshot snapshot = source.BuildSnapshot(true);
    ASSERT_EQ(snapshot.trees.size(), 1u);

    QueryScheduler direct(shards, ReferenceEngineOptions());
    ASSERT_TRUE(direct.InstallSnapshot(snapshot).ok()) << label;
    auto got = direct.ExecuteBatch(batch);
    ASSERT_TRUE(got[0].ok()) << label << " " << got[0].status().ToString();
    EXPECT_EQ(got[0]->fingerprint, identity->content_fp) << label;

    const std::string bytes = EncodeCatalogSnapshot(snapshot);
    Result<CatalogSnapshot> decoded =
        DecodeCatalogSnapshot(bytes.data(), bytes.size());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    QueryScheduler from_file(shards, ReferenceEngineOptions());
    ASSERT_TRUE(from_file.InstallSnapshot(*decoded).ok()) << label;
    ExpectSameWire(got, from_file.ExecuteBatch(batch),
                   /*compare_stats=*/true, label);
  }
}

// Install adopts the decoded tree: a decoded record already carries its
// canonical orientation, so installing it must not rebuild the tree. Every
// binding of a shape resolves to the canonical_tree of the first decoded
// record of that shape, and each shape compiles exactly once — through
// InstallCatalogSnapshot and through the routed QueryScheduler form.
TEST_F(CatalogWarmRestartTest, InstallAdoptsTheDecodedCanonicalTree) {
  // kOtherTreeText with its two xor children swapped: one shape, two
  // contents.
  constexpr char kPermutedOtherText[] =
      "(and (xor 0.25 (leaf key=5 score=1)) (xor 0.5 (leaf key=4 score=3)))";
  TreeCatalog source;
  ASSERT_TRUE(source.Insert("a", *ParseTree(kOtherTreeText)).ok());
  ASSERT_TRUE(source.Insert("b", *ParseTree(kPermutedOtherText)).ok());
  ASSERT_TRUE(source.Insert("c", *ParseTree(kTreeText)).ok());
  ASSERT_EQ(source.Lookup("a")->struct_key, source.Lookup("b")->struct_key);
  ASSERT_NE(source.Lookup("a")->content_fp, source.Lookup("b")->content_fp);
  ASSERT_NE(source.Lookup("a")->content_fp.value(),
            source.Lookup("a")->struct_key.value())
      << "the fixture must hold a non-canonical orientation";

  const std::string bytes =
      EncodeCatalogSnapshot(BuildCatalogSnapshot(source, nullptr));
  Result<CatalogSnapshot> decoded =
      DecodeCatalogSnapshot(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->trees.size(), 3u);
  std::map<StructKey, const AndXorTree*> first_of_shape;
  for (const SnapshotTree& record : decoded->trees) {
    first_of_shape.emplace(record.struct_key, record.canonical_tree.get());
  }
  ASSERT_EQ(first_of_shape.size(), 2u);

  TreeCatalog catalog;
  ASSERT_TRUE(InstallCatalogSnapshot(*decoded, &catalog, nullptr).ok());
  for (const SnapshotTree& record : decoded->trees) {
    EXPECT_EQ(catalog.Lookup(record.name)->tree.get(),
              first_of_shape.at(record.struct_key))
        << record.name;
  }
  EXPECT_EQ(catalog.fold_compiles(),
            static_cast<int64_t>(first_of_shape.size()));

  for (int shards : {1, 4}) {
    const std::string label = "shards=" + std::to_string(shards);
    QueryScheduler scheduler(shards, ReferenceEngineOptions());
    ASSERT_TRUE(scheduler.InstallSnapshot(*decoded).ok()) << label;
    const CatalogSnapshot rebuilt = scheduler.BuildSnapshot(false);
    ASSERT_EQ(rebuilt.trees.size(), decoded->trees.size()) << label;
    for (size_t i = 0; i < rebuilt.trees.size(); ++i) {
      ASSERT_EQ(rebuilt.trees[i].name, decoded->trees[i].name) << label;
      EXPECT_EQ(rebuilt.trees[i].canonical_tree.get(),
                first_of_shape.at(decoded->trees[i].struct_key))
          << label << " " << rebuilt.trees[i].name;
    }
  }
}

// ---------------------------------------------------------------------------
// Concurrency (the TSan target): queries racing the snapshot install
// ---------------------------------------------------------------------------

// Queries hammer a sharded front-end while InstallSnapshot populates it.
// Every response must be either the catalog's NotFound (tree not installed
// yet) or the bitwise-correct answer — never a torn or wrong one. TSan
// watches the directory mutex, shard catalogs, and cache seeding.
TEST_F(CatalogWarmRestartTest, QueriesDuringInstallSeeNotFoundOrExactAnswer) {
  // Snapshot with distributions, so the install also races cache seeding.
  Engine cold_engine(ReferenceEngineOptions());
  TreeCatalog cold_catalog;
  QueryScheduler cold(&cold_engine, &cold_catalog);
  SeedCold(&cold_catalog, nullptr);
  const std::vector<ServiceRequest> probe = {
      TopKRequest(names_[0], 3, TopKMetric::kSymDiff),
      TopKRequest(names_[3], 2, TopKMetric::kKendall),
      WorldRequest(names_[5]),
  };
  auto want = cold.ExecuteBatch(probe);
  for (const auto& slot : want) ASSERT_TRUE(slot.ok());
  const std::vector<std::string> want_lines = WireLines(want);
  ASSERT_TRUE(WriteCatalogSnapshotFile(
                  snapshot_path_, BuildCatalogSnapshot(cold_catalog, &cold))
                  .ok());
  Result<CatalogSnapshot> snapshot = LoadSnapshot();
  ASSERT_TRUE(snapshot.ok());

  ShardedScheduler warm(3, ReferenceEngineOptions());
  std::thread installer(
      [&] { ASSERT_TRUE(warm.InstallSnapshot(*snapshot).ok()); });
  constexpr int kThreads = 3;
  constexpr int kRounds = 8;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        auto got = warm.ExecuteBatch(probe);
        const std::vector<std::string> got_lines = WireLines(got);
        for (size_t i = 0; i < got.size(); ++i) {
          if (got[i].ok()) {
            EXPECT_EQ(got_lines[i], want_lines[i]) << "slot " << i;
          } else {
            EXPECT_EQ(got[i].status().code(), StatusCode::kNotFound)
                << got[i].status().ToString();
          }
        }
      }
    });
  }
  installer.join();
  for (std::thread& w : workers) w.join();

  // After the install settles, the service is fully warm and exact.
  ExpectSameWire(warm.ExecuteBatch(probe), want, /*compare_stats=*/false,
                 "post-install");
}

}  // namespace
}  // namespace cpdb
