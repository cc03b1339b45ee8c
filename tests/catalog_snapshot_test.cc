// Copyright 2026 The ConsensusDB Authors
//
// Torture tests for the catalog snapshot format (service/catalog_snapshot.h).
// Two properties are load-bearing:
//
//   * Corruption rejection: a snapshot file is untrusted input, and every
//     way of mangling one — truncation at *every* byte boundary, a zeroed
//     file, bad magic, any format version but this build's, a flipped
//     payload or checksum byte, record counts that cannot fit the payload,
//     embedded trees that fail ParseTree or are non-canonical, fingerprints
//     that do not hash their bytes, duplicate or dangling records,
//     non-finite probabilities, trailing garbage — must come back as a clean
//     typed Status, never an abort, and never a partially mutated catalog.
//     This suite runs under ASan/UBSan in CI, so an out-of-bounds read in
//     the decoder fails the build, not just the expectation.
//
//   * Round-trip fidelity: save -> load -> save is byte-identical, and
//     loaded trees fingerprint identically to the originals — over
//     hand-written trees and the full random-generator families.

#include "service/catalog_snapshot.h"

#include <dirent.h>
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "engine/engine.h"
#include "io/table_io.h"
#include "io/tree_text.h"
#include "model/canonical.h"
#include "service/query_scheduler.h"
#include "service/tree_catalog.h"
#include "strtod_reference.h"
#include "workload/generators.h"

namespace cpdb {
namespace {

constexpr char kTreeText[] =
    "(and (xor 0.6 (leaf key=1 score=8) 0.3 (leaf key=1 score=5))"
    " (xor 0.7 (leaf key=2 score=9))"
    " (xor 0.5 (leaf key=3 score=7) 0.5 (leaf key=3 score=6)))";

constexpr char kOtherTreeText[] =
    "(and (xor 0.5 (leaf key=4 score=3)) (xor 0.25 (leaf key=5 score=1)))";

// Format offsets (see the header-comment layout in catalog_snapshot.h).
constexpr size_t kVersionOffset = 8;
constexpr size_t kReservedOffset = 12;
constexpr size_t kTreeCountOffset = 16;
constexpr size_t kDistCountOffset = 24;

AndXorTree Tree(const std::string& text) {
  auto parsed = ParseTree(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return *std::move(parsed);
}

SnapshotTree MakeTreeRecord(const std::string& name,
                            const std::string& content) {
  SnapshotTree record;
  record.name = name;
  record.content = content;
  record.content_fp = ContentFp(Fnv1a64(content));
  // A correct structural key whenever the bytes parse: corruption tests
  // that target earlier validation stages still need the later fields
  // well-formed, so the stage under test is the one that fires.
  Result<AndXorTree> parsed = ParseTree(content);
  if (parsed.ok()) {
    Result<AndXorTree> canonical = CanonicalizeTree(*parsed);
    if (canonical.ok()) {
      record.struct_key =
          StructKey(Fnv1a64(FormatTree(*canonical, /*indent=*/false)));
    }
  }
  // Encoding never consults `canonical_tree`, which is what lets these
  // tests craft records whose bytes a live catalog could not produce.
  return record;
}

SnapshotTree CatalogTreeRecord(const std::string& name,
                               const std::string& text) {
  AndXorTree tree = Tree(text);
  SnapshotTree record =
      MakeTreeRecord(name, FormatTree(tree, /*indent=*/false));
  record.canonical_tree =
      std::make_shared<const AndXorTree>(std::move(tree));
  return record;
}

EngineOptions TestEngineOptions() {
  EngineOptions options;
  options.num_threads = 2;
  return options;
}

ServiceRequest TopKRequest(const std::string& tree, int k) {
  ServiceRequest request;
  request.op = ServiceRequest::Op::kTopK;
  request.tree_name = tree;
  request.k = k;
  return request;
}

// A populated catalog + scheduler pair whose snapshot carries both trees
// and (when `with_distributions`) warmed rank-distribution sections.
struct LiveService {
  Engine engine{TestEngineOptions()};
  TreeCatalog catalog;
  QueryScheduler scheduler{&engine, &catalog};

  explicit LiveService(bool with_distributions) {
    EXPECT_TRUE(catalog.Insert("a", Tree(kTreeText)).ok());
    EXPECT_TRUE(catalog.Insert("b", Tree(kOtherTreeText)).ok());
    if (with_distributions) {
      EXPECT_TRUE(scheduler.ExecuteOne(TopKRequest("a", 3)).ok());
      EXPECT_TRUE(scheduler.ExecuteOne(TopKRequest("b", 2)).ok());
    }
  }

  CatalogSnapshot Snapshot(bool with_distributions) const {
    return BuildCatalogSnapshot(catalog,
                                with_distributions ? &scheduler : nullptr);
  }
};

std::string ValidBytes(bool with_distributions) {
  return EncodeCatalogSnapshot(
      LiveService(with_distributions).Snapshot(with_distributions));
}

void PokeU32(std::string* bytes, size_t offset, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    (*bytes)[offset + static_cast<size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

void PokeU64(std::string* bytes, size_t offset, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    (*bytes)[offset + static_cast<size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

// Re-stamps a valid checksum over the (possibly corrupted) payload, so a
// test can target validation stages *behind* the checksum: without the
// restamp, every payload edit would be caught as a checksum mismatch and
// the deeper checks would never run.
std::string Restamped(std::string bytes) {
  PokeU64(&bytes, bytes.size() - 8, Fnv1a64(bytes.data(), bytes.size() - 8));
  return bytes;
}

// The decode thread counts every decode contract is checked at: the
// result and every error message must not depend on them.
constexpr int kDecodeThreads[] = {1, 2, 4, 8};

// A pool of each kDecodeThreads size, built once and shared by every check.
ThreadPool* DecodePool(int threads) {
  static ThreadPool one(1), two(2), four(4), eight(8);
  for (ThreadPool* pool : {&one, &two, &four, &eight}) {
    if (pool->num_threads() == threads) return pool;
  }
  return nullptr;
}

// The full rejection contract for one corrupt byte string: DecodeCatalogSnapshot
// returns the expected typed Status at every decode thread count (both from
// memory and through the file load path, which must agree byte-for-byte on
// the error), and a catalog fed through the serve path's
// decode-then-install sequence is untouched.
void ExpectRejected(const std::string& bytes, StatusCode code,
                    const std::string& needle, const std::string& label) {
  SCOPED_TRACE(label);
  Result<CatalogSnapshot> decoded =
      DecodeCatalogSnapshot(bytes.data(), bytes.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), code) << decoded.status().ToString();
  EXPECT_NE(decoded.status().message().find(needle), std::string::npos)
      << decoded.status().ToString();

  const std::string path = ::testing::TempDir() + "/corrupt.snap";
  ASSERT_TRUE(WriteStringToFile(path, bytes).ok());
  for (int threads : kDecodeThreads) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    Result<CatalogSnapshot> in_memory =
        DecodeCatalogSnapshot(bytes.data(), bytes.size(), DecodePool(threads));
    Result<CatalogSnapshot> read =
        ReadCatalogSnapshotFile(path, DecodePool(threads));
    ASSERT_FALSE(in_memory.ok());
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(in_memory.status().code(), code);
    EXPECT_EQ(read.status().code(), code);
    EXPECT_EQ(in_memory.status().message(), decoded.status().message());
    EXPECT_EQ(read.status().message(), decoded.status().message());
  }

  // The serve path decodes before touching any catalog, so a pre-populated
  // catalog and a warm cache survive a corrupt file bit-for-bit.
  Engine engine(TestEngineOptions());
  TreeCatalog catalog;
  QueryScheduler scheduler(&engine, &catalog);
  ASSERT_TRUE(catalog.Insert("existing", Tree(kTreeText)).ok());
  ASSERT_TRUE(scheduler.ExecuteOne(TopKRequest("existing", 2)).ok());
  const CacheStats before = scheduler.cache_stats();
  Result<CatalogSnapshot> loaded = ReadCatalogSnapshotFile(path);
  if (loaded.ok()) {
    ASSERT_TRUE(
        InstallCatalogSnapshot(*loaded, &catalog, &scheduler).ok());
  }
  EXPECT_EQ(catalog.size(), 1u);
  EXPECT_EQ(scheduler.cache_stats().entries, before.entries);
  EXPECT_EQ(scheduler.cache_stats().bytes, before.bytes);
}

// Every number token the test snapshots carry parses to the bits strtod
// gives it (tests/strtod_reference.h).
TEST(CatalogSnapshotNumberTest, EveryNumberTokenParsesLikeStrtod) {
  for (bool with_dists : {false, true}) {
    const std::string bytes = ValidBytes(with_dists);
    Result<CatalogSnapshot> decoded =
        DecodeCatalogSnapshot(bytes.data(), bytes.size());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_FALSE(decoded->trees.empty());
    for (const SnapshotTree& record : decoded->trees) {
      for (const std::string& token : NumberTokens(record.content)) {
        EXPECT_TRUE(ParsesLikeStrtod(token)) << record.name;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Corruption rejection matrix
// ---------------------------------------------------------------------------

// Every proper prefix of a valid file — including the empty one — is
// rejected. This sweeps the cursor across every field boundary in the
// format, with and without distribution sections.
TEST(CatalogSnapshotCorruptionTest, TruncationAtEveryByteIsRejected) {
  for (bool with_dists : {false, true}) {
    const std::string valid = ValidBytes(with_dists);
    ASSERT_GT(valid.size(), 40u);
    ASSERT_TRUE(
        DecodeCatalogSnapshot(valid.data(), valid.size()).ok());
    for (size_t len = 0; len < valid.size(); ++len) {
      for (int threads : kDecodeThreads) {
        Result<CatalogSnapshot> decoded =
            DecodeCatalogSnapshot(valid.data(), len, DecodePool(threads));
        ASSERT_FALSE(decoded.ok())
            << "accepted a " << len << "-byte prefix (dists=" << with_dists
            << ", threads=" << threads << ")";
        // Typed, never a crash: truncation surfaces as ParseError (either
        // "truncated" below the minimum size or a checksum mismatch
        // beyond).
        ASSERT_EQ(decoded.status().code(), StatusCode::kParseError);
      }
    }
  }
}

TEST(CatalogSnapshotCorruptionTest, ZeroLengthAndTinyFilesAreRejected) {
  ExpectRejected("", StatusCode::kParseError, "truncated", "empty");
  ExpectRejected("CPDBSNAP", StatusCode::kParseError, "truncated",
                 "magic only");
  // An empty *file* through the read path reports the same typed error.
  const std::string path = ::testing::TempDir() + "/empty.snap";
  ASSERT_TRUE(WriteStringToFile(path, "").ok());
  Result<CatalogSnapshot> loaded = ReadCatalogSnapshotFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

TEST(CatalogSnapshotCorruptionTest, BadMagicIsRejected) {
  std::string bytes = ValidBytes(false);
  bytes[0] = 'X';
  ExpectRejected(bytes, StatusCode::kParseError, "bad magic", "first byte");
  // Plausible-but-wrong headers (another tool's file) are not snapshots.
  std::string other(ValidBytes(false));
  other.replace(0, 8, "BASETREE");
  ExpectRejected(other, StatusCode::kParseError, "bad magic", "other format");
}

// Every version but this build's is refused by name — the older ones
// (1 and 2, which earlier builds wrote) as firmly as the future ones.
TEST(CatalogSnapshotCorruptionTest, UnsupportedVersionsAreRefusedNotGuessed) {
  for (uint32_t version : {uint32_t{0}, uint32_t{1}, uint32_t{2},
                           kCatalogSnapshotVersion + 1, uint32_t{0xffffffff}}) {
    std::string bytes = ValidBytes(true);
    PokeU32(&bytes, kVersionOffset, version);
    // Restamped: the version gate itself must fire, not the checksum.
    ExpectRejected(Restamped(std::move(bytes)), StatusCode::kInvalidArgument,
                   "format version " + std::to_string(version) +
                       " is not supported",
                   "version " + std::to_string(version));
  }
}

TEST(CatalogSnapshotCorruptionTest, NonzeroReservedFieldIsRejected) {
  std::string bytes = ValidBytes(false);
  PokeU32(&bytes, kReservedOffset, 7);
  ExpectRejected(Restamped(std::move(bytes)), StatusCode::kParseError,
                 "reserved", "reserved field");
}

TEST(CatalogSnapshotCorruptionTest, AnyFlippedByteFailsTheChecksum) {
  const std::string valid = ValidBytes(true);
  // A sample of positions across header, tree records, distribution
  // records, and the checksum itself (flipping the stored checksum must
  // fail exactly like flipping the payload it vouches for).
  for (size_t offset :
       {kTreeCountOffset, size_t{40}, valid.size() / 2, valid.size() - 20,
        valid.size() - 8, valid.size() - 1}) {
    std::string bytes = valid;
    bytes[offset] = static_cast<char>(bytes[offset] ^ 0x40);
    ExpectRejected(bytes, StatusCode::kParseError, "checksum mismatch",
                   "flip at " + std::to_string(offset));
  }
}

TEST(CatalogSnapshotCorruptionTest, EntryCountsOverflowingPayloadAreRejected) {
  for (uint64_t count :
       {uint64_t{1000000}, uint64_t{1} << 60, ~uint64_t{0}}) {
    std::string trees = ValidBytes(false);
    PokeU64(&trees, kTreeCountOffset, count);
    ExpectRejected(Restamped(std::move(trees)), StatusCode::kParseError,
                   "cannot fit", "tree count " + std::to_string(count));

    std::string dists = ValidBytes(false);
    PokeU64(&dists, kDistCountOffset, count);
    ExpectRejected(Restamped(std::move(dists)), StatusCode::kParseError,
                   "cannot fit", "dist count " + std::to_string(count));
  }
}

TEST(CatalogSnapshotCorruptionTest, TrailingGarbageIsRejectedEvenRestamped) {
  // Without a restamp the appended bytes shift where the checksum is read
  // from, so the checksum stage catches it...
  std::string naive = ValidBytes(false) + "JUNK";
  ExpectRejected(naive, StatusCode::kParseError, "checksum mismatch",
                 "appended after checksum");
  // ...and an adversary who re-stamps a valid checksum over the garbage is
  // caught by the cursor-must-land-on-the-checksum rule.
  std::string restamped = ValidBytes(false);
  restamped.insert(restamped.size() - 8, "JUNK");
  ExpectRejected(Restamped(std::move(restamped)), StatusCode::kParseError,
                 "trailing garbage", "garbage before checksum");
}

TEST(CatalogSnapshotCorruptionTest, EmbeddedTreeThatFailsParseIsRejected) {
  CatalogSnapshot snapshot;
  snapshot.trees.push_back(MakeTreeRecord("bad", "(and (xor 0.5"));
  // The fingerprint honestly hashes the garbage, so the parse stage — not
  // the fingerprint stage — must be the one that fires.
  ExpectRejected(EncodeCatalogSnapshot(snapshot), StatusCode::kParseError,
                 "does not parse", "unparsable tree");
}

TEST(CatalogSnapshotCorruptionTest, NonCanonicalTreeTextIsRejected) {
  // kTreeText parses fine but is the *indented-author* form; the canonical
  // form is FormatTree's single line. Accepting it would let a
  // hand-crafted snapshot plant a (fingerprint, canonical) pair that
  // disagrees with what ComputeIdentity derives.
  AndXorTree tree = Tree(kTreeText);
  const std::string canonical = FormatTree(tree, /*indent=*/false);
  const std::string indented = FormatTree(tree, /*indent=*/true);
  ASSERT_NE(canonical, indented);
  CatalogSnapshot snapshot;
  snapshot.trees.push_back(MakeTreeRecord("t", indented));
  ExpectRejected(EncodeCatalogSnapshot(snapshot), StatusCode::kParseError,
                 "canonical form", "indented serialization");
}

TEST(CatalogSnapshotCorruptionTest, FingerprintNotHashingItsBytesIsRejected) {
  CatalogSnapshot snapshot;
  snapshot.trees.push_back(CatalogTreeRecord("t", kTreeText));
  snapshot.trees[0].content_fp =
      ContentFp(snapshot.trees[0].content_fp.value() ^ 1);
  ExpectRejected(EncodeCatalogSnapshot(snapshot), StatusCode::kParseError,
                 "does not hash", "flipped fingerprint");
}

TEST(CatalogSnapshotCorruptionTest, ForgedStructuralKeyIsRejected) {
  // A record whose stored structural key is not the hash of the
  // canonical re-orientation: accepting it would route the binding to the
  // wrong shard and the wrong cache lines, so the decoder recomputes and
  // compares.
  CatalogSnapshot snapshot;
  snapshot.trees.push_back(CatalogTreeRecord("t", kTreeText));
  snapshot.trees[0].struct_key =
      StructKey(snapshot.trees[0].struct_key.value() ^ 1);
  ExpectRejected(EncodeCatalogSnapshot(snapshot), StatusCode::kParseError,
                 "structural key", "flipped structural key");
}

TEST(CatalogSnapshotCorruptionTest, DuplicateAndEmptyNamesAreRejected) {
  CatalogSnapshot duplicate;
  duplicate.trees.push_back(CatalogTreeRecord("t", kTreeText));
  duplicate.trees.push_back(CatalogTreeRecord("t", kOtherTreeText));
  ExpectRejected(EncodeCatalogSnapshot(duplicate), StatusCode::kParseError,
                 "duplicate catalog name", "duplicate name");

  CatalogSnapshot empty;
  empty.trees.push_back(CatalogTreeRecord("", kTreeText));
  ExpectRejected(EncodeCatalogSnapshot(empty), StatusCode::kParseError,
                 "must not be empty", "empty name");
}

TEST(CatalogSnapshotCorruptionTest, DistributionRecordDefectsAreRejected) {
  LiveService live(/*with_distributions=*/true);
  CatalogSnapshot valid = live.Snapshot(true);
  ASSERT_FALSE(valid.distributions.empty());

  // Dangling: a distribution whose structural key no tree record carries.
  CatalogSnapshot dangling = valid;
  dangling.distributions[0].struct_key =
      StructKey(dangling.distributions[0].struct_key.value() ^ 1);
  ExpectRejected(EncodeCatalogSnapshot(dangling), StatusCode::kParseError,
                 "no tree record", "dangling structural key");

  // Duplicate (structural key, k).
  CatalogSnapshot duplicate = valid;
  duplicate.distributions.push_back(duplicate.distributions[0]);
  ExpectRejected(EncodeCatalogSnapshot(duplicate), StatusCode::kParseError,
                 "duplicate (structural key, k)", "duplicate dist");

  // Non-finite and out-of-range probabilities.
  for (double bad : {std::nan(""), 2.0, -0.5}) {
    RankDistributionBuilder builder(2);
    for (KeyId key : valid.trees[0].canonical_tree->Keys()) {
      builder.EnsureKey(key);
      builder.Add(key, 1, bad);
    }
    CatalogSnapshot poisoned;
    poisoned.trees.push_back(valid.trees[0]);
    SnapshotDistribution dist;
    dist.struct_key = valid.trees[0].struct_key;
    dist.k = 2;
    dist.dist = std::make_shared<const RankDistribution>(
        std::move(builder).Build());
    poisoned.distributions.push_back(std::move(dist));
    ExpectRejected(EncodeCatalogSnapshot(poisoned), StatusCode::kParseError,
                   "not a probability", "bad probability");
  }

  // A distribution whose key set disagrees with its tree's keys.
  RankDistributionBuilder builder(2);
  builder.EnsureKey(999);
  CatalogSnapshot mismatched;
  mismatched.trees.push_back(valid.trees[0]);
  SnapshotDistribution wrong_keys;
  wrong_keys.struct_key = valid.trees[0].struct_key;
  wrong_keys.k = 2;
  wrong_keys.dist =
      std::make_shared<const RankDistribution>(std::move(builder).Build());
  mismatched.distributions.push_back(std::move(wrong_keys));
  ExpectRejected(EncodeCatalogSnapshot(mismatched), StatusCode::kParseError,
                 "do not match", "key set mismatch");

  // k = 0 (a builder can produce it; the format must not accept it).
  RankDistributionBuilder zero_k(0);
  CatalogSnapshot zero;
  zero.trees.push_back(valid.trees[0]);
  SnapshotDistribution zero_dist;
  zero_dist.struct_key = valid.trees[0].struct_key;
  zero_dist.k = 0;
  zero_dist.dist =
      std::make_shared<const RankDistribution>(std::move(zero_k).Build());
  zero.distributions.push_back(std::move(zero_dist));
  ExpectRejected(EncodeCatalogSnapshot(zero), StatusCode::kParseError,
                 "out of range", "k=0");

  // k one past the ceiling (no keys, so the record stays small; the range
  // check fires before the key set is compared).
  RankDistributionBuilder huge_k(kMaxRankK + 1);
  CatalogSnapshot huge;
  huge.trees.push_back(valid.trees[0]);
  SnapshotDistribution huge_dist;
  huge_dist.struct_key = valid.trees[0].struct_key;
  huge_dist.k = kMaxRankK + 1;
  huge_dist.dist =
      std::make_shared<const RankDistribution>(std::move(huge_k).Build());
  huge.distributions.push_back(std::move(huge_dist));
  ExpectRejected(EncodeCatalogSnapshot(huge), StatusCode::kParseError,
                 "out of range", "k=2^20+1");
}

// A missing path is an error, not an empty snapshot — the warm-restart
// contract (a restart that silently comes up cold would hide the defect
// until traffic notices the latency).
TEST(CatalogSnapshotCorruptionTest, MissingFileIsATypedError) {
  const std::string path = ::testing::TempDir() + "/does_not_exist.snap";
  Result<CatalogSnapshot> loaded = ReadCatalogSnapshotFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

// The names in `dir`, "." and ".." aside.
std::vector<std::string> DirEntries(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return names;
  while (const dirent* e = readdir(d)) {
    const std::string name = e->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

// Everything left to read from `f`.
std::string ReadRest(std::FILE* f) {
  std::string bytes;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  return bytes;
}

// A save writes a new file and renames it over the target: a reader that
// opened the old file keeps reading the old bytes whole, a loader starting
// mid-save sees one file or the other, and a save that fails leaves the
// old file and no temporary file behind.
TEST(CatalogSnapshotFileTest, SaveReplacesTheFileWhole) {
  std::string dir_template = ::testing::TempDir() + "/snap_save_XXXXXX";
  ASSERT_NE(mkdtemp(dir_template.data()), nullptr);
  const std::string dir = dir_template;
  const std::string path = dir + "/catalog.snap";

  CatalogSnapshot old_snapshot;
  old_snapshot.trees.push_back(CatalogTreeRecord("a", kTreeText));
  CatalogSnapshot new_snapshot;
  new_snapshot.trees.push_back(CatalogTreeRecord("b", kOtherTreeText));
  const std::string old_bytes = EncodeCatalogSnapshot(old_snapshot);
  const std::string new_bytes = EncodeCatalogSnapshot(new_snapshot);
  ASSERT_NE(old_bytes, new_bytes);

  ASSERT_TRUE(WriteCatalogSnapshotFile(path, old_snapshot).ok());
  std::FILE* reader = std::fopen(path.c_str(), "rb");
  ASSERT_NE(reader, nullptr);
  ASSERT_TRUE(WriteCatalogSnapshotFile(path, new_snapshot).ok());
  EXPECT_EQ(ReadRest(reader), old_bytes);
  std::fclose(reader);
  Result<std::string> saved = ReadFileToString(path);
  ASSERT_TRUE(saved.ok());
  EXPECT_EQ(*saved, new_bytes);
  EXPECT_EQ(DirEntries(dir), std::vector<std::string>{"catalog.snap"});

  // A write past this process's file-size limit fails (EFBIG) midway.
  struct rlimit limit;
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &limit), 0);
  struct rlimit small = limit;
  small.rlim_cur = 16;
  void (*old_handler)(int) = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &small), 0);
  const Status failed = WriteCatalogSnapshotFile(path, old_snapshot);
  setrlimit(RLIMIT_FSIZE, &limit);
  std::signal(SIGXFSZ, old_handler);
  EXPECT_EQ(failed.code(), StatusCode::kInternal) << failed.ToString();
  saved = ReadFileToString(path);
  ASSERT_TRUE(saved.ok());
  EXPECT_EQ(*saved, new_bytes);
  EXPECT_EQ(DirEntries(dir), std::vector<std::string>{"catalog.snap"});

  std::remove(path.c_str());
  rmdir(dir.c_str());
}

// ---------------------------------------------------------------------------
// Round-trip fidelity
// ---------------------------------------------------------------------------

TEST(CatalogSnapshotRoundTripTest, EmptySnapshotRoundTrips) {
  const std::string bytes = EncodeCatalogSnapshot(CatalogSnapshot{});
  EXPECT_EQ(bytes.size(), 40u);  // header + checksum, nothing else
  Result<CatalogSnapshot> decoded =
      DecodeCatalogSnapshot(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->trees.empty());
  EXPECT_TRUE(decoded->distributions.empty());
  EXPECT_EQ(EncodeCatalogSnapshot(*decoded), bytes);
}

TEST(CatalogSnapshotRoundTripTest, EncodingIsIndependentOfRecordOrder) {
  CatalogSnapshot forward;
  forward.trees.push_back(CatalogTreeRecord("a", kTreeText));
  forward.trees.push_back(CatalogTreeRecord("b", kOtherTreeText));
  CatalogSnapshot reversed;
  reversed.trees.push_back(CatalogTreeRecord("b", kOtherTreeText));
  reversed.trees.push_back(CatalogTreeRecord("a", kTreeText));
  EXPECT_EQ(EncodeCatalogSnapshot(forward), EncodeCatalogSnapshot(reversed));
}

// The core property, over every generator family: save -> load -> save is
// byte-identical, fingerprints are preserved, and installing the loaded
// snapshot reproduces the catalog exactly.
TEST(CatalogSnapshotRoundTripTest, GeneratedTreesSurviveSaveLoadSave) {
  for (uint64_t seed : {3u, 17u, 71u, 204u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    RandomTreeOptions opts;
    opts.num_keys = 10;
    opts.max_depth = 3;

    Engine engine(TestEngineOptions());
    TreeCatalog catalog;
    QueryScheduler scheduler(&engine, &catalog);
    auto insert = [&](const std::string& name, Result<AndXorTree> tree) {
      ASSERT_TRUE(tree.ok()) << tree.status().ToString();
      ASSERT_TRUE(catalog.Insert(name, *std::move(tree)).ok());
    };
    insert("deep", RandomAndXorTree(opts, &rng));
    insert("bid", RandomBid(opts, &rng));
    insert("ti", RandomTupleIndependent(8, &rng));
    insert("fixed", Tree(kTreeText));
    // Warm the cache so the snapshot carries distribution sections too.
    for (const char* name : {"deep", "bid", "ti", "fixed"}) {
      ASSERT_TRUE(scheduler.ExecuteOne(TopKRequest(name, 3)).ok());
    }

    const CatalogSnapshot original = BuildCatalogSnapshot(catalog, &scheduler);
    ASSERT_EQ(original.trees.size(), 4u);
    ASSERT_EQ(original.distributions.size(), 4u);
    const std::string bytes = EncodeCatalogSnapshot(original);

    // load -> save: byte identity, from memory and through the file path.
    Result<CatalogSnapshot> decoded =
        DecodeCatalogSnapshot(bytes.data(), bytes.size());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(EncodeCatalogSnapshot(*decoded), bytes);

    const std::string path = ::testing::TempDir() + "/roundtrip.snap";
    ASSERT_TRUE(WriteCatalogSnapshotFile(path, original).ok());
    Result<CatalogSnapshot> read = ReadCatalogSnapshotFile(path);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(EncodeCatalogSnapshot(*read), bytes);

    // Every loaded tree re-fingerprints to the original value — the loaded
    // catalog's identity map is the cold catalog's by construction.
    for (size_t i = 0; i < decoded->trees.size(); ++i) {
      const AndXorTree reparsed = Tree(decoded->trees[i].content);
      EXPECT_EQ(decoded->trees[i].content_fp,
                ContentFp(Fnv1a64(FormatTree(reparsed, /*indent=*/false))));
      EXPECT_EQ(decoded->trees[i].content_fp, original.trees[i].content_fp);
      EXPECT_EQ(decoded->trees[i].struct_key, original.trees[i].struct_key);
      EXPECT_EQ(decoded->trees[i].name, original.trees[i].name);
    }

    // Installing into a fresh catalog + scheduler reproduces the state:
    // same entries, and a snapshot saved from the restored service is the
    // same file again (save -> load -> install -> save, still identical).
    Engine engine2(TestEngineOptions());
    TreeCatalog restored;
    QueryScheduler scheduler2(&engine2, &restored);
    ASSERT_TRUE(
        InstallCatalogSnapshot(*decoded, &restored, &scheduler2).ok());
    EXPECT_EQ(restored.size(), catalog.size());
    EXPECT_EQ(EncodeCatalogSnapshot(BuildCatalogSnapshot(restored,
                                                         &scheduler2)),
              bytes);
  }
}

// Install reuses InsertWithIdentity, so its conflict semantics are the
// catalog's own: identical content re-installs idempotently; a name bound
// to different content fails with AlreadyExists.
TEST(CatalogSnapshotRoundTripTest, InstallSemanticsMatchLineByLineLoads) {
  LiveService live(/*with_distributions=*/false);
  const CatalogSnapshot snapshot = live.Snapshot(false);

  // Idempotent onto itself.
  EXPECT_TRUE(
      InstallCatalogSnapshot(snapshot, &live.catalog, nullptr).ok());
  EXPECT_EQ(live.catalog.size(), 2u);

  // Rebind conflict: the same error Insert reports, byte for byte.
  TreeCatalog conflicted;
  ASSERT_TRUE(conflicted.Insert("a", Tree(kOtherTreeText)).ok());
  Status install =
      InstallCatalogSnapshot(snapshot, &conflicted, nullptr);
  Result<CatalogEntry> direct = conflicted.Insert("a", Tree(kTreeText));
  ASSERT_FALSE(install.ok());
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(install.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(install.message(), direct.status().message());
}

// Seeded distributions are bitwise the ones the engine would compute: a
// warm cache probe returns a distribution whose every (key, i) probability
// equals a fresh engine fold's.
TEST(CatalogSnapshotRoundTripTest, LoadedDistributionsAreBitwiseExact) {
  LiveService live(/*with_distributions=*/true);
  const std::string bytes = EncodeCatalogSnapshot(live.Snapshot(true));
  Result<CatalogSnapshot> decoded =
      DecodeCatalogSnapshot(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->distributions.size(), 2u);
  for (const SnapshotDistribution& dist : decoded->distributions) {
    std::shared_ptr<const RankDistribution> retained;
    for (const auto& entry : live.scheduler.RetainedRankDistributions()) {
      if (entry.struct_key == dist.struct_key && entry.k == dist.k) {
        retained = entry.dist;
      }
    }
    ASSERT_NE(retained, nullptr);
    ASSERT_EQ(dist.dist->keys(), retained->keys());
    ASSERT_EQ(dist.dist->k(), retained->k());
    for (KeyId key : retained->keys()) {
      for (int i = 1; i <= retained->k(); ++i) {
        // Bitwise: EXPECT_EQ on doubles, never NEAR.
        EXPECT_EQ(dist.dist->PrRankEq(key, i), retained->PrRankEq(key, i));
        EXPECT_EQ(dist.dist->PrRankLe(key, i), retained->PrRankLe(key, i));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Parallel decode: the same snapshot and the same first defect at any
// thread count
// ---------------------------------------------------------------------------

// A catalog of generated trees with a k = 3 distribution per shape, large
// enough that every decode thread count splits its records.
CatalogSnapshot GeneratedSnapshot(bool with_distributions) {
  Engine engine(TestEngineOptions());
  TreeCatalog catalog;
  QueryScheduler scheduler(&engine, &catalog);
  Rng rng(29);
  RandomTreeOptions opts;
  opts.num_keys = 9;
  opts.max_depth = 3;
  for (int i = 0; i < 24; ++i) {
    Result<AndXorTree> tree = i % 3 == 0   ? RandomBid(opts, &rng)
                              : i % 3 == 1 ? RandomAndXorTree(opts, &rng)
                                           : RandomTupleIndependent(7, &rng);
    EXPECT_TRUE(tree.ok()) << tree.status().ToString();
    const std::string name = "g" + std::to_string(i);
    EXPECT_TRUE(catalog.Insert(name, *std::move(tree)).ok());
    if (with_distributions) {
      EXPECT_TRUE(scheduler.ExecuteOne(TopKRequest(name, 3)).ok());
    }
  }
  return BuildCatalogSnapshot(catalog,
                              with_distributions ? &scheduler : nullptr);
}

// Asserts two decodes of one file are the same snapshot, bit for bit.
void ExpectSameSnapshot(const CatalogSnapshot& got,
                        const CatalogSnapshot& want) {
  ASSERT_EQ(got.trees.size(), want.trees.size());
  for (size_t i = 0; i < want.trees.size(); ++i) {
    ASSERT_EQ(got.trees[i].name, want.trees[i].name);
    ASSERT_EQ(got.trees[i].content, want.trees[i].content);
    ASSERT_EQ(got.trees[i].canonical_bytes, want.trees[i].canonical_bytes);
    ASSERT_EQ(got.trees[i].content_fp, want.trees[i].content_fp);
    ASSERT_EQ(got.trees[i].struct_key, want.trees[i].struct_key);
    ASSERT_EQ(FormatTree(*got.trees[i].canonical_tree, /*indent=*/false),
              want.trees[i].canonical_bytes);
  }
  ASSERT_EQ(got.distributions.size(), want.distributions.size());
  for (size_t d = 0; d < want.distributions.size(); ++d) {
    const SnapshotDistribution& g = got.distributions[d];
    const SnapshotDistribution& w = want.distributions[d];
    ASSERT_EQ(g.struct_key, w.struct_key);
    ASSERT_EQ(g.k, w.k);
    ASSERT_EQ(g.dist->keys(), w.dist->keys());
    for (KeyId key : w.dist->keys()) {
      for (int i = 1; i <= w.k; ++i) {
        const double got_pr = g.dist->PrRankEq(key, i);
        const double want_pr = w.dist->PrRankEq(key, i);
        ASSERT_EQ(std::memcmp(&got_pr, &want_pr, sizeof(double)), 0)
            << "key " << key << " rank " << i;
      }
    }
  }
}

TEST(CatalogSnapshotThreadsTest, V3FileDecodesAlikeAtAnyThreadCount) {
  for (bool with_dists : {false, true}) {
    SCOPED_TRACE(with_dists ? "with distributions" : "trees only");
    const CatalogSnapshot source = GeneratedSnapshot(with_dists);
    ASSERT_EQ(source.trees.size(), 24u);
    ASSERT_EQ(!source.distributions.empty(), with_dists);
    const std::string bytes = EncodeCatalogSnapshot(source);
    Result<CatalogSnapshot> reference =
        DecodeCatalogSnapshot(bytes.data(), bytes.size());
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ASSERT_EQ(reference->distributions.size(), source.distributions.size());
    // Every stored field and distribution bit, against the source.
    ASSERT_EQ(EncodeCatalogSnapshot(*reference), bytes);
    for (int threads : kDecodeThreads) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      Result<CatalogSnapshot> decoded = DecodeCatalogSnapshot(
          bytes.data(), bytes.size(), DecodePool(threads));
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      ExpectSameSnapshot(*decoded, *reference);
    }
  }
}

// Records are decoded in parallel, but the defect reported is the first in
// record order, whichever phase finds it: record 0 here fails to parse only
// at the end of a long text, so it finishes after a later record's defect
// is known.
TEST(CatalogSnapshotThreadsTest, EarliestDefectInRecordOrderWins) {
  Rng rng(5);
  const std::string slow_garbage =
      FormatTree(*RandomTupleIndependent(3000, &rng), /*indent=*/false) +
      " )";
  auto with_slow_first = [&](std::vector<SnapshotTree> later) {
    CatalogSnapshot snapshot;
    snapshot.trees.push_back(MakeTreeRecord("a0", slow_garbage));
    for (int i = 0; i < 16; ++i) {
      snapshot.trees.push_back(CatalogTreeRecord(
          "b" + std::to_string(10 + i), i % 2 ? kTreeText : kOtherTreeText));
    }
    for (SnapshotTree& record : later) {
      snapshot.trees.push_back(std::move(record));
    }
    return EncodeCatalogSnapshot(snapshot);
  };
  const std::string first_defect = "tree record 0 ('a0'): embedded tree does "
                                   "not parse: trailing input after tree";

  // A later record that fails to parse at once.
  const std::string later_parse =
      with_slow_first({MakeTreeRecord("c", "(and (xor 0.5")});
  // A later duplicate name, found by the in-order pass.
  const std::string later_duplicate = with_slow_first(
      {CatalogTreeRecord("c", kTreeText), CatalogTreeRecord("c", kTreeText)});
  // A later record whose text runs past the payload, found while framing.
  std::string later_truncated =
      with_slow_first({CatalogTreeRecord("c", kTreeText)});
  later_truncated.erase(later_truncated.size() - 8 - 5, 5);
  later_truncated = Restamped(std::move(later_truncated));

  for (const auto& [label, bytes] : std::vector<std::pair<std::string,
                                                          std::string>>{
           {"later parse error", later_parse},
           {"later duplicate name", later_duplicate},
           {"later truncated record", later_truncated}}) {
    ExpectRejected(bytes, StatusCode::kParseError, first_defect, label);
  }

  // The same among distribution records: record 0's bad probability wins
  // over a later duplicate.
  LiveService live(/*with_distributions=*/true);
  CatalogSnapshot valid = live.Snapshot(true);
  ASSERT_EQ(valid.distributions.size(), 2u);
  CatalogSnapshot dists = valid;
  std::sort(dists.distributions.begin(), dists.distributions.end(),
            [](const SnapshotDistribution& a, const SnapshotDistribution& b) {
              return a.struct_key < b.struct_key;
            });
  RankDistributionBuilder poisoned(dists.distributions[0].k);
  for (KeyId key : dists.distributions[0].dist->keys()) {
    poisoned.Add(key, 1, 2.0);
  }
  dists.distributions[0].dist =
      std::make_shared<const RankDistribution>(std::move(poisoned).Build());
  dists.distributions.push_back(dists.distributions[1]);
  const std::string dist_bytes = EncodeCatalogSnapshot(dists);
  ExpectRejected(dist_bytes, StatusCode::kParseError,
                 "distribution record 0: Pr(r = 1) is not a probability",
                 "bad probability before a duplicate");
}

// The checksum runs as one more decode task beside the tree records, yet
// its mismatch is still the first defect reported: before a forged count,
// a framing defect, a record that fails its own checks or one that fails
// an in-order check, whichever task finishes first. Each file below carries
// one of those defects and a wrong checksum; ExpectRejected checks the
// message at one, two, four and eight decode threads.
TEST(CatalogSnapshotThreadsTest, ChecksumMismatchIsReportedFirst) {
  // A wrong stored checksum over otherwise untouched bytes.
  auto with_bad_checksum = [](std::string bytes) {
    const size_t at = bytes.size() - 8;
    bytes[at] = static_cast<char>(bytes[at] ^ 0x01);
    return bytes;
  };
  // Many records, so the decode tasks split across every pool; the first
  // is a long text that fails to parse only at its end.
  auto records = [](std::vector<SnapshotTree> extra) {
    CatalogSnapshot snapshot;
    for (int i = 0; i < 16; ++i) {
      snapshot.trees.push_back(CatalogTreeRecord(
          "b" + std::to_string(10 + i), i % 2 ? kTreeText : kOtherTreeText));
    }
    for (SnapshotTree& record : extra) {
      snapshot.trees.push_back(std::move(record));
    }
    return EncodeCatalogSnapshot(snapshot);
  };

  std::vector<std::pair<std::string, std::string>> defects;
  {
    std::string trees = ValidBytes(false);
    PokeU64(&trees, kTreeCountOffset, uint64_t{1} << 60);
    defects.emplace_back("forged tree count", Restamped(trees));
    std::string dists = ValidBytes(true);
    PokeU64(&dists, kDistCountOffset, uint64_t{1} << 60);
    defects.emplace_back("forged distribution count", Restamped(dists));
  }
  {
    std::string truncated = records({CatalogTreeRecord("c", kTreeText)});
    truncated.erase(truncated.size() - 8 - 5, 5);
    defects.emplace_back("truncated record", Restamped(truncated));
    std::string garbage = records({});
    garbage.insert(garbage.size() - 8, "JUNK");
    defects.emplace_back("trailing garbage", Restamped(garbage));
  }
  Rng rng(11);
  defects.emplace_back(
      "record that does not parse",
      records({MakeTreeRecord(
          "a0", FormatTree(*RandomTupleIndependent(3000, &rng),
                           /*indent=*/false) +
                    " )")}));
  defects.emplace_back(
      "duplicate name",
      records({CatalogTreeRecord("c", kTreeText),
               CatalogTreeRecord("c", kTreeText)}));
  {
    LiveService live(/*with_distributions=*/true);
    CatalogSnapshot dangling = live.Snapshot(true);
    dangling.trees.pop_back();
    defects.emplace_back("dangling distribution",
                         EncodeCatalogSnapshot(dangling));
  }

  for (const auto& [label, bytes] : defects) {
    // Each file is rejected for its own defect while its checksum holds...
    {
      SCOPED_TRACE(label);
      Result<CatalogSnapshot> own =
          DecodeCatalogSnapshot(bytes.data(), bytes.size(), DecodePool(4));
      ASSERT_FALSE(own.ok());
      EXPECT_EQ(own.status().message().find("checksum"), std::string::npos)
          << own.status().ToString();
    }
    // ...and for its checksum once that is wrong too.
    ExpectRejected(with_bad_checksum(bytes), StatusCode::kParseError,
                   "catalog snapshot checksum mismatch", label);
  }
}

}  // namespace
}  // namespace cpdb
