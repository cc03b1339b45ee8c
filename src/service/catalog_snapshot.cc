// Copyright 2026 The ConsensusDB Authors

#include "service/catalog_snapshot.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <set>
#include <string_view>
#include <utility>

#include "common/hash.h"
#include "common/thread_pool.h"
#include "io/table_io.h"
#include "io/tree_text.h"
#include "service/query_scheduler.h"

namespace cpdb {
namespace {

constexpr size_t kHeaderBytes = 32;    // magic + version + reserved + counts
constexpr size_t kChecksumBytes = 8;   // trailing u64
// The smallest possible record of each kind — the divisor that lets the
// decoder reject a forged count before iterating: `count` records need at
// least count * minimum bytes, so a count exceeding remaining/minimum can
// never fit, however the records are shaped.
constexpr size_t kMinTreeRecordBytes = 4 + 8 + 8 + 8;  // empty name/content
constexpr size_t kMinDistRecordBytes = 8 + 4 + 8;      // zero keys
constexpr size_t kMinKeyBlockBytes = 4 + 8;            // key id + one double

// --- little-endian primitives (explicit byte shifts: the format must not
// depend on host endianness or on struct layout) -------------------------

void AppendU32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 24) & 0xff));
}

void AppendU64(std::string* out, uint64_t v) {
  AppendU32(out, static_cast<uint32_t>(v & 0xffffffffULL));
  AppendU32(out, static_cast<uint32_t>(v >> 32));
}

void AppendDoubleBits(std::string* out, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "IEEE-754 double expected");
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU64(out, bits);
}

/// Bounds-checked forward-only reader over the snapshot bytes. Every Read*
/// checks the remaining payload *before* advancing, so a truncated or
/// forged file can never walk the cursor out of the buffer — the property
/// the ASan leg of the torture matrix pins.
class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  size_t pos() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }

  bool ReadU32(uint32_t* v) {
    if (remaining() < 4) return false;
    *v = static_cast<uint32_t>(data_[pos_]) |
         (static_cast<uint32_t>(data_[pos_ + 1]) << 8) |
         (static_cast<uint32_t>(data_[pos_ + 2]) << 16) |
         (static_cast<uint32_t>(data_[pos_ + 3]) << 24);
    pos_ += 4;
    return true;
  }

  bool ReadU64(uint64_t* v) {
    uint32_t lo = 0;
    uint32_t hi = 0;
    if (remaining() < 8) return false;
    ReadU32(&lo);
    ReadU32(&hi);
    *v = static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
    return true;
  }

  bool ReadDoubleBits(double* v) {
    uint64_t bits = 0;
    if (!ReadU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }

  bool ReadBytes(size_t n, std::string_view* out) {
    if (remaining() < n) return false;
    *out = std::string_view(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return true;
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

Status Truncated(const std::string& what) {
  return Status::ParseError("catalog snapshot truncated: " + what);
}

std::string TreeWhere(uint64_t index) {
  return "tree record " + std::to_string(index);
}

std::string DistWhere(uint64_t index) {
  return "distribution record " + std::to_string(index);
}

// One tree record's fields, viewing the snapshot bytes.
struct TreeFrame {
  std::string_view name;
  uint64_t fingerprint = 0;
  uint64_t struct_key = 0;
  std::string_view text;
};

// One distribution record's fields; `block` holds its `key_count` key
// blocks (a key id and k probabilities each).
struct DistFrame {
  uint64_t key = 0;  // the owning tree's structural key
  uint32_t k = 0;
  uint64_t key_count = 0;
  std::string_view block;
};

// Reads every record's lengths, bounds-checked, into frames, stopping at
// the first framing defect, which it returns.
Status FrameRecords(uint64_t tree_count, uint64_t dist_count, Reader* reader,
                    std::vector<TreeFrame>* trees,
                    std::vector<DistFrame>* dists) {
  for (uint64_t index = 0; index < tree_count; ++index) {
    TreeFrame frame;
    uint32_t name_len = 0;
    if (!reader->ReadU32(&name_len) || reader->remaining() < name_len) {
      return Truncated(TreeWhere(index) + " name");
    }
    reader->ReadBytes(name_len, &frame.name);
    uint64_t content_len = 0;
    if (!reader->ReadU64(&frame.fingerprint) ||
        !reader->ReadU64(&frame.struct_key) ||
        !reader->ReadU64(&content_len)) {
      return Truncated(TreeWhere(index));
    }
    if (content_len > reader->remaining()) {
      return Truncated(TreeWhere(index) + " tree text");
    }
    reader->ReadBytes(static_cast<size_t>(content_len), &frame.text);
    trees->push_back(frame);
  }
  for (uint64_t index = 0; index < dist_count; ++index) {
    DistFrame frame;
    if (!reader->ReadU64(&frame.key) || !reader->ReadU32(&frame.k) ||
        !reader->ReadU64(&frame.key_count)) {
      return Truncated(DistWhere(index));
    }
    if (frame.k < 1 || frame.k > static_cast<uint32_t>(kMaxRankK)) {
      return Status::ParseError(DistWhere(index) + ": k " +
                                std::to_string(frame.k) + " out of range [1, " +
                                std::to_string(kMaxRankK) + "]");
    }
    const size_t key_block = kMinKeyBlockBytes +
                             (static_cast<size_t>(frame.k) - 1) *
                                 sizeof(uint64_t);
    if (frame.key_count > reader->remaining() / key_block) {
      return Truncated(DistWhere(index) + ": key count " +
                       std::to_string(frame.key_count) +
                       " cannot fit in the remaining payload");
    }
    reader->ReadBytes(static_cast<size_t>(frame.key_count) * key_block,
                      &frame.block);
    dists->push_back(frame);
  }
  return Status::OK();
}

// A tree record's own checks, which read no other record: the content goes
// through exactly the checks line-by-line loading applies, plus the
// format's invariants. In this order: the fingerprint must hash the
// content bytes, the bytes must parse and be the round-trip serialization
// of the tree they parse to (so ContentFp stays injective over formatted
// texts — a hand-crafted denormalized record would corrupt the catalog's
// content dedup), and the stored structural key must hash the canonical
// re-orientation.
Status DecodeTree(uint64_t index, const TreeFrame& frame,
                  TreeIdentity* identity_out) {
  auto where = [&] {
    return TreeWhere(index) + " ('" + std::string(frame.name) + "')";
  };
  // The identity is derived exactly as a live load derives it; only the
  // stored fields are checked against it, never trusted (a forged
  // structural key would route the binding to the wrong shard and the
  // wrong cache lines). Derived first, so the text is hashed once: a text
  // that round-trips is the identity's content, whose ContentFp was hashed
  // in one pass with the canonical bytes. Any other text is hashed on its
  // own, so the fingerprint check still comes first.
  Result<AndXorTree> parsed = ParseTree(frame.text);
  const Status parse_status = parsed.status();
  Result<TreeIdentity> identity =
      parse_status.ok()
          ? TreeCatalog::ComputeIdentity(std::move(parsed).ValueOrDie())
          : Result<TreeIdentity>(parse_status);
  const bool round_trips = identity.ok() && identity->content == frame.text;
  const uint64_t text_fp = round_trips
                               ? identity->content_fp.value()
                               : Fnv1a64(frame.text.data(), frame.text.size());
  if (frame.fingerprint != text_fp) {
    return Status::ParseError(
        where() + ": stored fingerprint does not hash the stored tree text");
  }
  if (!parse_status.ok()) {
    return Status::ParseError(where() + ": embedded tree does not parse: " +
                              parse_status.message());
  }
  if (!identity.ok()) {
    return Status::ParseError(where() +
                              ": embedded tree does not canonicalize: " +
                              identity.status().message());
  }
  if (!round_trips) {
    return Status::ParseError(where() +
                              ": stored tree text is not in canonical form");
  }
  if (frame.struct_key != identity->struct_key.value()) {
    return Status::ParseError(
        where() +
        ": stored structural key does not hash the canonical form of the "
        "stored tree");
  }
  *identity_out = std::move(identity).ValueOrDie();
  return Status::OK();
}

// A distribution record's own checks: ascending keys, probabilities in
// [0, 1], and exactly its tree's key set (`tree_keys`, sorted), without
// which the engine would be served zeros for keys it ranks.
// (Canonicalization permutes children, never leaves, so every tree of the
// record's structural key has that key set, whatever its orientation.)
Status DecodeDistribution(uint64_t index, const DistFrame& frame,
                          const std::string& tree_name,
                          const std::vector<KeyId>& tree_keys,
                          RankDistribution* dist_out) {
  Reader reader(reinterpret_cast<const uint8_t*>(frame.block.data()),
                frame.block.size());
  RankDistributionBuilder builder(static_cast<int>(frame.k));
  // Sized only when a key's k probabilities are in the payload: a record
  // with no keys may still claim a k of 2^20.
  std::vector<double> row(frame.key_count > 0 ? frame.k : 0);
  KeyId previous_key = 0;
  for (uint64_t key_index = 0; key_index < frame.key_count; ++key_index) {
    uint32_t raw_key = 0;
    if (!reader.ReadU32(&raw_key)) {
      return Truncated(DistWhere(index) + " keys");
    }
    const KeyId key = static_cast<KeyId>(raw_key);
    if (key_index > 0 && key <= previous_key) {
      return Status::ParseError(DistWhere(index) +
                                ": keys are not strictly ascending");
    }
    previous_key = key;
    for (uint32_t i = 1; i <= frame.k; ++i) {
      double pr = 0.0;
      if (!reader.ReadDoubleBits(&pr)) {
        return Truncated(DistWhere(index) + " probabilities");
      }
      if (!std::isfinite(pr) || pr < 0.0 || pr > 1.0) {
        return Status::ParseError(DistWhere(index) + ": Pr(r = " +
                                  std::to_string(i) +
                                  ") is not a probability");
      }
      row[i - 1] = pr;
    }
    builder.AddRow(key, row.data(), static_cast<int>(frame.k));
  }
  RankDistribution dist = std::move(builder).Build();
  if (dist.keys() != tree_keys) {
    return Status::ParseError(
        DistWhere(index) +
        ": distribution keys do not match the keys of its tree ('" +
        tree_name + "')");
  }
  *dist_out = std::move(dist);
  return Status::OK();
}

// Runs one record's decode on a pool thread. Pool tasks must not throw, so
// an exception fails the record it came from, as a batch's solve does.
template <typename Fn>
Status Guarded(std::string (*where)(uint64_t), uint64_t index, Fn&& decode) {
  try {
    return decode();
  } catch (const std::exception& e) {
    return Status::Internal(where(index) + ": decode failed: " + e.what());
  } catch (...) {
    return Status::Internal(where(index) + ": decode failed");
  }
}

}  // namespace

std::string EncodeCatalogSnapshot(const CatalogSnapshot& snapshot) {
  // Sort views, not the caller's vectors: encoding is a const observation.
  std::vector<const SnapshotTree*> trees;
  trees.reserve(snapshot.trees.size());
  for (const SnapshotTree& t : snapshot.trees) trees.push_back(&t);
  std::sort(trees.begin(), trees.end(),
            [](const SnapshotTree* a, const SnapshotTree* b) {
              return a->name < b->name;
            });

  std::vector<const SnapshotDistribution*> dists;
  dists.reserve(snapshot.distributions.size());
  for (const SnapshotDistribution& d : snapshot.distributions) {
    dists.push_back(&d);
  }
  std::sort(dists.begin(), dists.end(),
            [](const SnapshotDistribution* a, const SnapshotDistribution* b) {
              if (a->struct_key != b->struct_key) {
                return a->struct_key < b->struct_key;
              }
              return a->k < b->k;
            });

  std::string out;
  out.append(kCatalogSnapshotMagic, sizeof(kCatalogSnapshotMagic));
  AppendU32(&out, kCatalogSnapshotVersion);
  AppendU32(&out, 0);  // reserved
  AppendU64(&out, static_cast<uint64_t>(trees.size()));
  AppendU64(&out, static_cast<uint64_t>(dists.size()));

  for (const SnapshotTree* t : trees) {
    AppendU32(&out, static_cast<uint32_t>(t->name.size()));
    out.append(t->name);
    AppendU64(&out, t->content_fp.value());
    AppendU64(&out, t->struct_key.value());
    AppendU64(&out, static_cast<uint64_t>(t->content.size()));
    out.append(t->content);
  }

  for (const SnapshotDistribution* d : dists) {
    AppendU64(&out, d->struct_key.value());
    AppendU32(&out, static_cast<uint32_t>(d->k));
    const std::vector<KeyId>& keys = d->dist->keys();
    AppendU64(&out, static_cast<uint64_t>(keys.size()));
    for (KeyId key : keys) {
      AppendU32(&out, static_cast<uint32_t>(key));
      for (int i = 1; i <= d->k; ++i) {
        AppendDoubleBits(&out, d->dist->PrRankEq(key, i));
      }
    }
  }

  AppendU64(&out, Fnv1a64(out.data(), out.size()));
  return out;
}

Result<CatalogSnapshot> DecodeCatalogSnapshot(const void* data, size_t size,
                                              ThreadPool* pool) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);

  // 1. Shape: even an empty snapshot carries the full header and checksum.
  if (size < kHeaderBytes + kChecksumBytes) {
    return Truncated(std::to_string(size) + " bytes, but an empty snapshot is " +
                     std::to_string(kHeaderBytes + kChecksumBytes));
  }

  // 2. Magic: is this a snapshot at all?
  if (std::memcmp(bytes, kCatalogSnapshotMagic,
                  sizeof(kCatalogSnapshotMagic)) != 0) {
    return Status::ParseError("not a catalog snapshot (bad magic)");
  }

  // The record reader spans the payload only — every remaining() check is
  // against the byte before the checksum, so no record can extend into (or
  // past) the trailing u64 however its lengths are forged.
  const size_t payload_end = size - kChecksumBytes;
  Reader reader(bytes, payload_end);
  std::string_view magic;
  reader.ReadBytes(sizeof(kCatalogSnapshotMagic), &magic);

  // 3. Version: refuse anything but the version this build writes — a
  // newer format may carry semantics this decoder would silently drop, an
  // older one distributions folded differently, and guessing wrong corrupts
  // answers, so any other version => hard error.
  uint32_t version = 0;
  uint32_t reserved = 0;
  reader.ReadU32(&version);
  reader.ReadU32(&reserved);
  if (version != kCatalogSnapshotVersion) {
    return Status::InvalidArgument(
        "catalog snapshot format version " + std::to_string(version) +
        " is not supported by this build (the one supported version is " +
        std::to_string(kCatalogSnapshotVersion) + "); refusing to guess");
  }
  if (reserved != 0) {
    return Status::ParseError(
        "catalog snapshot reserved header field is nonzero");
  }

  // 4. Checksum, before trusting any count or length: Fnv1a64 over every
  // byte up to the trailing u64. Catches bit rot, truncation-with-padding,
  // and bytes appended after the original checksum (the checksum is *at*
  // size-8, so growing the file moves where we look).
  {
    uint64_t computed = Fnv1a64(bytes, size - kChecksumBytes);
    Reader tail(bytes + size - kChecksumBytes, kChecksumBytes);
    uint64_t stored = 0;
    tail.ReadU64(&stored);
    if (computed != stored) {
      return Status::ParseError(
          "catalog snapshot checksum mismatch (file corrupted): stored " +
          HashToHex(stored) + ", computed " + HashToHex(computed));
    }
  }

  uint64_t tree_count = 0;
  uint64_t dist_count = 0;
  reader.ReadU64(&tree_count);
  reader.ReadU64(&dist_count);

  // 5. Counts vs payload: a record count whose minimum encoding exceeds the
  // remaining bytes is forged — reject before looping (this is the
  // entry-count-overflow defense; the division cannot overflow).
  const size_t payload_remaining = reader.remaining();
  if (tree_count > payload_remaining / kMinTreeRecordBytes) {
    return Status::ParseError(
        "catalog snapshot tree count " + std::to_string(tree_count) +
        " cannot fit in the remaining " + std::to_string(payload_remaining) +
        " payload bytes");
  }
  if (dist_count > payload_remaining / kMinDistRecordBytes) {
    return Status::ParseError(
        "catalog snapshot distribution count " + std::to_string(dist_count) +
        " cannot fit in the remaining " + std::to_string(payload_remaining) +
        " payload bytes");
  }

  // 6. Framing: walk every record's lengths, keeping views into the
  // snapshot bytes, up to the first framing defect. Nothing is parsed yet.
  std::vector<TreeFrame> tree_frames;
  std::vector<DistFrame> dist_frames;
  tree_frames.reserve(static_cast<size_t>(tree_count));
  Status framing = FrameRecords(tree_count, dist_count, &reader, &tree_frames,
                                &dist_frames);
  // The cursor must land exactly on the checksum: bytes between the last
  // record and the trailing u64 are garbage even when the file's author
  // re-stamped a checksum over them.
  if (framing.ok() && reader.pos() != payload_end) {
    framing = Status::ParseError(
        "catalog snapshot has " + std::to_string(payload_end - reader.pos()) +
        " bytes of trailing garbage after the last record");
  }

  // 7. The per-record work — parse, identity, distribution build — is
  // independent per record, so it fans out over the caller's pool. Each
  // task writes only its own slot and reports its own defect; the in-order
  // passes below report the first defect in record order, so the result
  // and every message are the same on any pool.
  auto for_each_record = [pool](int64_t n,
                                const std::function<void(int64_t)>& body) {
    if (pool != nullptr) {
      pool->ParallelFor(n, body);
    } else {
      for (int64_t i = 0; i < n; ++i) body(i);
    }
  };

  struct DecodedTree {
    Status status;
    TreeIdentity identity;
    std::vector<KeyId> keys;  // sorted; only when there are distributions
  };
  std::vector<DecodedTree> decoded_trees(tree_frames.size());
  for_each_record(static_cast<int64_t>(tree_frames.size()), [&](int64_t i) {
    const TreeFrame& frame = tree_frames[static_cast<size_t>(i)];
    DecodedTree& out = decoded_trees[static_cast<size_t>(i)];
    out.status = Guarded(TreeWhere, static_cast<uint64_t>(i), [&] {
      CPDB_RETURN_NOT_OK(
          DecodeTree(static_cast<uint64_t>(i), frame, &out.identity));
      // Every distribution of this tree compares its keys against these,
      // sorted once per tree.
      if (!dist_frames.empty()) {
        out.keys = out.identity.canonical_tree->Keys();
      }
      return Status::OK();
    });
  });

  // 8. Trees in record order: the name checks, which depend on earlier
  // records, then the record's own decode.
  CatalogSnapshot snapshot;
  snapshot.trees.reserve(tree_frames.size());
  std::set<std::string_view> seen_names;
  std::map<uint64_t, size_t> tree_of_key;
  for (size_t index = 0; index < tree_frames.size(); ++index) {
    const TreeFrame& frame = tree_frames[index];
    if (frame.name.empty()) {
      return Status::ParseError(TreeWhere(index) +
                                ": catalog name must not be empty");
    }
    if (!seen_names.insert(frame.name).second) {
      return Status::ParseError(TreeWhere(index) +
                                ": duplicate catalog name '" +
                                std::string(frame.name) + "'");
    }
    CPDB_RETURN_NOT_OK(decoded_trees[index].status);
    // Decoded, both stored keys equal the recomputed ones.
    tree_of_key.emplace(frame.struct_key, index);
    snapshot.trees.push_back(
        SnapshotTree{std::move(decoded_trees[index].identity),
                     std::string(frame.name)});
  }
  if (tree_frames.size() < tree_count) return framing;

  // 9. Distributions: the dangling and duplicate checks depend on earlier
  // records, so they run in order up to the first defect; the records
  // before it decode in parallel.
  Status dist_defect;
  std::vector<size_t> dist_tree;
  std::set<std::pair<uint64_t, uint32_t>> seen_dists;
  for (size_t index = 0; index < dist_frames.size(); ++index) {
    const DistFrame& frame = dist_frames[index];
    auto tree_it = tree_of_key.find(frame.key);
    if (tree_it == tree_of_key.end()) {
      dist_defect = Status::ParseError(
          DistWhere(index) + ": distribution for structural key " +
          HashToHex(frame.key) +
          ", which no tree record in this snapshot carries");
      break;
    }
    if (!seen_dists.emplace(frame.key, frame.k).second) {
      dist_defect = Status::ParseError(
          DistWhere(index) + ": duplicate (structural key, k) = (" +
          HashToHex(frame.key) + ", " + std::to_string(frame.k) + ")");
      break;
    }
    dist_tree.push_back(tree_it->second);
  }
  struct DecodedDist {
    Status status;
    RankDistribution dist;
  };
  std::vector<DecodedDist> decoded_dists(dist_tree.size());
  for_each_record(static_cast<int64_t>(dist_tree.size()), [&](int64_t i) {
    const size_t t = dist_tree[static_cast<size_t>(i)];
    DecodedDist& out = decoded_dists[static_cast<size_t>(i)];
    out.status = Guarded(DistWhere, static_cast<uint64_t>(i), [&] {
      return DecodeDistribution(static_cast<uint64_t>(i),
                                dist_frames[static_cast<size_t>(i)],
                                snapshot.trees[t].name, decoded_trees[t].keys,
                                &out.dist);
    });
  });

  snapshot.distributions.reserve(dist_tree.size());
  for (size_t index = 0; index < dist_tree.size(); ++index) {
    CPDB_RETURN_NOT_OK(decoded_dists[index].status);
    SnapshotDistribution record;
    record.struct_key = snapshot.trees[dist_tree[index]].struct_key;
    record.k = static_cast<int>(dist_frames[index].k);
    record.dist = std::make_shared<const RankDistribution>(
        std::move(decoded_dists[index].dist));
    snapshot.distributions.push_back(std::move(record));
  }
  CPDB_RETURN_NOT_OK(dist_defect);
  CPDB_RETURN_NOT_OK(framing);
  return snapshot;
}

CatalogSnapshot BuildCatalogSnapshot(const TreeCatalog& catalog,
                                     const QueryScheduler* scheduler) {
  CatalogSnapshot snapshot;
  std::set<uint64_t> struct_keys;
  for (CatalogEntry& entry : catalog.SnapshotEntries()) {
    // The stored identity carries the binding's wire bytes — what kLoad
    // carried, which ContentFp hashes — not the canonical orientation the
    // entry's shared tree holds; the catalog retains them for exactly this
    // round trip.
    Result<TreeIdentity> identity = catalog.IdentityOf(entry.content_fp);
    if (!identity.ok()) continue;  // unreachable for a live entry
    struct_keys.insert(identity->struct_key.value());
    snapshot.trees.push_back(
        SnapshotTree{std::move(identity).ValueOrDie(), std::move(entry.name)});
  }
  if (scheduler != nullptr) {
    for (RankDistCache::RetainedEntry& entry :
         scheduler->RetainedRankDistributions()) {
      // The cache can only hold keys of catalog content, but be defensive:
      // the decoder rejects a distribution with no tree record, so never
      // write one.
      if (struct_keys.count(entry.struct_key.value()) == 0) continue;
      SnapshotDistribution record;
      record.struct_key = entry.struct_key;
      record.k = entry.k;
      record.dist = std::move(entry.dist);
      snapshot.distributions.push_back(std::move(record));
    }
  }
  return snapshot;
}

Status InstallCatalogSnapshot(const CatalogSnapshot& snapshot,
                              TreeCatalog* catalog,
                              QueryScheduler* scheduler) {
  for (const SnapshotTree& record : snapshot.trees) {
    CPDB_RETURN_NOT_OK(
        catalog->InsertWithIdentity(record.name, record).status());
  }
  if (scheduler != nullptr) {
    for (const SnapshotDistribution& record : snapshot.distributions) {
      scheduler->SeedRankDistribution(record.struct_key, record.k,
                                      record.dist);
    }
  }
  return Status::OK();
}

Status WriteCatalogSnapshotFile(const std::string& path,
                                const CatalogSnapshot& snapshot) {
  return WriteStringToFile(path, EncodeCatalogSnapshot(snapshot));
}

Result<CatalogSnapshot> ReadCatalogSnapshotFile(const std::string& path,
                                                ThreadPool* pool) {
  CPDB_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  return DecodeCatalogSnapshot(bytes.data(), bytes.size(), pool);
}

}  // namespace cpdb
