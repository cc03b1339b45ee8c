// Copyright 2026 The ConsensusDB Authors

#include "service/catalog_snapshot.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <string_view>
#include <utility>

#include "common/hash.h"
#include "io/mmap_file.h"
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
// never fit, however the records are shaped. v2 tree records carry one
// extra u64 (the structural key) over v1's.
constexpr size_t kMinTreeRecordBytesV1 = 4 + 8 + 8;      // empty name/content
constexpr size_t kMinTreeRecordBytesV2 = 4 + 8 + 8 + 8;  // + struct key
constexpr size_t kMinDistRecordBytes = 8 + 4 + 8;   // zero keys
constexpr size_t kMinKeyBlockBytes = 4 + 8;         // key id + one double

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

Result<CatalogSnapshot> DecodeCatalogSnapshot(const void* data, size_t size) {
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

  // 3. Version: refuse anything newer than this build writes — a future
  // format may carry semantics this decoder would silently drop, and
  // guessing wrong corrupts answers, so unknown version => hard error.
  uint32_t version = 0;
  uint32_t reserved = 0;
  reader.ReadU32(&version);
  reader.ReadU32(&reserved);
  if (version == 0 || version > kCatalogSnapshotVersion) {
    return Status::InvalidArgument(
        "catalog snapshot format version " + std::to_string(version) +
        " is not supported by this build (newest supported: " +
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
  const size_t min_tree_record_bytes =
      version >= 2 ? kMinTreeRecordBytesV2 : kMinTreeRecordBytesV1;
  const size_t payload_remaining = reader.remaining();
  if (tree_count > payload_remaining / min_tree_record_bytes) {
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

  CatalogSnapshot snapshot;
  snapshot.trees.reserve(static_cast<size_t>(tree_count));
  std::set<std::string> seen_names;
  // v1 dist records address trees by content fingerprint; v2 and v3 by
  // structural key.
  std::map<uint64_t, const SnapshotTree*> by_fingerprint;
  std::map<uint64_t, const SnapshotTree*> by_struct_key;

  for (uint64_t index = 0; index < tree_count; ++index) {
    const std::string where = "tree record " + std::to_string(index);
    // Views into the snapshot bytes: the text is parsed in place, and only
    // the identity derived from it is kept.
    std::string_view name_bytes;
    std::string_view text;
    uint32_t name_len = 0;
    if (!reader.ReadU32(&name_len) || reader.remaining() < name_len) {
      return Truncated(where + " name");
    }
    reader.ReadBytes(name_len, &name_bytes);
    std::string name(name_bytes);
    uint64_t fingerprint = 0;
    uint64_t stored_struct_key = 0;
    uint64_t content_len = 0;
    if (!reader.ReadU64(&fingerprint) ||
        (version >= 2 && !reader.ReadU64(&stored_struct_key)) ||
        !reader.ReadU64(&content_len)) {
      return Truncated(where);
    }
    if (content_len > reader.remaining()) {
      return Truncated(where + " tree text");
    }
    reader.ReadBytes(static_cast<size_t>(content_len), &text);

    // Semantic validation. Names and content go through exactly the checks
    // line-by-line loading applies, plus the format's own invariants: the
    // fingerprint must hash the content bytes, the bytes must be the
    // round-trip serialization of the tree they parse to (so ContentFp
    // stays injective over formatted texts — a hand-crafted denormalized
    // record would corrupt the catalog's content dedup), and in v2 the
    // stored structural key must hash the canonical re-orientation.
    if (name.empty()) {
      return Status::ParseError(where + ": catalog name must not be empty");
    }
    if (!seen_names.insert(name).second) {
      return Status::ParseError(where + ": duplicate catalog name '" + name +
                                "'");
    }
    if (fingerprint != Fnv1a64(text.data(), text.size())) {
      return Status::ParseError(
          where + " ('" + name +
          "'): stored fingerprint does not hash the stored tree text");
    }
    Result<AndXorTree> parsed = ParseTree(text);
    if (!parsed.ok()) {
      return Status::ParseError(where + " ('" + name +
                                "'): embedded tree does not parse: " +
                                parsed.status().message());
    }
    // The identity is derived exactly as a live load derives it; only the
    // stored fields are checked against it, never trusted (v1 has no
    // structural key to go by; in v2 a forged key would route the binding
    // to the wrong shard and the wrong cache lines).
    Result<TreeIdentity> identity =
        TreeCatalog::ComputeIdentity(std::move(parsed).ValueOrDie());
    if (!identity.ok()) {
      return Status::ParseError(where + " ('" + name +
                                "'): embedded tree does not canonicalize: " +
                                identity.status().message());
    }
    if (identity->content != text) {
      return Status::ParseError(
          where + " ('" + name +
          "'): stored tree text is not in canonical form");
    }
    if (version >= 2 && stored_struct_key != identity->struct_key.value()) {
      return Status::ParseError(
          where + " ('" + name +
          "'): stored structural key does not hash the canonical form of "
          "the stored tree");
    }
    snapshot.trees.push_back(
        SnapshotTree{std::move(identity).ValueOrDie(), std::move(name)});
    const SnapshotTree* record = &snapshot.trees.back();
    by_fingerprint.emplace(fingerprint, record);
    by_struct_key.emplace(record->struct_key.value(), record);
  }

  snapshot.distributions.reserve(static_cast<size_t>(dist_count));
  std::set<std::pair<uint64_t, int>> seen_dists;

  for (uint64_t index = 0; index < dist_count; ++index) {
    const std::string where = "distribution record " + std::to_string(index);
    uint64_t dist_key = 0;
    uint32_t k = 0;
    uint64_t key_count = 0;
    if (!reader.ReadU64(&dist_key) || !reader.ReadU32(&k) ||
        !reader.ReadU64(&key_count)) {
      return Truncated(where);
    }
    if (k < 1 || k > static_cast<uint32_t>(kMaxRankK)) {
      return Status::ParseError(where + ": k " + std::to_string(k) +
                                " out of range [1, " +
                                std::to_string(kMaxRankK) + "]");
    }
    const size_t key_block = kMinKeyBlockBytes +
                             (static_cast<size_t>(k) - 1) * sizeof(uint64_t);
    if (key_count > reader.remaining() / key_block) {
      return Truncated(where + ": key count " + std::to_string(key_count) +
                       " cannot fit in the remaining payload");
    }
    // v1 addresses the owning tree by content fingerprint, v2 and v3 by
    // structural key; a dangling reference is a defect in all.
    const std::map<uint64_t, const SnapshotTree*>& dist_index =
        version >= 2 ? by_struct_key : by_fingerprint;
    auto tree_it = dist_index.find(dist_key);
    if (tree_it == dist_index.end()) {
      return Status::ParseError(
          where + ": distribution for " +
          std::string(version >= 2 ? "structural key " : "fingerprint ") +
          HashToHex(dist_key) +
          ", which no tree record in this snapshot carries");
    }
    const SnapshotTree& tree = *tree_it->second;
    if (!seen_dists.emplace(dist_key, static_cast<int>(k)).second) {
      return Status::ParseError(
          where + ": duplicate (" +
          std::string(version >= 2 ? "structural key" : "fingerprint") +
          ", k) = (" + HashToHex(dist_key) + ", " + std::to_string(k) + ")");
    }

    RankDistributionBuilder builder(static_cast<int>(k));
    KeyId previous_key = 0;
    for (uint64_t key_index = 0; key_index < key_count; ++key_index) {
      uint32_t raw_key = 0;
      if (!reader.ReadU32(&raw_key)) {
        return Truncated(where + " keys");
      }
      const KeyId key = static_cast<KeyId>(raw_key);
      if (key_index > 0 && key <= previous_key) {
        return Status::ParseError(
            where + ": keys are not strictly ascending");
      }
      previous_key = key;
      builder.EnsureKey(key);
      for (uint32_t i = 1; i <= k; ++i) {
        double pr = 0.0;
        if (!reader.ReadDoubleBits(&pr)) {
          return Truncated(where + " probabilities");
        }
        if (!std::isfinite(pr) || pr < 0.0 || pr > 1.0) {
          return Status::ParseError(
              where + ": Pr(r = " + std::to_string(i) +
              ") is not a probability");
        }
        builder.Add(key, static_cast<int>(i), pr);
      }
    }
    // The distribution must cover exactly its tree's keys: a mismatched set
    // would serve zeros for keys the engine would rank. (Canonicalization
    // permutes children, never leaves, so the key set is orientation-
    // independent and this check is valid under both addressings.)
    RankDistribution dist = std::move(builder).Build();
    if (dist.keys() != tree.canonical_tree->Keys()) {
      return Status::ParseError(
          where + ": distribution keys do not match the keys of its tree ('" +
          tree.name + "')");
    }
    if (version < 3) {
      // Folded before v3, with AND children multiplied left to right (and
      // in v1 possibly over a non-canonical orientation): its bits can
      // differ in the last place from this build's balanced-product fold,
      // so seeding it would make an answer depend on which entries a warm
      // restart kept. Fully validated above, then dropped — the restarted
      // replica recomputes it on first use.
      continue;
    }
    SnapshotDistribution record;
    record.struct_key = tree.struct_key;
    record.k = static_cast<int>(k);
    record.dist = std::make_shared<const RankDistribution>(std::move(dist));
    snapshot.distributions.push_back(std::move(record));
  }

  // 6. The cursor must land exactly on the checksum: bytes between the last
  // record and the trailing u64 are garbage even when the file's author
  // re-stamped a checksum over them.
  if (reader.pos() != payload_end) {
    return Status::ParseError(
        "catalog snapshot has " + std::to_string(payload_end - reader.pos()) +
        " bytes of trailing garbage after the last record");
  }

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

Result<CatalogSnapshot> ReadCatalogSnapshotFile(const std::string& path) {
  CPDB_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  return DecodeCatalogSnapshot(bytes.data(), bytes.size());
}

Result<CatalogSnapshot> MmapCatalogSnapshotFile(const std::string& path) {
  CPDB_ASSIGN_OR_RETURN(MmapFile file, MmapFile::Open(path));
  return DecodeCatalogSnapshot(file.data(), file.size());
}

}  // namespace cpdb
