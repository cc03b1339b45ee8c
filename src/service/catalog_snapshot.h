// Copyright 2026 The ConsensusDB Authors
//
// Versioned binary catalog snapshots — the persistence layer that lets a
// restarted serving process (or a newly spawned shard replica) come up warm
// instead of re-parsing and re-folding every tree. A snapshot file holds:
//
//   * a magic + format-version header (any version but this build's =>
//     refuse, never guess — the untangle basetree.h BASETREE_MAGIC
//     discipline);
//   * one record per catalog binding: (name, content fingerprint,
//     structural key, content serialization). The content text is the
//     format's source of truth: ContentFp is definitionally Fnv1a64 over
//     it, and StructKey is Fnv1a64 over the canonical re-orientation of
//     the tree it parses to. The decoder derives both with the catalog's
//     own TreeCatalog::ComputeIdentity, so a loaded catalog's identities
//     are byte-identical to a cold catalog's by construction, not by trust
//     in the file (the stored StructKey is verified against the recomputed
//     one — it exists in the file so operators and tools can read the
//     dedup identity without re-canonicalizing);
//   * optional precomputed (StructKey, k) rank-distribution sections —
//     the serving layer's most expensive derived state (the O(L^2 k) fold),
//     persisted so a restarted replica's first Top-k batch hits warm;
//   * a whole-file FNV-1a checksum.
//
// This is the first input surface the process cannot trust: the bytes come
// from disk, not from our own validated structures. DecodeCatalogSnapshot
// therefore treats the file as adversarial — every length is bounds-checked
// against the remaining payload before use, every embedded tree re-parses
// and re-validates through ParseTree, every fingerprint is recomputed and
// compared, and any failure returns a typed Status without touching any
// catalog (tests/catalog_snapshot_test.cc runs the corruption torture
// matrix under ASan/UBSan).
//
// Format v3 (the one version this build reads and writes), all integers
// little-endian:
//
//   offset 0   8 bytes   magic "CPDBSNAP"
//   offset 8   u32       format version (3)
//   offset 12  u32       reserved (must be 0)
//   offset 16  u64       tree record count
//   offset 24  u64       distribution record count
//   ...        tree records, then distribution records (layouts below)
//   size-8     u64       FNV-1a checksum over bytes [0, size-8)
//
//   tree record:  u32 name length, name bytes, u64 content fingerprint,
//                 u64 structural key, u64 content length, content bytes
//   dist record:  u64 structural key, u32 k, u64 key count, then per key:
//                 i32 key id, then k doubles (raw IEEE-754 bits, little-
//                 endian): Pr(r(key) = i) for i = 1..k
//
// Files of formats v1 and v2 (earlier builds) are refused like any other
// version. v2's distributions were folded with AND children multiplied left
// to right, where this build multiplies them as balanced products (see
// model/flat_tree.h), so seeding one could make an answer depend on what a
// warm restart kept. To carry such a file forward, load and save it with
// the last build that still read v1 and v2 (it writes v3 and seeds no v1 or
// v2 distribution): `cpdb_cli serve --catalog=old --save-catalog=new
// < /dev/null`.
//
// Records are written in sorted order (trees by name, distributions by
// (StructKey, k)), so encoding is a pure function of the logical content:
// save -> load -> save reproduces the file byte for byte, independent of
// catalog load order or cache LRU history.

#ifndef CPDB_SERVICE_CATALOG_SNAPSHOT_H_
#define CPDB_SERVICE_CATALOG_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/result.h"
#include "core/rank_distribution.h"
#include "service/tree_catalog.h"

namespace cpdb {

class QueryScheduler;
class ThreadPool;

/// \brief The 8 magic bytes opening every snapshot file.
inline constexpr char kCatalogSnapshotMagic[8] = {'C', 'P', 'D', 'B',
                                                  'S', 'N', 'A', 'P'};

/// \brief The one format version this build reads and writes. A file
/// stamped with any other version is refused outright — a newer format may
/// carry semantics this decoder would silently drop, and an older one
/// distributions folded differently; see the format notes above.
inline constexpr uint32_t kCatalogSnapshotVersion = 3;

/// \brief One persisted catalog binding: a named TreeIdentity. `content` is
/// the wire-visible serialization (what a kLoad of this binding carried)
/// and `content_fp` its Fnv1a64; `struct_key`, `canonical_bytes` and
/// `canonical_tree` are its shape. The decoder fills the identity from one
/// TreeCatalog::ComputeIdentity call over the parsed content and verifies
/// it against the stored fields; a built snapshot copies the catalog's
/// stored identity (TreeCatalog::IdentityOf). Either way install inserts
/// the record as is, without re-deriving anything.
struct SnapshotTree : TreeIdentity {
  std::string name;
};

/// \brief One persisted precomputed rank distribution, keyed exactly like
/// RankDistCache: (structural key, k).
struct SnapshotDistribution {
  StructKey struct_key;
  int k = 0;
  std::shared_ptr<const RankDistribution> dist;
};

/// \brief The decoded (or to-be-encoded) logical content of a snapshot.
struct CatalogSnapshot {
  std::vector<SnapshotTree> trees;
  std::vector<SnapshotDistribution> distributions;
};

/// \brief Serializes a snapshot to the v3 byte format. Deterministic:
/// records are emitted in sorted order (trees by name, distributions by
/// (StructKey, k)) whatever order the vectors hold, so the bytes are a
/// pure function of the logical content.
std::string EncodeCatalogSnapshot(const CatalogSnapshot& snapshot);

/// \brief Parses and fully validates `size` bytes of a v3 snapshot.
/// On any defect — truncation, bad magic, any other format version,
/// checksum mismatch, counts or lengths overflowing the payload, an
/// embedded tree that fails ParseTree or whose stored text is not the
/// round-trip serialization, a fingerprint that does not hash its bytes, a
/// structural key that does not hash the canonical re-orientation,
/// duplicate or dangling records, non-finite probabilities, trailing
/// garbage — returns a typed Status describing the first defect in record
/// order. Never aborts, never returns a partially valid snapshot.
///
/// The header, checksum and record framing are read on the calling
/// thread; each record's own work (its fingerprint check, parse, identity
/// and structural-key checks, or a distribution's key and probability
/// checks and build) then runs as one ParallelFor index on `pool`, or on
/// the calling thread when `pool` is null (serve passes its scheduler's
/// pool). The checks that depend on earlier records (names, dangling and
/// duplicate distributions) run in record order afterwards, so the
/// snapshot returned and every error message are the same on any pool.
Result<CatalogSnapshot> DecodeCatalogSnapshot(const void* data, size_t size,
                                              ThreadPool* pool = nullptr);

/// \brief Captures the live serving state: every catalog binding (with its
/// stored wire-visible content bytes), plus — when `scheduler` is non-null
/// — the retained entries of its rank-distribution cache (filtered to
/// structural keys the catalog holds) as the precomputed sections. Pass a
/// null scheduler for a trees-only snapshot.
CatalogSnapshot BuildCatalogSnapshot(const TreeCatalog& catalog,
                                     const QueryScheduler* scheduler);

/// \brief Installs a decoded snapshot into one catalog: inserts every
/// record through TreeCatalog::InsertWithIdentity — the seam line-by-line
/// loading ends in, so identities, dedup, and AlreadyExists/rebind
/// semantics are byte-identical to feeding the content texts as individual
/// loads, and the first record of each shape donates its canonical tree to
/// the catalog — and, when `scheduler` is non-null, seeds its
/// rank-distribution cache with the snapshot's precomputed sections.
/// (QueryScheduler::InstallSnapshot is the routed form.) Records are
/// trusted: the decoder verified every field, and a built snapshot copies a
/// live catalog's. Into a fresh catalog this cannot fail; into a
/// pre-populated catalog a name bound to different content fails with the
/// catalog's own AlreadyExists, leaving earlier entries installed — exactly
/// as the same sequence of loads would.
Status InstallCatalogSnapshot(const CatalogSnapshot& snapshot,
                              TreeCatalog* catalog, QueryScheduler* scheduler);

/// \brief Encodes and writes `snapshot` to `path` (truncating).
Status WriteCatalogSnapshotFile(const std::string& path,
                                const CatalogSnapshot& snapshot);

/// \brief The load path: reads the whole file into memory (a pipe or FIFO
/// reads like a file), then decodes on `pool` (as DecodeCatalogSnapshot).
/// A missing or unreadable path is an error (a warm restart must not
/// silently fall back to a cold start). A file rewritten while it is read
/// yields short or mixed bytes, which the decoder reports as a typed
/// truncation or checksum error.
Result<CatalogSnapshot> ReadCatalogSnapshotFile(const std::string& path,
                                                ThreadPool* pool = nullptr);

}  // namespace cpdb

#endif  // CPDB_SERVICE_CATALOG_SNAPSHOT_H_
