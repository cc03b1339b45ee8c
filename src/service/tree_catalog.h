// Copyright 2026 The ConsensusDB Authors
//
// TreeCatalog — the serving layer's store of loaded trees, and the owner of
// the stack's TWO-LEVEL IDENTITY model:
//
//   name  ──►  ContentFp  ──►  StructKey  ──►  one shared canonical tree
//                                              + one shared FlatTree program
//
// ContentFp (common/hash.h) hashes the exact canonical serialization of the
// loaded tree — the wire-visible identity (protocol fingerprint= fields,
// name binding, AlreadyExists semantics, snapshot records). StructKey hashes
// the serialization of the tree's canonical ORIENTATION (model/canonical.h:
// commutative and/xor children sorted) — the dedup identity. Two loads that
// differ only in commutative child order get distinct ContentFps but one
// StructKey, and therefore share one tree handle, one compiled fold program,
// and (because caches key on StructKey) one set of cache lines.
//
// The catalog compiles the FlatTree program for each NEW shape exactly once
// at insert time; query paths reuse it via CatalogEntry::program, so the
// steady-state serve path never compiles. For a tree already in canonical
// orientation ContentFp and StructKey hash the same bytes and are therefore
// numerically equal — which is what keeps cache keys, shard routing, and
// hence wire transcripts unchanged for canonical inputs.

#ifndef CPDB_SERVICE_TREE_CATALOG_H_
#define CPDB_SERVICE_TREE_CATALOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/result.h"
#include "model/and_xor_tree.h"
#include "model/flat_tree.h"

namespace cpdb {

/// \brief An immutable catalog entry: the shared tree plus both identities.
/// Handles remain valid after the catalog drops or replaces the name —
/// in-flight queries keep the tree and program alive through shared_ptrs.
///
/// `tree` is the CANONICAL ORIENTATION of the loaded content (not the
/// as-loaded child order): every query for any member of a commutative
/// permutation orbit runs over the same tree object, so duplicates return
/// byte-identical answers by construction.
struct CatalogEntry {
  std::string name;
  /// Wire-visible identity: Fnv1a64 over FormatTree of the loaded tree.
  ContentFp content_fp;
  /// Structural identity: Fnv1a64 over FormatTree of the canonical
  /// orientation. Shared by all commutative permutations of one shape.
  StructKey struct_key;
  /// The canonical orientation, shared per StructKey.
  std::shared_ptr<const AndXorTree> tree;
  /// The compiled fold program for `tree`, shared per StructKey; compiled
  /// once when the shape first enters the catalog.
  std::shared_ptr<const FlatTree> program;
};

/// \brief The full identity of one tree. ComputeIdentity is the only place
/// it is derived; everything else carries it: QueryScheduler computes it on
/// the front end, routes by struct_key, then inserts into the target shard
/// without re-serializing, and a decoded snapshot record is one
/// (service/catalog_snapshot.h), inserted as is.
struct TreeIdentity {
  ContentFp content_fp;
  StructKey struct_key;
  /// FormatTree(loaded tree, indent=false) — the bytes ContentFp hashes.
  std::string content;
  /// FormatTree(canonical orientation, indent=false) — the bytes StructKey
  /// hashes. Equal to content iff the input was already canonical.
  std::string canonical_bytes;
  std::shared_ptr<const AndXorTree> canonical_tree;
};

/// \brief Sizes of the three identity levels; names >= contents >= shapes.
/// contents / shapes is the catalog's duplication factor (the `dedup_ratio`
/// stats field).
struct CatalogCounts {
  int64_t names = 0;
  int64_t contents = 0;
  int64_t shapes = 0;
};

/// \brief Thread-safe name -> tree store with two-level content/structure
/// deduplication.
///
/// Concurrency: all members may be called from any thread. Lookups return
/// shared immutable state. The internal mutex guards the maps; the only
/// non-trivial work under it is the one-time FlatTree compile when a NEW
/// shape arrives (bounded by tree size, and exactly once per shape).
class TreeCatalog {
 public:
  /// \brief Computes the full two-level identity of `tree`: content bytes
  /// and ContentFp of the given orientation, plus the canonical orientation
  /// (model/canonical.h) with its bytes and StructKey. Validates the tree
  /// unless its `validated()` flag is already set (ParseTree's output is),
  /// so a load runs the Definition 1 checks once; the returned
  /// canonical_tree is validated and ready to compile.
  static Result<TreeIdentity> ComputeIdentity(AndXorTree tree);

  /// \brief Registers `tree` under `name` and returns its entry.
  /// Idempotent for identical content: inserting the same name again
  /// succeeds iff the content matches (returning the existing entry); a
  /// different tree under an existing name is AlreadyExists — replacing a
  /// served tree in place would silently change answers mid-stream.
  /// Content already present under another name shares its ContentFp
  /// record; any member of an already-present commutative orbit shares the
  /// existing shape's tree handle and fold program. Equal hashes at either
  /// level are confirmed by byte comparison, so a 64-bit collision surfaces
  /// as an Internal error instead of silently serving another tree's
  /// answers.
  Result<CatalogEntry> Insert(const std::string& name, AndXorTree tree);

  /// \brief Insert with the identity precomputed by ComputeIdentity. Exists
  /// so a routing layer that already computed the identity to pick a shard
  /// (QueryScheduler) does not pay the serialization + canonicalization
  /// twice per load, and so a snapshot record (an identity the decoder
  /// computed and verified, or one IdentityOf returned) installs without
  /// re-deriving it; Insert is ComputeIdentity + this. The identity is
  /// trusted: every field must be what ComputeIdentity would return. A new
  /// content or shape record takes the identity's bytes and tree over, so
  /// callers done with the identity move it in.
  Result<CatalogEntry> InsertWithIdentity(const std::string& name,
                                          TreeIdentity identity);

  /// \brief Parses `text` (the s-expression tree format) and inserts it.
  Result<CatalogEntry> InsertFromText(const std::string& name,
                                      const std::string& text);

  /// \brief The NotFound status Lookup reports for an unknown `name`.
  /// Exposed so routing layers that resolve names before reaching any
  /// catalog (QueryScheduler's name directory) emit the byte-identical error
  /// line by construction, not by keeping a copied string in sync.
  static Status UnknownTreeError(const std::string& name);

  /// \brief The entry registered under `name`, or NotFound
  /// (UnknownTreeError).
  Result<CatalogEntry> Lookup(const std::string& name) const;

  /// \brief Number of registered names.
  size_t size() const;

  /// \brief Sizes of all three identity levels, read atomically.
  CatalogCounts Counts() const;

  /// \brief Number of FlatTree programs compiled by this catalog — exactly
  /// the number of distinct shapes ever inserted. Feeds the
  /// cpdb_fold_compiles_total metric alongside the engine's own counter.
  int64_t fold_compiles() const;

  /// \brief The stored identity of a ContentFp, or NotFound: the content
  /// bytes its wire identity hashes, plus its shape's key, canonical bytes
  /// and shared canonical tree. Snapshot building reads this so records
  /// persist the content orientation, not the canonical one, and carry the
  /// tree the catalog already holds.
  Result<TreeIdentity> IdentityOf(ContentFp content_fp) const;

  /// \brief Every entry, in name order — deterministic regardless of load
  /// order, which is what makes a catalog snapshot saved from live state
  /// byte-stable (service/catalog_snapshot.h walks this). Entries share
  /// tree ownership, so the returned view stays valid however the catalog
  /// changes afterwards.
  std::vector<CatalogEntry> SnapshotEntries() const;

 private:
  /// Second identity level: one per distinct content serialization.
  struct ContentRecord {
    StructKey struct_key;
    std::string bytes;  // the serialization content_fp hashes
  };
  /// Third identity level: one per distinct shape; owns the shared state.
  struct ShapeRecord {
    std::shared_ptr<const AndXorTree> tree;      // canonical orientation
    std::shared_ptr<const FlatTree> program;     // compiled once
    std::string canonical_bytes;                 // collision defense
  };

  mutable std::mutex mu_;
  std::map<std::string, CatalogEntry> by_name_;
  // Entries at both levels are currently immortal, matching a serving
  // process's lifetime (weak_ptr would allow eviction).
  std::map<ContentFp, ContentRecord> by_content_;
  std::map<StructKey, ShapeRecord> by_shape_;
  int64_t fold_compiles_ = 0;
};

}  // namespace cpdb

#endif  // CPDB_SERVICE_TREE_CATALOG_H_
