// Copyright 2026 The ConsensusDB Authors

#include "service/tree_catalog.h"

#include <cassert>
#include <utility>

#include "io/tree_text.h"
#include "model/canonical.h"

namespace cpdb {

Result<TreeIdentity> TreeCatalog::ComputeIdentity(AndXorTree tree) {
  // ParseTree hands over a validated tree; only a hand-built one pays here.
  if (!tree.validated()) CPDB_RETURN_NOT_OK(tree.Validate());
  TreeIdentity identity;
  // The single-line serialization, not the user's input text: formatting
  // differences must not split identical trees into distinct fingerprints.
  identity.content = FormatTree(tree, /*indent=*/false);
  CPDB_ASSIGN_OR_RETURN(CanonicalForm canonical,
                        CanonicalizeValidated(std::move(tree),
                                              identity.content));
  identity.canonical_bytes = std::move(canonical.bytes);
  // An input already in canonical orientation hashes the same bytes twice;
  // the compare is far cheaper than the byte-serial hash. Otherwise the
  // canonical bytes are the content's tokens in another order, so the two
  // strings have equal length and one interleaved pass hashes both.
  if (identity.canonical_bytes == identity.content) {
    identity.content_fp = ContentFp(Fnv1a64(identity.content));
    identity.struct_key = StructKey(identity.content_fp.value());
  } else {
    assert(identity.canonical_bytes.size() == identity.content.size());
    const auto [content_fp, struct_key] =
        Fnv1a64Pair(identity.content.data(), identity.canonical_bytes.data(),
                    identity.content.size());
    identity.content_fp = ContentFp(content_fp);
    identity.struct_key = StructKey(struct_key);
  }
  identity.canonical_tree =
      std::make_shared<const AndXorTree>(std::move(canonical.tree));
  return identity;
}

Result<CatalogEntry> TreeCatalog::Insert(const std::string& name,
                                         AndXorTree tree) {
  // Check the name before paying the O(tree) identity computation below
  // (InsertWithIdentity re-checks for its direct callers).
  if (name.empty()) {
    return Status::InvalidArgument("catalog name must not be empty");
  }
  CPDB_ASSIGN_OR_RETURN(TreeIdentity identity,
                        ComputeIdentity(std::move(tree)));
  return InsertWithIdentity(name, std::move(identity));
}

Result<CatalogEntry> TreeCatalog::InsertWithIdentity(const std::string& name,
                                                     TreeIdentity identity) {
  if (name.empty()) {
    return Status::InvalidArgument("catalog name must not be empty");
  }
  std::lock_guard<std::mutex> lock(mu_);
  // Whenever a hash matches existing state — at the name, content, or shape
  // level — confirm the bytes match too: the hashes are 64-bit and
  // non-cryptographic, and the dedup below plus the (StructKey, k) caches
  // keyed on it would silently serve the wrong tree's answers on a
  // collision. The compares run only on the hash-equal paths, so honest
  // traffic pays one serialization + canonicalization per load.
  auto named = by_name_.find(name);
  if (named != by_name_.end()) {
    auto content = by_content_.find(named->second.content_fp);
    if (named->second.content_fp == identity.content_fp &&
        content != by_content_.end() &&
        content->second.bytes == identity.content) {
      return named->second;  // idempotent re-load of identical content
    }
    return Status::AlreadyExists("catalog name '" + name +
                                 "' is bound to different content");
  }
  auto content = by_content_.find(identity.content_fp);
  if (content != by_content_.end() &&
      content->second.bytes != identity.content) {
    return Status::Internal("fingerprint collision: '" + name +
                            "' hashes like existing content it does not "
                            "equal; rename is no workaround — the content "
                            "cannot be cached safely");
  }
  auto shape = by_shape_.find(identity.struct_key);
  if (shape != by_shape_.end() &&
      shape->second.canonical_bytes != identity.canonical_bytes) {
    return Status::Internal("structural key collision: '" + name +
                            "' canonicalizes like an existing shape it does "
                            "not equal; the two cannot share a fold program "
                            "or cache lines safely");
  }
  if (shape == by_shape_.end()) {
    // First time this shape enters the catalog: compile its fold program
    // once. Every future load of any orientation of this shape — and every
    // query against it — reuses the program through the shared_ptr. The
    // byte compares are done, so new records take the identity's strings
    // and tree over instead of copying them.
    ShapeRecord record;
    record.tree = std::move(identity.canonical_tree);
    record.program =
        std::make_shared<const FlatTree>(FlatTree::Compile(*record.tree));
    record.canonical_bytes = std::move(identity.canonical_bytes);
    ++fold_compiles_;
    shape = by_shape_.emplace(identity.struct_key, std::move(record)).first;
  }
  if (content == by_content_.end()) {
    by_content_.emplace(identity.content_fp,
                        ContentRecord{identity.struct_key,
                                      std::move(identity.content)});
  }
  CatalogEntry entry{name, identity.content_fp, identity.struct_key,
                     shape->second.tree, shape->second.program};
  by_name_.emplace(name, entry);
  return entry;
}

Result<CatalogEntry> TreeCatalog::InsertFromText(const std::string& name,
                                                 const std::string& text) {
  CPDB_ASSIGN_OR_RETURN(AndXorTree tree, ParseTree(text));
  return Insert(name, std::move(tree));
}

Status TreeCatalog::UnknownTreeError(const std::string& name) {
  return Status::NotFound("no catalog tree named '" + name + "'");
}

Result<CatalogEntry> TreeCatalog::Lookup(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return UnknownTreeError(name);
  }
  return it->second;
}

size_t TreeCatalog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return by_name_.size();
}

CatalogCounts TreeCatalog::Counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  CatalogCounts counts;
  counts.names = static_cast<int64_t>(by_name_.size());
  counts.contents = static_cast<int64_t>(by_content_.size());
  counts.shapes = static_cast<int64_t>(by_shape_.size());
  return counts;
}

int64_t TreeCatalog::fold_compiles() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fold_compiles_;
}

Result<TreeIdentity> TreeCatalog::IdentityOf(ContentFp content_fp) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto content = by_content_.find(content_fp);
  if (content == by_content_.end()) {
    return Status::NotFound("no catalog content with fingerprint " +
                            HashToHex(content_fp));
  }
  // Every content record's shape is present: both levels are immortal.
  const ShapeRecord& shape = by_shape_.at(content->second.struct_key);
  return TreeIdentity{content_fp, content->second.struct_key,
                      content->second.bytes, shape.canonical_bytes,
                      shape.tree};
}

std::vector<CatalogEntry> TreeCatalog::SnapshotEntries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<CatalogEntry> entries;
  entries.reserve(by_name_.size());
  for (const auto& [name, entry] : by_name_) {
    entries.push_back(entry);  // by_name_ is ordered: name order for free
  }
  return entries;
}

}  // namespace cpdb
