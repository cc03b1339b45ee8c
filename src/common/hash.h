// Copyright 2026 The ConsensusDB Authors
//
// A stable 64-bit content hash (FNV-1a). "Stable" means the value is a pure
// function of the input bytes — independent of platform, pointer layout,
// process, and library version — so it can serve as a persistent
// fingerprint: the service layer's TreeCatalog keys trees by
// Fnv1a64(canonical tree text), and two sessions (or two replicas) agree on
// every fingerprint. Not a cryptographic hash; collisions are astronomically
// unlikely for catalog-sized populations but an adversary could forge them.

#ifndef CPDB_COMMON_HASH_H_
#define CPDB_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

namespace cpdb {

/// \brief FNV-1a offset basis: the hash of the empty byte string.
inline constexpr uint64_t kFnv1a64OffsetBasis = 0xcbf29ce484222325ULL;

/// \brief The 64-bit FNV prime each byte step multiplies by.
inline constexpr uint64_t kFnv1a64Prime = 0x100000001b3ULL;

/// \brief 64-bit FNV-1a over a byte range, starting from `seed` (the offset
/// basis by default). Passing a previous hash as `seed` chains ranges:
/// Fnv1a64(b, Fnv1a64(a)) == Fnv1a64(a ++ b). Inline, because the
/// canonicalizer feeds it a few bytes at a time, several times per node.
inline uint64_t Fnv1a64(const void* data, size_t len,
                        uint64_t seed = kFnv1a64OffsetBasis) {
  // FNV-1a: xor the byte in, then multiply by the 64-bit FNV prime.
  uint64_t hash = seed;
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    hash ^= static_cast<uint64_t>(bytes[i]);
    hash *= kFnv1a64Prime;
  }
  return hash;
}

/// \brief {Fnv1a64(a, len), Fnv1a64(b, len)} in one loop over two
/// equal-length byte ranges. The two multiply chains are independent, so
/// they overlap in the pipeline instead of running back to back.
inline std::pair<uint64_t, uint64_t> Fnv1a64Pair(const void* a, const void* b,
                                                 size_t len) {
  uint64_t hash_a = kFnv1a64OffsetBasis;
  uint64_t hash_b = kFnv1a64OffsetBasis;
  const unsigned char* bytes_a = static_cast<const unsigned char*>(a);
  const unsigned char* bytes_b = static_cast<const unsigned char*>(b);
  for (size_t i = 0; i < len; ++i) {
    hash_a = (hash_a ^ static_cast<uint64_t>(bytes_a[i])) * kFnv1a64Prime;
    hash_b = (hash_b ^ static_cast<uint64_t>(bytes_b[i])) * kFnv1a64Prime;
  }
  return {hash_a, hash_b};
}

/// \brief 64-bit FNV-1a of a string's bytes.
uint64_t Fnv1a64(const std::string& text);

/// \brief Fixed-width lower-case hex rendering of a 64-bit hash, the form
/// fingerprints take in protocol lines and logs.
std::string HashToHex(uint64_t hash);

// ---------------------------------------------------------------------------
// Strong key types: the two identity spaces of the serving stack.
//
// ContentFp hashes a tree's exact canonical serialization — the wire-visible
// identity (protocol fingerprint= fields, name binding, snapshot records).
// StructKey hashes the serialization of the tree's canonical ORIENTATION
// (commutative and/xor children sorted; see model/canonical.h) — the dedup
// identity that caches, fold compiles, and shard routing key on.
//
// Both wrap a uint64_t but deliberately do not convert to or from it (or each
// other) implicitly: a ContentFp handed to a StructKey consumer is a silent
// cache-poisoning bug, so mixing the spaces must not compile. Construction
// from a raw hash is explicit; `value()` is the escape hatch for encoding.
// For a tree already in canonical orientation the two VALUES coincide
// (same bytes hashed), which is what keeps shard routing and cache keys —
// and therefore wire transcripts — unchanged for canonical inputs.
// ---------------------------------------------------------------------------

/// \brief Wire-visible identity: FNV-1a of the exact canonical serialization.
class ContentFp {
 public:
  ContentFp() = default;
  explicit ContentFp(uint64_t value) : value_(value) {}

  uint64_t value() const { return value_; }

  friend bool operator==(ContentFp a, ContentFp b) {
    return a.value_ == b.value_;
  }
  friend bool operator!=(ContentFp a, ContentFp b) {
    return a.value_ != b.value_;
  }
  friend bool operator<(ContentFp a, ContentFp b) {
    return a.value_ < b.value_;
  }

 private:
  uint64_t value_ = 0;
};

/// \brief Structural identity: FNV-1a of the canonical ORIENTATION's
/// serialization. Two trees equal modulo commutative child order share one
/// StructKey.
class StructKey {
 public:
  StructKey() = default;
  explicit StructKey(uint64_t value) : value_(value) {}

  uint64_t value() const { return value_; }

  friend bool operator==(StructKey a, StructKey b) {
    return a.value_ == b.value_;
  }
  friend bool operator!=(StructKey a, StructKey b) {
    return a.value_ != b.value_;
  }
  friend bool operator<(StructKey a, StructKey b) {
    return a.value_ < b.value_;
  }

 private:
  uint64_t value_ = 0;
};

inline std::string HashToHex(ContentFp fp) { return HashToHex(fp.value()); }
inline std::string HashToHex(StructKey key) { return HashToHex(key.value()); }

}  // namespace cpdb

#endif  // CPDB_COMMON_HASH_H_
