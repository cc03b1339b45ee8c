#!/bin/sh
# Key-hygiene lint: no raw uint64_t identity values in serving-layer headers.
#
# The serving layer carries two distinct identities — ContentFp (the
# wire-visible hash of the input orientation) and StructKey (the canonical-
# orientation hash the caches, fold compiler, and shard router key on). Both
# are strong types (src/common/hash.h) precisely so the compiler rejects
# passing one where the other is expected. A raw `uint64_t fingerprint`
# (or struct_key / content_fp) parameter or member in a src/service/ header
# reopens that hole — this script fails the build when one appears.
# Implementation files and tests may hash to uint64_t freely; the lint
# guards the layer's public seams.
#
# It also keeps the identity RULE in one place: a tree's (ContentFp,
# StructKey) is derived only by TreeCatalog::ComputeIdentity
# (src/service/tree_catalog.cc), so in src/ and tools/ CanonicalizeTree( and
# CanonicalizeValidated( may appear only there and in their own definitions
# (src/model/canonical.{h,cc}). A second caller would be a second copy of
# the rule that can drift from the first. Tests, benches and perfbench are
# exempt.
#
# Usage: tools/check_key_hygiene.sh [repo-root]

set -eu

root="${1:-$(dirname "$0")/..}"
cd "$root"

pattern='uint64_t[[:space:]]+[A-Za-z_]*(fingerprint|finger_print|struct_key|content_fp)'

violations=$(grep -RnE "$pattern" src/service \
  --include='*.h' || true)

if [ -n "$violations" ]; then
  echo "key-hygiene lint FAILED: raw uint64_t identity values in src/service/ headers." >&2
  echo "Use the strong key types ContentFp / StructKey (src/common/hash.h) instead:" >&2
  echo "$violations" >&2
  exit 1
fi

canon_violations=$(grep -RnE 'Canonicalize(Tree|Validated)\(' src tools \
  --include='*.h' --include='*.cc' |
  grep -vE '^(src/model/canonical\.(h|cc)|src/service/tree_catalog\.cc):' ||
  true)

if [ -n "$canon_violations" ]; then
  echo "key-hygiene lint FAILED: canonicalization outside TreeCatalog::ComputeIdentity." >&2
  echo "Derive identities with TreeCatalog::ComputeIdentity (src/service/tree_catalog.h):" >&2
  echo "$canon_violations" >&2
  exit 1
fi

echo "key hygiene OK: service headers carry identities as ContentFp/StructKey;"
echo "  trees are canonicalized only by TreeCatalog::ComputeIdentity."
