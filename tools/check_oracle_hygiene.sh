#!/bin/sh
# Oracle-hygiene lint: the library folds through FlatTree only.
#
# Every generating-function statistic in cpdb runs on the compiled FlatTree
# fold (src/model/flat_tree.h). The pointer-tree fold (EvalGeneratingFunction
# and its Poly1/Poly2 types) and the oracle-only statistics live in
# tests/oracle/, linked into the test and bench binaries alone, so the
# differential suites keep an independent reference. This script fails the build when production
# code (src/ and tools/) reaches back for them:
#   * an #include of an oracle/ header, generating_function.h, poly1.h or
#     poly2.h;
#   * an EvalGeneratingFunction< instantiation (the pointer-fold template;
#     FlatTree::EvalGeneratingFunction is not a template);
#   * a *Pointer( function — the naming convention of the pointer-fold
#     oracles — declared, defined or called;
#   * LeafRankContribution( — the one-full-fold-per-leaf rank contribution,
#     pointer or flat: production runs RankDistributionScan instead.
# Tests, benches and perfbench are exempt.
#
# Usage: tools/check_oracle_hygiene.sh [repo-root]

set -eu

root="${1:-$(dirname "$0")/..}"
cd "$root"

include_pattern='^[[:space:]]*#[[:space:]]*include[[:space:]]*[<"]([^">]*/)?(oracle/[^">]*|generating_function\.h|poly[12]\.h)[">]'
template_pattern='EvalGeneratingFunction[[:space:]]*<'
pointer_pattern='[A-Za-z0-9_]Pointer[[:space:]]*\('
per_leaf_pattern='LeafRankContribution[[:space:]]*\('

violations=$(grep -RnE -e "$include_pattern" -e "$template_pattern" \
  -e "$pointer_pattern" -e "$per_leaf_pattern" src tools \
  --include='*.h' --include='*.cc' || true)

if [ -n "$violations" ]; then
  echo "oracle-hygiene lint FAILED: production code reaches the test oracles." >&2
  echo "Fold with FlatTree (src/model/flat_tree.h); oracles stay in tests/oracle/:" >&2
  echo "$violations" >&2
  exit 1
fi

echo "oracle hygiene OK: src/ and tools/ fold through FlatTree only."
