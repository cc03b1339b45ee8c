#!/bin/sh
# Oracle-hygiene lint: the library folds through FlatTree only.
#
# Every generating-function statistic in cpdb runs on the compiled FlatTree
# fold (src/model/flat_tree.h). The pointer-tree fold (the template of
# generating_function.h and its Poly1/Poly2 types), the oracle-only
# statistics and the
# possible-worlds estimators (enumerated and sampled expectations) live in
# tests/oracle/, linked into the test and bench binaries alone, so the
# differential suites keep an independent reference. This script fails the
# build when production code (src/ and tools/) reaches back for them:
#   * an #include of an oracle/ header, generating_function.h, poly1.h,
#     poly2.h, or the Monte-Carlo and evaluation headers that used to hold
#     the possible-worlds estimators;
#   * a second fold executor (executor_pattern), anywhere, comments
#     included: the pointer-fold template's name, or the names of the
#     slot-recycled FlatTree executor and its thread-local arena that
#     FlatRefold::FoldOnce and FlatRefoldScratch() replaced — FlatRefold
#     is the op stream's one executor;
#   * a *Pointer( function — the naming convention of the pointer-fold
#     oracles — declared, defined or called;
#   * LeafRankContribution( — the one-full-fold-per-leaf rank contribution,
#     pointer or flat: production runs RankDistributionScan instead;
#   * an estimator name (estimator_pattern): the estimate struct, the world
#     sampler, or an enumerated or sampled expected distance;
#   * a per-world distance (distance_pattern) declared, defined or called:
#     TopKListDistance( and the four Top-k list distances it dispatches to,
#     or JaccardDistance( — production computes expected distances only;
#   * a replaced solve tail (tail_pattern): ExpectedRankOfKey( and
#     PairPresenceProbability( (the O(L^2) expected-rank pair loop) or
#     EvalMedianSymDiffStratum( (one full median DP per score threshold) —
#     production runs the score-ordered scans of core/ranking_baselines.h
#     and core/topk_symdiff.h instead;
#   * a reference no production binary reaches (reference_pattern),
#     anywhere, comments included: the Kendall evaluator over the full q
#     matrix and its mean answers (tests/oracle/kendall_oracles.h), the
#     exact optima, H_k and the BID formatter (tests/oracle/references.h),
#     the MAX-2-SAT reduction (tests/hardness_test.cc), the exact U-Top-k
#     (tests/ranking_baselines_test.cc), the paper's third footrule
#     statistic as printed (tests/topk_footrule_test.cc), the single-leaf
#     marginal walk (tests/oracle/tail_oracles.h), and the deleted pivot and
#     brute-force Kendall answers, per-node structural hash and Gaussian and
#     categorical draws.
# Tests, benches and perfbench are exempt.
#
# Usage: tools/check_oracle_hygiene.sh [repo-root]

set -eu

root="${1:-$(dirname "$0")/..}"
cd "$root"

# One letter of each estimator name sits in a bracket class, so a plain grep
# for the names finds no use in src/ or tools/, this file included.
include_pattern='^[[:space:]]*#[[:space:]]*include[[:space:]]*[<"]([^">]*/)?(oracle/[^">]*|generating_function\.h|poly[12]\.h|[m]onte_carlo\.h|[e]valuation\.h)[">]'
executor_pattern='[E]valGeneratingFunction|[F]latFoldScratch'
pointer_pattern='[A-Za-z0-9_]Pointer[[:space:]]*\('
per_leaf_pattern='LeafRankContribution[[:space:]]*\('
estimator_pattern='[M]cEstimate|[E]stimateOverWorlds|([E]numExpected|[M]cExpected)[A-Za-z0-9_]*[[:space:]]*\('
distance_pattern='(^|[^A-Za-z0-9_])([T]opKListDistance|[T]opKSymmetricDifference|[T]opKIntersectionDistance|[T]opKFootrule|[T]opKKendall|[J]accardDistance)[[:space:]]*\('
tail_pattern='(^|[^A-Za-z0-9_])([E]xpectedRankOfKey|[P]airPresenceProbability|[E]valMedianSymDiffStratum)[[:space:]]*\('
reference_pattern='(^|[^A-Za-z0-9_])([K]endallEvaluator|[M]eanTopKKendall[A-Za-z]*|[E]xactClustering|[E]xactMedianAggregate|[E]numerateAssignments|[H]armonicNumber|[F]ormatBidTable|[T]woSatClause|[M]ax2SatInstance|[C]lauseSatisfied|[B]ruteForceMax2Sat|[R]esultWorld|[E]numerateQueryResultWorlds|[M]edianQueryResult|[B]uildQueryResultTree|[U]TopKExact|[S]tructuralHash|[G]aussian|[C]ategorical|[U]psilon3|[L]eafMarginal)([^A-Za-z0-9_]|$)'

violations=$(grep -RnE -e "$include_pattern" -e "$executor_pattern" \
  -e "$pointer_pattern" -e "$per_leaf_pattern" -e "$estimator_pattern" \
  -e "$distance_pattern" -e "$tail_pattern" -e "$reference_pattern" src \
  tools --include='*.h' \
  --include='*.cc' || true)

if [ -n "$violations" ]; then
  echo "oracle-hygiene lint FAILED: production code reaches the test oracles." >&2
  echo "Fold with FlatTree (src/model/flat_tree.h); oracles stay in tests/oracle/:" >&2
  echo "$violations" >&2
  exit 1
fi

echo "oracle hygiene OK: src/ and tools/ fold through FlatTree only."
