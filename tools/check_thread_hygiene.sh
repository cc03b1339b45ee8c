#!/bin/sh
# Thread-hygiene lint: a serve process starts its threads in one place.
#
# Every consensus answer is schedule-independent (each fan-out unit writes
# its own slot), so where threads come from is plumbing, and it is kept in
# one place: the ThreadPool (src/common/thread_pool.{h,cc}). In src/ and
# tools/, `std::thread` (and std::jthread, std::async, pthread_create) may
# appear only there; std::thread::hardware_concurrency, which starts
# nothing, is allowed anywhere. A ThreadPool may be constructed only by
# Engine's owning constructor (src/engine/engine.cc) and by the serving
# scheduler (src/service/query_scheduler.{h,cc}), whose one pool its shard
# engines borrow and its shard dispatch and snapshot decode run on. Tests,
# benches and perfbench are exempt.
#
# Usage: tools/check_thread_hygiene.sh [repo-root]

set -eu

root="${1:-$(dirname "$0")/..}"
cd "$root"

# Comment lines are prose, not code.
code_matches() {
  grep -RnE "$1" src tools --include='*.h' --include='*.cc' |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true
}

thread_violations=$(code_matches \
  'std::(j?thread|async)([^:_A-Za-z0-9]|::[^h]|$)|pthread_create' |
  grep -vE '^src/common/thread_pool\.(h|cc):' || true)

if [ -n "$thread_violations" ]; then
  echo "thread-hygiene lint FAILED: threads started outside ThreadPool." >&2
  echo "Run the work on a ThreadPool (src/common/thread_pool.h) instead:" >&2
  echo "$thread_violations" >&2
  exit 1
fi

pool_violations=$(code_matches \
  '(make_unique|make_shared)<ThreadPool>|new ThreadPool|ThreadPool[[:space:]]+[A-Za-z_][A-Za-z0-9_]*[[:space:]]*[({;]' |
  grep -vE '^src/(common/thread_pool\.(h|cc)|engine/engine\.cc|service/query_scheduler\.(h|cc)):' ||
  true)

if [ -n "$pool_violations" ]; then
  echo "thread-hygiene lint FAILED: a ThreadPool constructed outside Engine and QueryScheduler." >&2
  echo "Borrow the engine's or the scheduler's pool instead:" >&2
  echo "$pool_violations" >&2
  exit 1
fi

echo "thread hygiene OK: threads start only in ThreadPool, and pools are"
echo "  built only by Engine's owning constructor and QueryScheduler."
