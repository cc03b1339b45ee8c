// Copyright 2026 The ConsensusDB Authors
//
// A fixed-size worker pool, owned by an Engine or, in serve, by the
// scheduler whose shard engines, shard dispatch and snapshot decode share
// it. Work is submitted either as fire-and-forget closures or through
// ParallelFor, a blocking index-space loop in which the calling thread
// participates — so a 1-thread pool, or a loop at width 1, degrades to
// plain sequential execution with no cross-thread handoff.

#ifndef CPDB_COMMON_THREAD_POOL_H_
#define CPDB_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cpdb {

/// \brief A fixed pool of worker threads with a shared FIFO task queue.
///
/// Thread-safe: Submit and ParallelFor may be called from any thread,
/// including concurrently. Tasks must not throw — the pool does not
/// propagate exceptions (the library reports errors via Status, not
/// exceptions). Destruction drains the queue before joining the workers.
class ThreadPool {
 public:
  /// \brief Hard ceiling on pool size: requests beyond it are clamped, so
  /// an absurd configuration value degrades to an oversubscribed-but-alive
  /// pool instead of exhausting OS thread resources and terminating.
  static constexpr int kMaxThreads = 256;

  /// \brief Spawns `num_threads` workers; values < 1 use the hardware
  /// concurrency (at least 1), values above kMaxThreads are clamped. A
  /// 1-thread pool spawns no workers at all: ParallelFor then runs
  /// entirely on the calling thread.
  explicit ThreadPool(int num_threads = 0);

  /// Drains outstanding tasks, then joins.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// \brief Number of threads that execute work, counting the caller of
  /// ParallelFor (so this is `workers + 1` and never less than 1).
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// \brief Enqueues a fire-and-forget task. On a pool with no workers
  /// (num_threads() == 1), the task runs synchronously on the calling
  /// thread before Submit returns — tasks must not assume they execute
  /// asynchronously (e.g. must not wait on the submitting thread or
  /// acquire locks it holds).
  void Submit(std::function<void()> task);

  /// \brief Runs `body(i)` for every i in [0, n) on at most `width`
  /// threads, the calling thread among them, and returns when all n calls
  /// finished; at width 1 every call runs on the calling thread. Indices
  /// are claimed dynamically, so per-index work may be uneven; any state
  /// shared across indices must be independent per index (the engine
  /// writes results into per-index slots and merges in index order, which
  /// keeps results deterministic regardless of the schedule).
  ///
  /// The caller claims indices until none is left, then waits only for the
  /// indices other threads claimed: it never runs another loop's work, so
  /// a body may block on a compute in flight on another thread. Loops nest
  /// freely; a helper that starts after every index is claimed returns
  /// without calling `body`.
  void ParallelFor(int64_t n, const std::function<void(int64_t)>& body,
                   int width = kMaxThreads);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace cpdb

#endif  // CPDB_COMMON_THREAD_POOL_H_
