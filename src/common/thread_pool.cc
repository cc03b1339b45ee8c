// Copyright 2026 The ConsensusDB Authors

#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

namespace cpdb {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads < 1) {
    num_threads = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  num_threads = std::min(num_threads, kMaxThreads);
  workers_.reserve(static_cast<size_t>(num_threads - 1));
  for (int i = 0; i < num_threads - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  if (workers_.empty()) {
    // No workers: run inline so submitted work cannot be stranded.
    task();
    return;
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(int64_t n,
                             const std::function<void(int64_t)>& body,
                             int width) {
  if (n <= 0) return;
  const int helpers = static_cast<int>(std::min<int64_t>(
      {static_cast<int64_t>(workers_.size()), n - 1,
       static_cast<int64_t>(width) - 1}));
  if (helpers <= 0) {
    for (int64_t i = 0; i < n; ++i) body(i);
    return;
  }

  // Shared loop state: helpers and the caller claim indices from `next`
  // until exhausted, and add the bodies they ran to `done`. A helper that
  // starts after the loop returned claims an index >= n and touches
  // neither `body` nor `done`; the shared_ptr keeps `next` alive for it.
  struct LoopState {
    std::atomic<int64_t> next{0};
    std::mutex mu;
    std::condition_variable done_cv;
    int64_t done = 0;
  };
  auto state = std::make_shared<LoopState>();
  auto run = [state, n, &body] {
    int64_t ran = 0;
    for (int64_t i = state->next.fetch_add(1); i < n;
         i = state->next.fetch_add(1)) {
      body(i);
      ++ran;
    }
    if (ran == 0) return;
    std::lock_guard<std::mutex> lock(state->mu);
    state->done += ran;
    if (state->done == n) state->done_cv.notify_one();
  };
  for (int h = 0; h < helpers; ++h) Submit(run);
  run();  // the calling thread participates
  // Every index is claimed; wait for the ones running on other threads.
  std::unique_lock<std::mutex> lock(state->mu);
  state->done_cv.wait(lock, [&] { return state->done == n; });
}

}  // namespace cpdb
