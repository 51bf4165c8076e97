// Minimal host-parallelism helpers.
//
// The reorder preprocessing and the block-level loops of the GPU execution
// model are embarrassingly parallel over independent tiles; parallel_for
// maps them onto OpenMP when available and falls back to a serial loop
// otherwise, so the library builds on any toolchain. ThreadPool is the
// complementary long-lived primitive: a fixed set of std::thread workers
// draining a task queue, used by the serving engine to run independent
// SpMM submissions concurrently against shared read-only artifacts.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/thread_annotations.hpp"

namespace jigsaw {

/// Invokes fn(i) for i in [0, n), possibly in parallel. fn must be safe to
/// run concurrently for distinct i (no shared mutable state without
/// synchronization). Exceptions thrown by fn in parallel regions terminate;
/// callers validate inputs before entering the loop. max_threads > 0 caps
/// the worker count (0 keeps the OpenMP default).
template <typename Fn>
void parallel_for(std::int64_t n, Fn&& fn, int max_threads = 0) {
#if defined(JIGSAW_HAVE_OPENMP)
  if (max_threads > 0) {
#pragma omp parallel for schedule(dynamic, 1) num_threads(max_threads)
    for (std::int64_t i = 0; i < n; ++i) fn(i);
  } else {
#pragma omp parallel for schedule(dynamic, 1)
    for (std::int64_t i = 0; i < n; ++i) fn(i);
  }
#else
  (void)max_threads;
  for (std::int64_t i = 0; i < n; ++i) fn(i);
#endif
}

/// Fixed-size worker pool with a FIFO task queue. submit() returns a
/// std::future for the task's result; tasks must not throw past their own
/// frame (wrap fallible work in Status/Result — a packaged_task does
/// capture exceptions into the future, but the engine convention is typed
/// errors). The destructor drains the queue: every task submitted before
/// destruction runs to completion, then the workers join, so futures
/// handed out are always eventually satisfied.
class ThreadPool {
 public:
  /// threads <= 0 uses the hardware concurrency (at least 1).
  explicit ThreadPool(int threads = 0) {
    if (threads <= 0) {
      threads = static_cast<int>(std::thread::hardware_concurrency());
      if (threads <= 0) threads = 1;
    }
    workers_.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ~ThreadPool() {
    {
      MutexLock lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues fn() and returns the future of its result.
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<std::decay_t<Fn>>> {
    using R = std::invoke_result_t<std::decay_t<Fn>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> future = task->get_future();
    {
      MutexLock lock(mu_);
      JIGSAW_CHECK_MSG(!stopping_, "ThreadPool::submit after shutdown began");
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

 private:
  void worker_loop() EXCLUDES(mu_) {
    for (;;) {
      std::function<void()> task;
      {
        MutexLock lock(mu_);
        // Explicit wait loop: condition_variable_any unlocks/relocks the
        // annotated Mutex inside wait(), which the analysis treats as
        // opaque — the net lock state is unchanged, so the predicate
        // accesses below are correctly seen as guarded.
        while (!stopping_ && queue_.empty()) cv_.wait(mu_);
        if (queue_.empty()) return;  // stopping_ and drained
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
    }
  }

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  Mutex mu_;
  std::condition_variable_any cv_;
  bool stopping_ GUARDED_BY(mu_) = false;
};

}  // namespace jigsaw
