// Fixed-size worker pool used by the batch explorer and available to any
// future parallel subsystem.
//
// Semantics:
//  * submit() enqueues a task; workers drain the queue FIFO.
//  * wait_idle() blocks until the queue is empty and no task is running,
//    then rethrows the first task exception (if any) and clears it.
//  * parallel_for(n, fn) runs fn(0..n-1) across the pool and waits; with a
//    pool of size 1 (or n <= 1) it degenerates to a sequential loop, which
//    makes thread-count-independence tests trivial to anchor.
//  * The free parallel_for(threads, n, fn) is the one-shot form: it builds a
//    pool only when min(threads, n) > 1 and otherwise loops on the calling
//    thread, starting no threads at all.
//
// Tasks must not call submit()/wait_idle() on their own pool (no nested
// scheduling).  Nested parallelism uses two *distinct* pools instead: an
// outer pool's task may construct its own inner pool (the explorer's
// per-trace candidate fan-out does exactly that), and split_threads()
// divides one thread budget between the two levels so the product of pool
// sizes never oversubscribes it.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace addm::core {

/// std::thread::hardware_concurrency(), or 1 where it is unknown: what a
/// thread count of 0 means throughout.
inline std::size_t hardware_threads() {
  const std::size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// A two-level division of one thread budget: `outer` concurrent tasks,
/// each allowed `inner` threads of its own.
struct ThreadSplit {
  std::size_t outer = 1;
  std::size_t inner = 1;
};

/// Splits a total thread budget between an outer task level and an inner
/// per-task level (the batch explorer's traces × architectures nesting).
/// `total` and `inner_request` of 0 mean hardware concurrency.  The inner
/// level gets min(inner_request, total); the outer level gets the largest
/// count with outer × inner <= total (at least 1).  Pure scheduling
/// arithmetic: callers rely on it only for capacity, never for results.
inline ThreadSplit split_threads(std::size_t total, std::size_t inner_request) {
  if (total == 0) total = hardware_threads();
  if (inner_request == 0) inner_request = hardware_threads();
  ThreadSplit s;
  s.inner = inner_request < total ? inner_request : total;
  s.outer = total / s.inner;
  return s;
}

class ThreadPool {
 public:
  /// `threads == 0` means std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t threads = 0) {
    if (threads == 0) threads = hardware_threads();
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  std::size_t size() const { return workers_.size(); }

  /// Tasks queued plus tasks currently executing.  A momentary snapshot —
  /// by the time the caller acts it may be stale — so it is only suitable
  /// for liveness probes (the serve daemon's idle-timeout check), never for
  /// synchronization; use wait_idle() for that.
  std::size_t busy() const {
    std::lock_guard<std::mutex> lk(mu_);
    return queue_.size() + running_;
  }

  void submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      queue_.push_back(std::move(task));
    }
    cv_.notify_one();
  }

  /// Blocks until all submitted work has finished. Rethrows the first
  /// exception raised by any task since the previous wait_idle().
  void wait_idle() {
    std::unique_lock<std::mutex> lk(mu_);
    idle_cv_.wait(lk, [this] { return queue_.empty() && running_ == 0; });
    if (first_error_) {
      std::exception_ptr e = first_error_;
      first_error_ = nullptr;
      std::rethrow_exception(e);
    }
  }

  /// Runs fn(i) for i in [0, n) across the pool, then waits.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
    if (n == 0) return;
    if (size() == 1 || n == 1) {
      for (std::size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    for (std::size_t i = 0; i < n; ++i)
      submit([&fn, i] { fn(i); });
    wait_idle();
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
        if (stopping_ && queue_.empty()) return;
        task = std::move(queue_.front());
        queue_.pop_front();
        ++running_;
      }
      try {
        task();
      } catch (...) {
        std::lock_guard<std::mutex> lk(mu_);
        if (!first_error_) first_error_ = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lk(mu_);
        --running_;
        if (queue_.empty() && running_ == 0) idle_cv_.notify_all();
      }
    }
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::size_t running_ = 0;
  bool stopping_ = false;
  std::exception_ptr first_error_;
};

/// Runs fn(i) for i in [0, n) on min(threads, n) threads (`threads == 0`
/// means hardware_threads()), then waits.  A pool is built only when that
/// is more than one; otherwise the calling thread runs every index in
/// order and no thread is started.
inline void parallel_for(std::size_t threads, std::size_t n,
                         const std::function<void(std::size_t)>& fn) {
  threads = std::min(threads == 0 ? hardware_threads() : threads, n);
  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool pool(threads);
  pool.parallel_for(n, fn);
}

}  // namespace addm::core
