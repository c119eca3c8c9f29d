// Tests for the worker pool behind the batch explorer: completion, exception
// propagation, reuse across waves, parallel_for coverage, and the one-shot
// parallel_for that starts no thread when one would do.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/thread_pool.hpp"

namespace addm::core {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForOnSingleThreadRunsInOrder) {
  ThreadPool pool(1);
  std::vector<std::size_t> order;
  pool.parallel_for(10, [&](std::size_t i) { order.push_back(i); });
  std::vector<std::size_t> expect(10);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(order, expect);
}

TEST(ThreadPool, OneShotParallelForRunsInlineWhenOneThreadWouldDo) {
  // One thread, or one index at any thread count: every call runs on the
  // calling thread, in order.
  const std::thread::id caller = std::this_thread::get_id();
  for (const auto& [threads, n] : {std::pair<std::size_t, std::size_t>{1, 10}, {8, 1}, {0, 1}}) {
    std::vector<std::size_t> order;
    parallel_for(threads, n, [&](std::size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
    });
    std::vector<std::size_t> expect(n);
    std::iota(expect.begin(), expect.end(), 0);
    EXPECT_EQ(order, expect) << threads << " threads, " << n << " indices";
  }
  parallel_for(4, 0, [](std::size_t) { ADD_FAILURE() << "no index to run"; });
}

TEST(ThreadPool, OneShotParallelForCoversEveryIndexOnce) {
  for (std::size_t threads : {0u, 2u, 3u, 8u}) {
    std::vector<std::atomic<int>> hits(257);
    parallel_for(threads, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i)
      EXPECT_EQ(hits[i].load(), 1) << threads << " threads, index " << i;
  }
  EXPECT_THROW(parallel_for(2, 4, [](std::size_t i) {
                 if (i == 3) throw std::runtime_error("task failed");
               }),
               std::runtime_error);
}

TEST(ThreadPool, WaitIdleRethrowsFirstTaskException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The error is cleared once reported; the pool stays usable.
  std::atomic<int> count{0};
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, ReusableAcrossWaves) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int wave = 0; wave < 5; ++wave) {
    for (int i = 0; i < 20; ++i)
      pool.submit([&count] { count.fetch_add(1); });
    pool.wait_idle();
    EXPECT_EQ(count.load(), (wave + 1) * 20);
  }
}

TEST(SplitThreads, ProductNeverExceedsTheBudget) {
  for (std::size_t total : {1u, 2u, 3u, 4u, 7u, 8u, 16u, 64u}) {
    for (std::size_t inner : {1u, 2u, 3u, 4u, 8u, 100u}) {
      const ThreadSplit s = split_threads(total, inner);
      EXPECT_GE(s.outer, 1u);
      EXPECT_GE(s.inner, 1u);
      EXPECT_LE(s.outer * s.inner, total) << total << "/" << inner;
      EXPECT_LE(s.inner, inner) << "inner level must not exceed its request";
    }
  }
}

TEST(SplitThreads, InnerRequestIsCappedAtTheBudget) {
  const ThreadSplit s = split_threads(4, 100);
  EXPECT_EQ(s.inner, 4u);
  EXPECT_EQ(s.outer, 1u);
}

TEST(SplitThreads, SerialInnerGivesTheWholeBudgetToTraces) {
  const ThreadSplit s = split_threads(8, 1);
  EXPECT_EQ(s.outer, 8u);
  EXPECT_EQ(s.inner, 1u);
}

TEST(SplitThreads, EvenSplit) {
  const ThreadSplit s = split_threads(8, 2);
  EXPECT_EQ(s.outer, 4u);
  EXPECT_EQ(s.inner, 2u);
}

TEST(SplitThreads, ZeroMeansHardwareForEitherLevel) {
  std::size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  const ThreadSplit all_inner = split_threads(0, 0);
  EXPECT_EQ(all_inner.inner, hw);
  EXPECT_EQ(all_inner.outer, 1u);
  const ThreadSplit outer_only = split_threads(0, 1);
  EXPECT_EQ(outer_only.outer, hw);
}

TEST(ThreadPool, NestedDistinctPoolsDoNotDeadlock) {
  // The two-level scheduler pattern: an outer pool task constructs its own
  // inner pool and parallel_fors over it.  Distinct pools, so the no-nesting
  // rule is respected; this must complete and cover every (i, j) pair.
  ThreadPool outer(2);
  std::atomic<int> count{0};
  outer.parallel_for(4, [&](std::size_t) {
    ThreadPool inner(2);
    inner.parallel_for(3, [&](std::size_t) { ++count; });
  });
  EXPECT_EQ(count.load(), 12);
}

}  // namespace
}  // namespace addm::core
