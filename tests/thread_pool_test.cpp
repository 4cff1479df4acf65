#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace dtr {
namespace {

TEST(ThreadPoolTest, SingleWorkerRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_workers(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> hits(100, 0);
  parallel_for(&pool, hits.size(), [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++hits[i];
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 100);
}

TEST(ThreadPoolTest, NullPoolRunsSequentially) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  parallel_for(nullptr, 64, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  std::vector<std::size_t> expected(64);
  std::iota(expected.begin(), expected.end(), std::size_t{0});
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, EveryIndexVisitedExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_workers(), 4u);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(&pool, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, EmptyRangeIsANoOp) {
  ThreadPool pool(4);
  int calls = 0;
  parallel_for(&pool, 0, [&](std::size_t) { ++calls; });
  pool.run(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, FewerItemsThanWorkers) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  parallel_for(&pool, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, OversubscriptionBeyondHardwareConcurrency) {
  // Far more workers than cores must still complete and visit every index.
  ThreadPool pool(32);
  EXPECT_EQ(pool.num_workers(), 32u);
  std::vector<std::atomic<int>> hits(10000);
  for (int round = 0; round < 3; ++round) {
    parallel_for(&pool, hits.size(), [&](std::size_t i) { ++hits[i]; });
  }
  for (const auto& h : hits) EXPECT_EQ(h.load(), 3);
}

TEST(ThreadPoolTest, ExceptionsPropagateToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(parallel_for(&pool, 100,
                            [&](std::size_t i) {
                              if (i == 57) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
  // The pool must stay usable after a failed job.
  std::vector<std::atomic<int>> hits(100);
  parallel_for(&pool, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, LowestIndexExceptionWinsForAnyShape) {
  // Several indices throw; every shape must report the lowest one, since
  // every index below a throwing one was claimed before it.
  const auto first_error = [](ThreadPool* pool) -> std::string {
    try {
      parallel_for(pool, 100, [](std::size_t i) {
        if (i == 3 || i == 57 || i == 90)
          throw std::runtime_error("index " + std::to_string(i));
      });
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "no throw";
  };
  EXPECT_EQ(first_error(nullptr), "index 3");
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    for (int round = 0; round < 20; ++round)
      EXPECT_EQ(first_error(&pool), "index 3") << "threads=" << threads;
  }
}

TEST(ThreadPoolTest, SlowIndexDoesNotHoldUpLaterOnes) {
  // Index 0 blocks until every later index has run. With a fixed split,
  // index 1 would queue behind index 0 on the same worker; with shared
  // claims the other workers take it.
  ThreadPool pool(4);
  const std::size_t n = 8;
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t done = 0;
  std::size_t done_while_waiting = 0;
  parallel_for(&pool, n, [&](std::size_t i) {
    std::unique_lock<std::mutex> lock(mutex);
    if (i == 0) {
      cv.wait_for(lock, std::chrono::seconds(5), [&] { return done == n - 1; });
      done_while_waiting = done;
    } else {
      ++done;
      cv.notify_all();
    }
  });
  EXPECT_EQ(done_while_waiting, n - 1) << "later indices that ran while index 0 waited";
}

TEST(ThreadPoolTest, NestedRunFallsBackToInline) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  parallel_for(&pool, 4, [&](std::size_t outer) {
    // Nested use of the same pool must not deadlock.
    parallel_for(&pool, 16, [&](std::size_t i) { ++hits[outer * 16 + i]; });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, RejectsNegativeThreadCount) {
  EXPECT_THROW(ThreadPool(-1), std::invalid_argument);
}

TEST(ThreadPoolTest, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_workers(), 1u);
}

}  // namespace
}  // namespace dtr
