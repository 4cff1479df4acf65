#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include <condition_variable>

namespace dtr {

/// Fork-join worker pool with self-scheduled indices.
///
/// `run(n, body)` calls body(i) once for every i in [0, n). The workers, the
/// calling thread among them, claim indices in increasing order from one
/// shared counter, so a slow index never holds up the ones after it and no
/// batch needs a tuned split. Which thread runs which index is not
/// observable in any result: callers write index i's output to its own slot,
/// reduce the slots in index order on the calling thread, and keep scratch
/// thread-local. That makes every computation built on this pool
/// bit-identical for ANY worker count — the contract the optimizer's
/// `num_threads` knob relies on.
///
/// A pool with W workers uses W-1 spawned threads and `ThreadPool(1)` runs
/// everything inline on the caller. `run` invoked from inside a worker
/// (nested parallelism) degrades gracefully to inline execution instead of
/// deadlocking.
class ThreadPool {
 public:
  /// `num_threads`: total workers including the calling thread;
  /// 0 = std::thread::hardware_concurrency().
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_workers() const { return threads_.size() + 1; }

  /// Invokes body(i) for every i in [0, n) and blocks until all finished.
  /// After the first throw no further index is claimed, and the exception of
  /// the lowest throwing index is rethrown on the caller. Every lower index
  /// was claimed before it, so that is the same error for any worker count.
  void run(std::size_t n, const std::function<void(std::size_t)>& body);

  /// Total workers a (possibly null) pool provides.
  static std::size_t workers_of(const ThreadPool* pool) {
    return pool == nullptr ? 1 : pool->num_workers();
  }

 private:
  void worker_loop();
  void claim_indices(std::size_t n, const std::function<void(std::size_t)>& body);

  std::vector<std::thread> threads_;
  std::mutex mutex_;  // guards the job fields below up to next_index_
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t job_id_ = 0;
  std::size_t job_n_ = 0;
  std::size_t pending_ = 0;
  bool stopping_ = false;
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::exception_ptr error_;  // the lowest throwing index's exception
  std::size_t error_index_ = 0;
  std::atomic<std::size_t> next_index_{0};  // next unclaimed index
};

/// Runs fn(i) for every i in [0, n) across the pool's workers
/// (`pool == nullptr` or a single worker = plain sequential loop). `fn` must
/// only write index-i output slots and thread-local scratch for the
/// determinism contract to hold.
template <typename Fn>
void parallel_for(ThreadPool* pool, std::size_t n, Fn&& fn) {
  if (pool == nullptr || pool->num_workers() <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  pool->run(n, [&fn](std::size_t i) { fn(i); });
}

}  // namespace dtr
