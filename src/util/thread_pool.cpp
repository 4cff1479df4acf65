#include "util/thread_pool.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace dtr {

namespace {
/// Set while a thread executes pool work; nested `run` calls detect it and
/// fall back to inline execution rather than waiting on their own pool.
thread_local bool t_inside_pool_worker = false;
}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads < 0) throw std::invalid_argument("ThreadPool: negative num_threads");
  std::size_t workers = num_threads == 0
                            ? std::max(1u, std::thread::hardware_concurrency())
                            : static_cast<std::size_t>(num_threads);
  threads_.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) threads_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::run(std::size_t n, const std::function<void(std::size_t)>& body) {
  if (n <= 1 || threads_.empty() || t_inside_pool_worker) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    body_ = &body;
    job_n_ = n;
    pending_ = threads_.size();
    next_index_.store(0);
    error_ = nullptr;
    ++job_id_;
  }
  start_cv_.notify_all();

  t_inside_pool_worker = true;
  claim_indices(n, body);
  t_inside_pool_worker = false;

  // Each worker decrements pending_ under the mutex after its last index, so
  // every slot write happens-before the caller's reduction.
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return pending_ == 0; });
  body_ = nullptr;
  if (error_ != nullptr) std::rethrow_exception(std::exchange(error_, nullptr));
}

void ThreadPool::claim_indices(std::size_t n, const std::function<void(std::size_t)>& body) {
  for (std::size_t i = next_index_.fetch_add(1); i < n; i = next_index_.fetch_add(1)) {
    try {
      body(i);
    } catch (...) {
      // Stop further claims; indices already claimed still finish.
      next_index_.store(n);
      std::lock_guard<std::mutex> lock(mutex_);
      if (error_ == nullptr || i < error_index_) {
        error_ = std::current_exception();
        error_index_ = i;
      }
    }
  }
}

void ThreadPool::worker_loop() {
  t_inside_pool_worker = true;
  std::uint64_t last_job = 0;
  for (;;) {
    const std::function<void(std::size_t)>* body = nullptr;
    std::size_t n = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&] { return stopping_ || job_id_ != last_job; });
      if (stopping_) return;
      last_job = job_id_;
      body = body_;
      n = job_n_;
    }
    claim_indices(n, *body);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --pending_;
    }
    done_cv_.notify_one();
  }
}

}  // namespace dtr
