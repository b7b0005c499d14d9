// Fixed-size worker thread pool.
//
// The experiment runner fans independent run_once() simulations of one
// workload::Workload out over this pool (grid::run_seeds, run_averaged
// and run_matrix); nothing inside a single simulation is threaded.
// submit() hands back a std::future so callers drain results in
// whatever order keeps their output deterministic, and exceptions
// thrown by a task surface at future::get().
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"

namespace wcs {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads) {
    WCS_CHECK_MSG(num_threads >= 1, "ThreadPool needs >= 1 thread");
    workers_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  // Non-copyable, non-movable: workers capture `this`.
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueue `fn` and return a future for its result. A task that throws
  // stores the exception in the future; the pool itself keeps running.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    // packaged_task is move-only but std::function requires copyable
    // callables, so the task rides in a shared_ptr.
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      WCS_CHECK_MSG(!stopping_, "submit() on a stopping ThreadPool");
      queue_.emplace([task = std::move(task)] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  // The pool size to use when the caller does not specify one:
  // hardware_concurrency, with a floor of 1 (the standard allows 0 when
  // the core count is unknowable).
  [[nodiscard]] static std::size_t default_concurrency() {
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<std::size_t>(n);
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping, and nothing left to drain
        job = std::move(queue_.front());
        queue_.pop();
      }
      job();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace wcs
