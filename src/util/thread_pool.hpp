#pragma once
// Fixed-size worker pool with a blocking parallel_for.
//
// Its callers are the evaluation's: the evaluator's block loop (contiguous
// blocks of users per task, Evaluator::evaluate_users) and the scan plan's
// four group sorts (ScanPlan::sort_keys) and group splices
// (IncrementalEvaluator::splice). Workers pull contiguous index chunks
// from a shared atomic cursor, so uneven per-item costs self-balance.
// ActiveDR's scan runs serially (DESIGN.md §8).
//
// Observability (registry names, see DESIGN.md "Observability"):
//   threadpool.tasks.submitted      counter, one per submit()
//   threadpool.parallel_for.calls   counter, one per parallel_for
//   threadpool.parallel_for.items   counter, indices executed
//   threadpool.parallel_for.chunks  counter, chunks dispatched
//                                   (= ceil(n / grain) per call)
//   threadpool.queue_wait           histogram, submit -> execution delay
//   threadpool.parallel_for         span, whole parallel_for duration
//
// While a parallel_for waits for its workers it drains the shared task
// queue itself, so a task may issue a nested parallel_for without
// deadlocking the pool.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace adr::util {

class ThreadPool {
 public:
  /// n = 0 means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t n = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue an arbitrary task.
  template <typename F>
  std::future<std::invoke_result_t<F>> submit(F&& fn) {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    const auto enqueued = std::chrono::steady_clock::now();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace([this, task, enqueued] {
        note_task_started(enqueued);
        (*task)();
      });
    }
    note_task_submitted();
    cv_.notify_one();
    return fut;
  }

  /// Run fn(i) for every i in [begin, end), blocking until done.
  /// `grain` controls the chunk size workers claim at a time (0 = auto).
  /// The calling thread participates, so the pool also works with size() == 1
  /// on single-core machines. Exceptions from fn are rethrown (first one);
  /// once one chunk throws, undispatched chunks are abandoned. Safe to call
  /// from inside a pool task (nested parallel_for): waiters drain the queue
  /// instead of blocking on it.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn,
                    std::size_t grain = 0);

 private:
  void worker_loop();
  /// Pop and run one queued task if any; false when the queue is empty.
  bool try_run_one();
  void note_task_submitted();
  void note_task_started(std::chrono::steady_clock::time_point enqueued);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Process-wide pool sized from ACTIVEDR_THREADS (default: hardware).
ThreadPool& global_pool();

}  // namespace adr::util
