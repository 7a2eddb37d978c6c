#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace adr::util {

namespace {

obs::Counter& tasks_submitted() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("threadpool.tasks.submitted");
  return c;
}

obs::Counter& pf_calls() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("threadpool.parallel_for.calls");
  return c;
}

obs::Counter& pf_items() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("threadpool.parallel_for.items");
  return c;
}

obs::Counter& pf_chunks() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("threadpool.parallel_for.chunks");
  return c;
}

obs::Histogram& queue_wait() {
  static obs::Histogram& h =
      obs::MetricsRegistry::global().histogram("threadpool.queue_wait");
  return h;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t n) {
  // Pre-register every pool metric so exports always carry them — a
  // zero-worker pool (single-core host) never enqueues a task, which would
  // otherwise leave e.g. the queue-wait histogram unregistered.
  tasks_submitted();
  pf_calls();
  pf_items();
  pf_chunks();
  queue_wait();
  if (n == 0) {
    n = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  // The calling thread participates in parallel_for, so spawn n-1 workers.
  workers_.reserve(n > 0 ? n - 1 : 0);
  for (std::size_t i = 1; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::note_task_submitted() { tasks_submitted().add(); }

void ThreadPool::note_task_started(
    std::chrono::steady_clock::time_point enqueued) {
  queue_wait().observe(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - enqueued)
                           .count());
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

bool ThreadPool::try_run_one() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop();
  }
  task();
  return true;
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t grain) {
  if (begin >= end) return;
  obs::TimerSpan span("threadpool.parallel_for");
  const std::size_t n = end - begin;
  const std::size_t parties = workers_.size() + 1;
  // Tiny auto-grained ranges: waking the workers (queue locks, condvar
  // signals, the help-drain wait loop) costs hundreds of microseconds —
  // far more than running a few dozen iterations inline. This keeps
  // delta-sized work (e.g. an incremental re-evaluation of a handful of
  // users) from paying full-fan-out dispatch latency. An explicit grain is
  // a deliberate chunking request (the evaluator's blocks and the plan's
  // four groups ask for one item per chunk), so only the grain = auto path
  // short-circuits.
  constexpr std::size_t kInlineCutoff = 64;
  if (workers_.empty() || (grain == 0 && n <= kInlineCutoff)) {
    pf_calls().add();
    pf_chunks().add();
    for (std::size_t i = begin; i < end; ++i) fn(i);
    pf_items().add(n);
    return;
  }
  if (grain == 0) {
    grain = std::max<std::size_t>(1, n / (parties * 8));
  }
  pf_calls().add();

  auto cursor = std::make_shared<std::atomic<std::size_t>>(begin);
  auto first_error = std::make_shared<std::atomic<bool>>(false);
  auto error = std::make_shared<std::exception_ptr>();
  auto error_mutex = std::make_shared<std::mutex>();

  auto drain = [=] {
    for (;;) {
      const std::size_t lo = cursor->fetch_add(grain);
      if (lo >= end) return;
      const std::size_t hi = std::min(end, lo + grain);
      pf_chunks().add();
      try {
        for (std::size_t i = lo; i < hi; ++i) fn(i);
        pf_items().add(hi - lo);
      } catch (...) {
        std::lock_guard<std::mutex> lock(*error_mutex);
        if (!first_error->exchange(true)) *error = std::current_exception();
        cursor->store(end);  // abort remaining chunks
        return;
      }
    }
  };

  std::vector<std::future<void>> futs;
  futs.reserve(workers_.size());
  for (std::size_t i = 0; i < workers_.size(); ++i) futs.push_back(submit(drain));
  drain();  // caller participates
  for (auto& f : futs) {
    // Help-drain while waiting: if this parallel_for runs inside a pool
    // task, its sibling drains (and any nested parallel_for's drains) may
    // sit behind us in the queue — blocking in get() with every worker
    // doing the same would deadlock the pool.
    while (f.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready) {
      if (!try_run_one()) {
        f.wait_for(std::chrono::microseconds(50));
      }
    }
    f.get();
  }

  if (first_error->load()) std::rethrow_exception(*error);
}

ThreadPool& global_pool() {
  static ThreadPool pool([] {
    if (const char* env = std::getenv("ACTIVEDR_THREADS")) {
      const long v = std::strtol(env, nullptr, 10);
      if (v > 0) return static_cast<std::size_t>(v);
    }
    return std::size_t{0};
  }());
  return pool;
}

}  // namespace adr::util
