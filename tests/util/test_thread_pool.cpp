#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "obs/metrics.hpp"

namespace adr::util {
namespace {

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { return 7 * 6; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ParallelForSingleThreadPool) {
  // Single-core machines get a pool with zero workers; the caller must
  // still drain everything.
  ThreadPool pool(1);
  std::atomic<int> sum{0};
  pool.parallel_for(0, 100, [&](std::size_t i) {
    sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, ParallelForCustomGrain) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i]++; },
                    /*grain=*/7);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [&](std::size_t i) {
                          if (i == 13) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&global_pool(), &global_pool());
}

TEST(ThreadPool, ExceptionAbortsRemainingChunks) {
  // Once a chunk throws, the shared cursor jumps to the end: chunks not yet
  // claimed never run. With grain 1 on a big range, far fewer than n items
  // must have executed by the time the exception surfaces.
  ThreadPool pool(2);
  std::atomic<std::size_t> executed{0};
  std::atomic<bool> threw{false};
  constexpr std::size_t kN = 100'000;
  EXPECT_THROW(
      pool.parallel_for(0, kN,
                        [&](std::size_t) {
                          // The first item run anywhere throws, so the abort
                          // happens at the very start no matter which thread
                          // claims which chunk.
                          if (!threw.exchange(true)) {
                            throw std::runtime_error("boom");
                          }
                          executed.fetch_add(1, std::memory_order_relaxed);
                        },
                        /*grain=*/1),
      std::runtime_error);
  // The sibling thread can race a few chunks through before it observes the
  // aborted cursor, but nowhere near the full range.
  EXPECT_LT(executed.load(), kN / 2);
}

TEST(ThreadPool, NestedParallelForCompletes) {
  // A task that itself calls parallel_for must not deadlock even when every
  // worker is occupied by an outer task: waiters help-drain the queue.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(0, 8, [&](std::size_t) {
    pool.parallel_for(0, 16, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    }, /*grain=*/1);
  }, /*grain=*/1);
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ThreadPool, DispatchCountersMatchGrainMath) {
  // The registry is process-global and shared across tests, so assert on
  // before/after deltas.
  auto& reg = adr::obs::MetricsRegistry::global();
  const auto before = reg.snapshot();
  const auto count_of = [](const adr::obs::MetricsSnapshot& s,
                           const char* name) -> std::uint64_t {
    const auto it = s.counters.find(name);
    return it == s.counters.end() ? 0 : it->second;
  };

  ThreadPool pool(3);
  std::atomic<int> n{0};
  pool.parallel_for(0, 64, [&](std::size_t) { n++; }, /*grain=*/7);

  const auto after = reg.snapshot();
  EXPECT_EQ(count_of(after, "threadpool.parallel_for.calls") -
                count_of(before, "threadpool.parallel_for.calls"),
            1u);
  EXPECT_EQ(count_of(after, "threadpool.parallel_for.items") -
                count_of(before, "threadpool.parallel_for.items"),
            64u);
  // ceil(64 / 7) = 10 chunks, regardless of which thread claims them.
  EXPECT_EQ(count_of(after, "threadpool.parallel_for.chunks") -
                count_of(before, "threadpool.parallel_for.chunks"),
            10u);
  EXPECT_EQ(n.load(), 64);
}

TEST(ThreadPool, QueueWaitHistogramObservesSubmittedTasks) {
  auto& reg = adr::obs::MetricsRegistry::global();
  const auto hist_count = [&]() {
    const auto snap = reg.snapshot();
    const auto it = snap.histograms.find("threadpool.queue_wait");
    return it == snap.histograms.end() ? std::uint64_t{0} : it->second.count;
  };
  const std::uint64_t before = hist_count();
  ThreadPool pool(2);
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 10; ++i) futs.push_back(pool.submit([] {}));
  for (auto& f : futs) f.get();
  EXPECT_GE(hist_count() - before, 10u);
}

TEST(ThreadPool, ManySmallTasks) {
  ThreadPool pool(2);
  std::atomic<int> n{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 200; ++i) {
    futs.push_back(pool.submit([&] { n++; }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(n.load(), 200);
}

}  // namespace
}  // namespace adr::util
