// The ingest queue (DESIGN.md §12): producers enqueue trace events
// concurrently with an advancing IncrementalEvaluator, whose every advance
// drains the queue first, so the final ranks must be byte-identical to a
// serial replay of the same events. The TSan CI job runs this suite by name
// ("IngestQueue") — these tests are where the producer/drain interleavings
// actually happen.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "activeness/incremental.hpp"
#include "util/rng.hpp"

namespace adr::activeness {
namespace {

constexpr util::TimePoint kT0 = 1'700'000'000;
constexpr util::Duration kDay = 86'400;

void expect_same_rank(const Rank& a, const Rank& b, const char* what) {
  EXPECT_EQ(a.has_data, b.has_data) << what;
  EXPECT_EQ(a.zero, b.zero) << what;
  EXPECT_EQ(a.log_phi, b.log_phi) << what;
}

void expect_same_activeness(const UserActiveness& a, const UserActiveness& b) {
  EXPECT_EQ(a.user, b.user);
  expect_same_rank(a.op, b.op, "op");
  expect_same_rank(a.oc, b.oc, "oc");
  EXPECT_EQ(a.last_activity, b.last_activity);
}

/// Every key must be the one its record yields now: a splice that kept a
/// re-evaluated user's old key would leave it stale. The user -> group
/// table must name the group each key sits in.
void expect_current_keys(const ScanPlan& plan) {
  for (std::size_t g = 0; g < kGroupCount; ++g) {
    for (const ScanKey& k : plan.groups[g]) {
      EXPECT_EQ(scan_key(static_cast<UserGroup>(g), plan.at(k), k.index), k)
          << "group " << g << " user " << k.user;
      EXPECT_EQ(plan.group_of(k.user), static_cast<UserGroup>(g))
          << "user " << k.user;
    }
  }
}

void expect_same_plan(const ScanPlan& a, const ScanPlan& b) {
  for (std::size_t g = 0; g < kGroupCount; ++g) {
    ASSERT_EQ(a.groups[g].size(), b.groups[g].size()) << "group " << g;
    for (std::size_t i = 0; i < a.groups[g].size(); ++i) {
      EXPECT_EQ(a.groups[g][i].user, b.groups[g][i].user);
      expect_same_activeness(a.at(a.groups[g][i]), b.at(b.groups[g][i]));
    }
  }
  const std::size_t ids =
      std::max(a.group_by_user.size(), b.group_by_user.size()) + 1;
  for (trace::UserId u = 0; u < ids; ++u) {
    EXPECT_EQ(a.group_of(u), b.group_of(u)) << "user " << u;
  }
  expect_current_keys(a);
  expect_current_keys(b);
}

/// Identical base population for the concurrent run and its serial replay.
ActivityStore base_store(std::uint64_t seed, std::size_t users) {
  ActivityStore store(users, 2);
  util::Rng rng(seed);
  for (trace::UserId u = 0; u < users; ++u) {
    if (rng.uniform() < 0.2) continue;  // fresh users stay empty
    const int events = static_cast<int>(rng.uniform_int(1, 20));
    for (int e = 0; e < events; ++e) {
      const util::TimePoint ts =
          kT0 - static_cast<util::Duration>(rng.uniform(0, 400) * kDay);
      store.add(u, rng.uniform() < 0.7 ? 0 : 1,
                Activity{ts, rng.uniform(0.1, 50.0)});
    }
  }
  store.sort_all();
  return store;
}

struct Event {
  trace::UserId user;
  ActivityTypeId type;
  Activity activity;
};

/// Deterministic ingest stream: timestamps march forward from kT0 so the
/// interleaved advances reveal them progressively.
std::vector<Event> make_events(std::uint64_t seed, std::size_t users,
                               std::size_t count) {
  util::Rng rng(seed);
  std::vector<Event> events(count);
  for (std::size_t i = 0; i < count; ++i) {
    events[i].user = static_cast<trace::UserId>(rng.bounded(users));
    events[i].type = rng.uniform() < 0.5 ? 0 : 1;
    events[i].activity.timestamp =
        kT0 + static_cast<util::Duration>(
                  30.0 * kDay * static_cast<double>(i) /
                  static_cast<double>(count));
    events[i].activity.impact = rng.uniform(0.1, 50.0);
  }
  return events;
}

EvaluationParams short_params() {
  EvaluationParams p;
  p.period_length_days = 30;
  return p;
}

TEST(IngestQueue, EnqueueValidatesUserAndType) {
  ActivityStore store(8, 2);
  EXPECT_THROW(store.enqueue(8, 0, Activity{kT0, 1.0}), std::out_of_range);
  EXPECT_THROW(store.enqueue(0, 2, Activity{kT0, 1.0}), std::out_of_range);
}

TEST(IngestQueue, DrainFinalizesStoreFirst) {
  ActivityStore store(8, 2);  // never sorted: not finalized
  store.add(1, 0, Activity{kT0 - kDay, 2.0});
  store.enqueue(0, 0, Activity{kT0, 1.0});
  EXPECT_TRUE(store.has_pending_ingest());
  // The drain sorts the pending bulk rows, then applies the queue.
  EXPECT_EQ(store.drain_ingest(), 1u);
  EXPECT_TRUE(store.finalized());
  EXPECT_FALSE(store.has_pending_ingest());
  ASSERT_EQ(store.stream(0, 0).size(), 1u);
  EXPECT_EQ(store.stream(0, 0).front().timestamp, kT0);
  ASSERT_EQ(store.stream(1, 0).size(), 1u);
  EXPECT_EQ(store.prefix(1, 0).back(), 2.0);
}

TEST(IngestQueue, QueuedEventShowsAfterNextAdvance) {
  constexpr std::size_t kUsers = 64;
  ActivityStore store = base_store(22, kUsers);
  const ActivityCatalog catalog = ActivityCatalog::paper_default();
  IncrementalEvaluator evaluator(catalog, short_params(), EvalMode::kIncremental);
  evaluator.advance(store, kT0);
  evaluator.advance(store, kT0 + kDay);

  const trace::UserId user = 17;
  const util::TimePoint ts = kT0 + 2 * kDay;
  store.enqueue(user, 0, Activity{ts, 5.0});

  // The event sits only on the ingest queue: it is neither dirty nor in
  // the chronological index yet. The advance must drain it first, so its
  // effect shows in the refreshed rank.
  EXPECT_FALSE(store.has_dirty());
  evaluator.advance(store, kT0 + 3 * kDay);
  EXPECT_FALSE(store.has_pending_ingest());
  EXPECT_EQ(evaluator.users()[user].last_activity, ts);
}

// N producer threads enqueue a deterministic stream round-robin while the
// main thread keeps advancing the evaluator mid-flight. After a final
// advance past the stream's last timestamp, every rank and the full scan
// plan must equal a single-threaded replay of the same events. Run under
// TSan in CI.
TEST(IngestQueue, ConcurrentProducersMatchSerialReplay) {
  constexpr std::size_t kUsers = 96;
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kEvents = 4000;
  const std::vector<Event> events = make_events(33, kUsers, kEvents);
  const ActivityCatalog catalog = ActivityCatalog::paper_default();

  ActivityStore store = base_store(44, kUsers);
  IncrementalEvaluator evaluator(catalog, short_params(), EvalMode::kIncremental);
  evaluator.advance(store, kT0);

  std::atomic<std::size_t> enqueued{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = p; i < events.size(); i += kProducers) {
        store.enqueue(events[i].user, events[i].type, events[i].activity);
        enqueued.fetch_add(1, std::memory_order_release);
      }
    });
  }

  util::TimePoint now = kT0;
  while (enqueued.load(std::memory_order_acquire) < events.size()) {
    now += kDay;
    evaluator.advance(store, now);
  }
  for (std::thread& t : producers) t.join();
  const util::TimePoint final_now = std::max(now, kT0 + 40 * kDay);
  evaluator.advance(store, final_now);

  ActivityStore serial = base_store(44, kUsers);
  for (const Event& e : events) serial.append(e.user, e.type, e.activity);
  IncrementalEvaluator reference(catalog, short_params(), EvalMode::kFull);
  reference.advance(serial, final_now);

  ASSERT_EQ(evaluator.users().size(), reference.users().size());
  for (std::size_t u = 0; u < reference.users().size(); ++u) {
    expect_same_activeness(evaluator.users()[u], reference.users()[u]);
  }
  expect_same_plan(evaluator.plan(), reference.plan());
}

}  // namespace
}  // namespace adr::activeness
