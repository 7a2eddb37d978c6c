// Bounded ingest admission (DESIGN.md §14.1): the three backpressure
// policies and the invariant they all share — produced == admitted + shed,
// with shed exactly counted and recorded. The suite name matches the TSan
// CI filter ("Backpressure"): the blocking and shedding tests run real
// producer/consumer interleavings.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <thread>
#include <tuple>
#include <vector>

#include "activeness/evaluator.hpp"
#include "activeness/spill.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace adr::activeness {
namespace {

constexpr util::TimePoint kT0 = 1'700'000'000;
constexpr util::Duration kDay = 86'400;

struct Event {
  trace::UserId user;
  ActivityTypeId type;
  Activity activity;
};

std::vector<Event> make_events(std::uint64_t seed, std::size_t users,
                               std::size_t count) {
  util::Rng rng(seed);
  std::vector<Event> events(count);
  for (std::size_t i = 0; i < count; ++i) {
    events[i].user = static_cast<trace::UserId>(rng.bounded(users));
    events[i].type = rng.uniform() < 0.5 ? 0 : 1;
    events[i].activity.timestamp =
        kT0 + static_cast<util::Duration>(i) * 600;
    events[i].activity.impact = rng.uniform(0.1, 50.0);
  }
  return events;
}

/// Finalized empty store with nothing dirty.
ActivityStore empty_store(std::size_t users) {
  ActivityStore store(users, 2);
  store.sort_all();
  store.take_dirty();
  return store;
}

std::string fresh_dir(const char* tag) {
  static std::atomic<int> n{0};
  return ::testing::TempDir() + "/adr_backpressure_" + tag + "_" +
         std::to_string(n.fetch_add(1));
}

TEST(Backpressure, UnboundedByDefault) {
  ActivityStore store = empty_store(8);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(store.enqueue(0, 0, Activity{kT0 + i, 1.0}),
              EnqueueResult::kQueued);
  }
  EXPECT_EQ(store.pending_ingest(), 100u);
  EXPECT_EQ(store.shed_count(), 0u);
  EXPECT_GE(store.ingest_depth_high_water(), 100u);
}

TEST(Backpressure, BlockBoundsQueueDepthUnderFlood) {
  constexpr std::size_t kUsers = 32;
  constexpr std::size_t kCap = 8;
  constexpr std::size_t kProducers = 3;
  constexpr std::size_t kPerProducer = 400;

  ActivityStore store = empty_store(kUsers);
  AdmissionConfig admission;
  admission.queue_cap = kCap;
  admission.policy = BackpressurePolicy::kBlock;
  store.set_admission(admission);

  std::atomic<bool> done{false};
  std::thread consumer([&] {
    while (!done.load(std::memory_order_acquire) ||
           store.has_pending_ingest()) {
      if (store.drain_ingest() == 0) std::this_thread::yield();
    }
  });
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const auto events = make_events(100 + p, kUsers, kPerProducer);
      for (const Event& e : events) {
        EXPECT_EQ(store.enqueue(e.user, e.type, e.activity),
                  EnqueueResult::kQueued);
      }
    });
  }
  for (auto& t : producers) t.join();
  done.store(true, std::memory_order_release);
  consumer.join();

  // Block admits everything (no loss) while the queue depth never
  // exceeds the cap — the memory bound the policy exists for.
  EXPECT_EQ(store.total_activities(), kProducers * kPerProducer);
  EXPECT_EQ(store.shed_count(), 0u);
  EXPECT_LE(store.ingest_depth_high_water(), kCap);
}

TEST(Backpressure, ShedAccountingIsExactWithinBudget) {
  constexpr std::size_t kCap = 4;
  constexpr std::size_t kBudget = 10;
  ActivityStore store = empty_store(1);
  AdmissionConfig admission;
  admission.queue_cap = kCap;
  admission.policy = BackpressurePolicy::kShed;
  admission.shed_budget = kBudget;
  store.set_admission(admission);

  const auto events = make_events(7, 1, kCap + kBudget);
  std::size_t queued = 0, shed = 0;
  for (const Event& e : events) {
    const EnqueueResult r = store.enqueue(e.user, e.type, e.activity);
    if (r == EnqueueResult::kQueued) ++queued;
    if (r == EnqueueResult::kShed) ++shed;
  }
  EXPECT_EQ(queued, kCap);
  EXPECT_EQ(shed, kBudget);
  EXPECT_EQ(store.shed_count(), kBudget);

  // Every shed event is recorded, in drop order: exact loss accounting.
  const auto recorded = store.shed_events();
  ASSERT_EQ(recorded.size(), kBudget);
  for (std::size_t i = 0; i < kBudget; ++i) {
    const Event& e = events[kCap + i];
    EXPECT_EQ(std::get<0>(recorded[i]), e.user);
    EXPECT_EQ(std::get<1>(recorded[i]), e.type);
    EXPECT_EQ(std::get<2>(recorded[i]).timestamp, e.activity.timestamp);
    EXPECT_EQ(std::get<2>(recorded[i]).impact, e.activity.impact);
  }

  // produced == admitted + shed.
  store.drain_ingest();
  EXPECT_EQ(store.total_activities() + store.shed_count(), events.size());
}

TEST(Backpressure, ShedDegradesToBlockOnceBudgetSpent) {
  ActivityStore store = empty_store(1);
  AdmissionConfig admission;
  admission.queue_cap = 2;
  admission.policy = BackpressurePolicy::kShed;
  admission.shed_budget = 1;
  store.set_admission(admission);

  EXPECT_EQ(store.enqueue(0, 0, Activity{kT0, 1.0}), EnqueueResult::kQueued);
  EXPECT_EQ(store.enqueue(0, 0, Activity{kT0 + 1, 1.0}),
            EnqueueResult::kQueued);
  EXPECT_EQ(store.enqueue(0, 0, Activity{kT0 + 2, 1.0}),
            EnqueueResult::kShed);  // budget spent here

  // The next over-cap enqueue must block (no silent loss) until a drain
  // makes room.
  std::atomic<bool> admitted{false};
  std::thread producer([&] {
    EXPECT_EQ(store.enqueue(0, 0, Activity{kT0 + 3, 1.0}),
              EnqueueResult::kQueued);
    admitted.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(admitted.load(std::memory_order_acquire));
  EXPECT_EQ(store.drain_ingest(), 2u);
  producer.join();
  EXPECT_TRUE(admitted.load(std::memory_order_acquire));
  store.drain_ingest();
  EXPECT_EQ(store.total_activities() + store.shed_count(), 4u);
}

TEST(Backpressure, SpillOverflowReplaysToRankIdentity) {
  constexpr std::size_t kUsers = 16;
  constexpr std::size_t kCap = 4;
  const auto events = make_events(42, kUsers, 200);

  // Reference: every event applied directly, in order.
  ActivityStore reference = empty_store(kUsers);
  for (const Event& e : events) {
    reference.append(e.user, e.type, e.activity);
  }

  // Overloaded path: a tiny queue, overflow diverted to the spill segment.
  SpillLog spill(fresh_dir("spill"));
  ActivityStore store = empty_store(kUsers);
  AdmissionConfig admission;
  admission.queue_cap = kCap;
  admission.policy = BackpressurePolicy::kSpill;
  admission.spill = &spill;
  store.set_admission(admission);

  std::size_t spilled = 0;
  for (const Event& e : events) {
    if (store.enqueue(e.user, e.type, e.activity) == EnqueueResult::kSpilled) {
      ++spilled;
    }
  }
  EXPECT_EQ(spilled, events.size() - kCap);
  EXPECT_EQ(store.spilled_count(), spilled);
  EXPECT_EQ(spill.pending(), spilled);

  // Pressure clears: drain the queue, then replay the spill segment.
  store.drain_ingest();
  const std::size_t replayed =
      spill.replay([&](trace::UserId u, ActivityTypeId t, Activity a) {
        store.append(u, t, a);
      });
  EXPECT_EQ(replayed, spilled);
  EXPECT_EQ(spill.pending(), 0u);
  EXPECT_EQ(store.total_activities(), events.size());

  // Replay preserves rank identity: evaluate both stores, compare exactly.
  EvaluationParams params;
  params.period_length_days = 30;
  const ActivityCatalog catalog = ActivityCatalog::paper_default();
  const Evaluator eval(catalog, params);
  const auto want = eval.evaluate_all(reference);
  const auto got = eval.evaluate_all(store);
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].user, got[i].user);
    EXPECT_EQ(want[i].op.zero, got[i].op.zero);
    EXPECT_EQ(want[i].op.log_phi, got[i].op.log_phi);
    EXPECT_EQ(want[i].oc.zero, got[i].oc.zero);
    EXPECT_EQ(want[i].oc.log_phi, got[i].oc.log_phi);
    EXPECT_EQ(want[i].last_activity, got[i].last_activity);
  }

  // The segment was consumed: a second replay is a no-op.
  EXPECT_EQ(spill.replay([](trace::UserId, ActivityTypeId, Activity) {}), 0u);
}

TEST(Backpressure, SpillSurvivesReopenAndSalvagesTornTail) {
  const std::string dir = fresh_dir("salvage");
  {
    SpillLog spill(dir);
    spill.append(3, 0, Activity{kT0, 1.5});
    spill.append(5, 1, Activity{kT0 + 60, 2.5});
    spill.append(7, 0, Activity{kT0 + 120, 3.5});
  }
  // A crashed append leaves a torn partial line.
  {
    std::ofstream out(dir + "/spill.log",
                      std::ios::binary | std::ios::app);
    out << "9,1,17000";
  }
  SpillLog reopened(dir);
  EXPECT_EQ(reopened.pending(), 3u);  // torn tail dropped on salvage
  std::vector<trace::UserId> users;
  reopened.replay([&](trace::UserId u, ActivityTypeId, Activity) {
    users.push_back(u);
  });
  EXPECT_EQ(users, (std::vector<trace::UserId>{3, 5, 7}));
}

TEST(Backpressure, SpillWriteFailureFallsBackToBlocking) {
  const std::string dir = fresh_dir("fault");
  SpillLog spill(dir);
  ActivityStore store = empty_store(1);
  AdmissionConfig admission;
  admission.queue_cap = 1;
  admission.policy = BackpressurePolicy::kSpill;
  admission.spill = &spill;
  store.set_admission(admission);

  EXPECT_EQ(store.enqueue(0, 0, Activity{kT0, 1.0}), EnqueueResult::kQueued);

  // The spill segment refuses all writes: the over-cap enqueue must fall
  // back to blocking instead of dropping the event.
  util::FaultInjector::global().configure("spill.append.write:enospc@0");
  std::atomic<bool> admitted{false};
  std::thread producer([&] {
    EXPECT_EQ(store.enqueue(0, 0, Activity{kT0 + 1, 1.0}),
              EnqueueResult::kQueued);
    admitted.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(admitted.load(std::memory_order_acquire));
  store.drain_ingest();
  producer.join();
  util::FaultInjector::global().clear();

  EXPECT_TRUE(admitted.load(std::memory_order_acquire));
  EXPECT_EQ(store.spilled_count(), 0u);
  store.drain_ingest();
  EXPECT_EQ(store.total_activities(), 2u);
}

TEST(Backpressure, ConcurrentShedNeverLosesUnaccounted) {
  constexpr std::size_t kUsers = 32;
  constexpr std::size_t kProducers = 3;
  constexpr std::size_t kPerProducer = 300;

  ActivityStore store = empty_store(kUsers);
  AdmissionConfig admission;
  admission.queue_cap = 6;
  admission.policy = BackpressurePolicy::kShed;
  admission.shed_budget = 100;
  store.set_admission(admission);

  std::atomic<bool> done{false};
  std::thread consumer([&] {
    while (!done.load(std::memory_order_acquire) ||
           store.has_pending_ingest()) {
      if (store.drain_ingest() == 0) std::this_thread::yield();
    }
  });
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const auto events = make_events(900 + p, kUsers, kPerProducer);
      for (const Event& e : events) store.enqueue(e.user, e.type, e.activity);
    });
  }
  for (auto& t : producers) t.join();
  done.store(true, std::memory_order_release);
  consumer.join();

  // The one invariant every policy must keep, even under contention:
  // produced == admitted + shed, with shed within the declared budget.
  EXPECT_EQ(store.total_activities() + store.shed_count(),
            kProducers * kPerProducer);
  EXPECT_LE(store.shed_count(), admission.shed_budget);
  EXPECT_EQ(store.shed_events().size(), store.shed_count());
}

}  // namespace
}  // namespace adr::activeness
