// The tentpole guarantee of the incremental pipeline: full and incremental
// evaluation are *identical* — same ranks, same classifications, same scan
// plan order — across randomized populations, trigger cadences, streaming
// appends (future-dated ones included), backwards-time jumps, and both
// stale-handling policies — down to the purge victims a dry run names.
// Plus the delta bookkeeping: only users whose rank can have changed are
// re-evaluated.

#include "activeness/incremental.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "retention/activedr_policy.hpp"
#include "trace/user_registry.hpp"
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
      EXPECT_EQ(a.groups[g][i].user, b.groups[g][i].user)
          << "group " << g << " position " << i;
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

/// A random population: most users sparse (many end up at Φ = 0 or fresh),
/// a few dense enough to hold a positive rank.
ActivityStore random_store(std::uint64_t seed, std::size_t users) {
  ActivityStore store(users, 2);
  util::Rng rng(seed);
  for (trace::UserId u = 0; u < users; ++u) {
    const double archetype = rng.uniform();
    if (archetype < 0.15) continue;  // fresh: no activity at all
    const bool dense = archetype > 0.8;
    const int events = dense ? static_cast<int>(rng.uniform_int(30, 80))
                             : static_cast<int>(rng.uniform_int(1, 6));
    for (int e = 0; e < events; ++e) {
      const util::TimePoint ts =
          kT0 - static_cast<util::Duration>(rng.uniform(0, 700) * kDay);
      const ActivityTypeId type = rng.uniform() < 0.7 ? 0 : 1;
      store.add(u, type, Activity{ts, rng.uniform(0.1, 50.0)});
    }
  }
  store.sort_all();
  return store;
}

/// Two files per user, atimes up to `max_age_days` before `t`: a dry-run
/// ActiveDR purge to a third of the bytes must name the same victims in the
/// same order under both plans (the list depends on scan order, not just
/// the victim set).
void expect_same_victims(const ScanPlan& want_plan, const ScanPlan& got_plan,
                         std::size_t users, util::TimePoint t,
                         std::uint64_t seed, std::int64_t max_age_days) {
  const trace::UserRegistry registry =
      trace::UserRegistry::with_synthetic_users(users);
  fs::Vfs vfs_full, vfs_inc;
  util::Rng files(seed ^ 0xabc);
  for (trace::UserId u = 0; u < users; ++u) {
    for (int f = 0; f < 2; ++f) {
      fs::FileMeta meta;
      meta.owner = u;
      meta.size_bytes =
          64 + static_cast<std::uint64_t>(files.uniform_int(0, 100));
      meta.atime = t - static_cast<util::Duration>(
                           files.uniform_int(0, max_age_days)) * kDay;
      meta.ctime = meta.atime;
      const std::string path = registry.home_dir(u) + "/f" + std::to_string(f);
      vfs_full.create(path, meta);
      vfs_inc.create(path, meta);
    }
  }
  const retention::ActiveDrPolicy policy(retention::ActiveDrConfig{});
  const retention::ApplyOptions dry_run{.dry_run = true};
  const std::uint64_t target = vfs_full.total_bytes() / 3;
  const auto want =
      policy.run(vfs_full, t, target, want_plan, dry_run).victim_paths;
  EXPECT_FALSE(want.empty());
  EXPECT_EQ(policy.run(vfs_inc, t, target, got_plan, dry_run).victim_paths,
            want);
}

EvaluationParams params_for(int period_days, StaleHandling stale,
                            ExponentScheme scheme, int max_periods = 0) {
  EvaluationParams p;
  p.period_length_days = period_days;
  p.stale = stale;
  p.scheme = scheme;
  p.max_periods = max_periods;
  return p;
}

TEST(IncrementalEvaluator, MatchesFullAcrossRandomizedTriggerSweeps) {
  const ActivityCatalog catalog = ActivityCatalog::paper_default();
  for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
    for (const StaleHandling stale :
         {StaleHandling::kClampOldest, StaleHandling::kDrop}) {
      const EvaluationParams params =
          params_for(90, stale, ExponentScheme::kPaperExponent,
                     stale == StaleHandling::kDrop ? 4 : 0);
      ActivityStore store_full = random_store(seed, 120);
      ActivityStore store_inc = random_store(seed, 120);
      IncrementalEvaluator full(catalog, params, EvalMode::kFull);
      IncrementalEvaluator inc(catalog, params, EvalMode::kIncremental);
      util::Rng cadence(seed ^ 0xfeed);
      util::TimePoint t = kT0 - 400 * kDay;
      for (int trigger = 0; trigger < 12; ++trigger) {
        t += static_cast<util::Duration>(cadence.uniform_int(3, 40)) * kDay;
        full.advance(store_full, t);
        const AdvanceStats stats = inc.advance(store_inc, t);
        ASSERT_EQ(full.users().size(), inc.users().size());
        for (std::size_t u = 0; u < full.users().size(); ++u) {
          expect_same_activeness(full.users()[u], inc.users()[u]);
        }
        expect_same_plan(full.plan(), inc.plan());
        if (trigger > 0) {
          EXPECT_FALSE(stats.full_rebuild)
              << "forward advance must stay incremental";
        }
      }
    }
  }
}

// The same identity across the inputs a pure forward sweep never produces:
// 40 randomized timelines mixing streaming appends, future-dated events
// that a later trigger has to reveal through the chronological index, and
// backwards-time jumps that force rebuilds. kIncremental must match kFull
// in users, groups and plan order at every trigger,
// and a dry-run purge to a byte target must then name the same victims in
// the same order (the list depends on scan order, not just the victim set).
TEST(IncrementalEvaluator, MatchesFullAcrossAppendsJumpsAndVictimLists) {
  const ActivityCatalog catalog = ActivityCatalog::paper_default();
  constexpr std::size_t kUsers = 80;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const EvaluationParams params = params_for(
        seed % 2 == 0 ? 30 : 90,
        seed % 3 == 0 ? StaleHandling::kDrop : StaleHandling::kClampOldest,
        ExponentScheme::kPaperExponent, seed % 3 == 0 ? 5 : 0);
    ActivityStore store_full = random_store(seed, kUsers);
    ActivityStore store_inc = random_store(seed, kUsers);
    IncrementalEvaluator full(catalog, params, EvalMode::kFull);
    IncrementalEvaluator inc(catalog, params, EvalMode::kIncremental);
    util::Rng rng(seed * 7919);
    util::TimePoint t = kT0 - 200 * kDay;
    for (int trigger = 0; trigger < 8; ++trigger) {
      if (trigger > 0 && rng.uniform() < 0.15) {
        t -= static_cast<util::Duration>(rng.uniform_int(5, 60)) * kDay;
      } else {
        t += static_cast<util::Duration>(rng.uniform_int(3, 30)) * kDay;
      }
      const int burst = static_cast<int>(rng.uniform_int(0, 15));
      for (int e = 0; e < burst; ++e) {
        const auto user =
            static_cast<trace::UserId>(rng.uniform_int(0, kUsers - 1));
        const ActivityTypeId type = rng.uniform() < 0.7 ? 0 : 1;
        // Mostly at or before t; sometimes future-dated, so a later trigger
        // reveals it through the chronological index after the dirty set
        // that carried the append has long been drained.
        const util::Duration off =
            static_cast<util::Duration>(rng.uniform_int(0, 20 * kDay)) -
            10 * kDay;
        const Activity a{t + off, rng.uniform(0.5, 20.0)};
        store_full.append(user, type, a);
        store_inc.append(user, type, a);
      }
      full.advance(store_full, t);
      inc.advance(store_inc, t);
      ASSERT_EQ(inc.users().size(), kUsers);
      for (std::size_t u = 0; u < kUsers; ++u) {
        expect_same_activeness(full.users()[u], inc.users()[u]);
      }
      expect_same_plan(full.plan(), inc.plan());
    }

    expect_same_victims(full.plan(), inc.plan(), kUsers, t, seed, 400);
  }
}

/// A population that stays active at every trigger of the sweep below:
/// each user's operation stream has an activity every 4 to 6.9 days and
/// the outcome stream one every 4.5 to 6.9 days, from 30-60 days before
/// kT0 to 60 days after it. No 7-day period is ever empty, so every cached
/// rank is positive; the activities after each trigger surface through the
/// chronological index as time moves.
ActivityStore dense_store(std::uint64_t seed, std::size_t users) {
  ActivityStore store(users, 2);
  util::Rng rng(seed);
  const util::TimePoint end = kT0 + 60 * kDay;
  for (trace::UserId u = 0; u < users; ++u) {
    const util::TimePoint begin =
        kT0 - static_cast<util::Duration>(rng.uniform_int(30, 60)) * kDay;
    for (util::TimePoint ts = begin; ts < end;
         ts += static_cast<util::Duration>(rng.uniform(4.0, 6.9) * kDay)) {
      store.add(u, 0, Activity{ts, rng.uniform(0.5, 40.0)});
    }
    for (util::TimePoint ts = begin; ts < end;
         ts += static_cast<util::Duration>(rng.uniform(4.5, 6.9) * kDay)) {
      store.add(u, 1, Activity{ts, rng.uniform(0.5, 40.0)});
    }
  }
  store.sort_all();
  return store;
}

// The stable-until skip at trigger cadences finer than a period (1-36 h
// against 7-day periods), with streamed appends between triggers: users,
// groups and plan equal kFull at every step, a dry-run purge names the
// same victims, and on steps where every cached rank is positive — so no
// skip comes from a zero's +∞ instant — the instant still skips users.
// The dense populations run under a 3-period cap: a user's rank then reads
// the buckets of a few activities, so even a 36 h step leaves some users
// unmoved. (Uncapped, m grows through the sweep, and every period adds a
// lower edge that a long step can carry into the next bucket.)
TEST(IncrementalEvaluator, StableUntilSkipMatchesFullAtSubPeriodCadences) {
  const ActivityCatalog catalog = ActivityCatalog::paper_default();
  constexpr std::size_t kUsers = 60;
  int positive_steps = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const bool dense = seed % 2 == 1;
    const StaleHandling stale =
        seed % 3 == 0 ? StaleHandling::kDrop : StaleHandling::kClampOldest;
    const int cap = dense ? 3 : (seed % 4 == 0 ? 4 : 0);
    const EvaluationParams params = params_for(
        7, stale,
        seed % 4 == 1 ? ExponentScheme::kUniform
                      : ExponentScheme::kPaperExponent,
        cap);
    ActivityStore store_full =
        dense ? dense_store(seed, kUsers) : random_store(seed, kUsers);
    ActivityStore store_inc =
        dense ? dense_store(seed, kUsers) : random_store(seed, kUsers);
    IncrementalEvaluator full(catalog, params, EvalMode::kFull);
    IncrementalEvaluator inc(catalog, params, EvalMode::kIncremental);
    util::Rng rng(seed * 104729);
    util::TimePoint t = kT0;
    for (int step = 0; step < 40; ++step) {
      const util::Duration cadence =
          static_cast<util::Duration>(rng.uniform_int(1, 36)) * 3600;
      const int burst = static_cast<int>(rng.uniform_int(0, 4));
      for (int e = 0; e < burst; ++e) {
        const auto user =
            static_cast<trace::UserId>(rng.uniform_int(0, kUsers - 1));
        const ActivityTypeId type = rng.uniform() < 0.7 ? 0 : 1;
        const Activity a{t + rng.uniform_int(0, cadence),
                         rng.uniform(0.5, 20.0)};
        store_full.append(user, type, a);
        store_inc.append(user, type, a);
      }
      t += cadence;
      const bool only_positive =
          step > 0 &&
          std::all_of(inc.users().begin(), inc.users().end(),
                      [](const UserActiveness& ua) {
                        return !ua.fresh() && !ua.op.zero && !ua.oc.zero;
                      });
      full.advance(store_full, t);
      const AdvanceStats stats = inc.advance(store_inc, t);
      EXPECT_EQ(stats.full_rebuild, step == 0);
      for (std::size_t u = 0; u < kUsers; ++u) {
        expect_same_activeness(full.users()[u], inc.users()[u]);
      }
      expect_same_plan(full.plan(), inc.plan());
      if (only_positive) {
        ++positive_steps;
        EXPECT_GT(stats.users_skipped, 0u) << "step " << step;
      }
    }
    expect_same_victims(full.plan(), inc.plan(), kUsers, t, seed, 30);
  }
  EXPECT_GT(positive_steps, 0);
}

TEST(IncrementalEvaluator, StreamingAppendsMatchFullEvaluation) {
  const ActivityCatalog catalog = ActivityCatalog::paper_default();
  const EvaluationParams params = params_for(
      30, StaleHandling::kClampOldest, ExponentScheme::kPaperExponent);
  ActivityStore live(60, 2);  // starts empty; events stream in
  ActivityStore mirror(60, 2);
  IncrementalEvaluator inc(catalog, params, EvalMode::kIncremental);
  util::Rng rng(77);
  util::TimePoint t = kT0;
  for (int trigger = 0; trigger < 10; ++trigger) {
    // A burst of appends with timestamps at or before the next trigger.
    const util::TimePoint next = t + 7 * kDay;
    const int burst = static_cast<int>(rng.uniform_int(0, 25));
    for (int e = 0; e < burst; ++e) {
      const auto user = static_cast<trace::UserId>(rng.uniform_int(0, 59));
      const ActivityTypeId type = rng.uniform() < 0.6 ? 0 : 1;
      const Activity activity{
          t + static_cast<util::Duration>(rng.uniform_int(0, 7 * kDay)),
          rng.uniform(0.5, 20.0)};
      live.append(user, type, activity);
      mirror.add(user, type, activity);
    }
    t = next;
    inc.advance(live, t);

    // Reference: a from-scratch full evaluation over the same events.
    ActivityStore reference(60, 2);
    for (trace::UserId u = 0; u < 60; ++u) {
      for (ActivityTypeId ty = 0; ty < 2; ++ty) {
        for (const Activity& a : mirror.stream(u, ty)) {
          reference.add(u, ty, a);
        }
      }
    }
    IncrementalEvaluator full(catalog, params, EvalMode::kFull);
    full.advance(reference, t);
    expect_same_plan(full.plan(), inc.plan());
  }
}

TEST(IncrementalEvaluator, ReevaluatesOnlyTheDirtyUser) {
  const ActivityCatalog catalog = ActivityCatalog::paper_default();
  const EvaluationParams params = params_for(
      90, StaleHandling::kClampOldest, ExponentScheme::kPaperExponent);
  ActivityStore store(10, 2);
  // user 0: two activities long ago -> rank 0 (empty newest periods),
  // last_activity far behind every trigger. Everyone else: fresh.
  store.add(0, 0, Activity{kT0 - 600 * kDay, 5.0});
  store.add(0, 0, Activity{kT0 - 580 * kDay, 5.0});
  store.sort_all();

  IncrementalEvaluator inc(catalog, params, EvalMode::kIncremental);
  const AdvanceStats first = inc.advance(store, kT0);
  EXPECT_TRUE(first.full_rebuild);

  // One streamed event for user 3; nobody else can have changed.
  store.append(3, 1, Activity{kT0 + kDay, 2.0});
  const AdvanceStats second = inc.advance(store, kT0 + 2 * kDay);
  EXPECT_FALSE(second.full_rebuild);
  EXPECT_EQ(second.users_dirty, 1u);
  EXPECT_EQ(second.users_reevaluated, 1u);
  EXPECT_EQ(second.users_skipped, 9u);
  EXPECT_TRUE(inc.users()[3].oc.has_data);

  // Quiet interval: nothing is dirty, nobody needs a re-rank. User 3's
  // single activity stays inside its first 90-day period, so its positive
  // rank is unchanged and the stable-until instant carries it.
  const AdvanceStats third = inc.advance(store, kT0 + 30 * kDay);
  EXPECT_EQ(third.users_dirty, 0u);
  EXPECT_EQ(third.users_reevaluated, 0u);
  EXPECT_EQ(third.users_skipped, 10u);

  // One second past ts + d the activity enters its second period (m = 2):
  // exactly user 3 is re-evaluated, and the result still matches kFull.
  const util::TimePoint crossed = kT0 + kDay + 90 * kDay + 1;
  const AdvanceStats fourth = inc.advance(store, crossed);
  EXPECT_EQ(fourth.users_dirty, 0u);
  EXPECT_EQ(fourth.users_reevaluated, 1u);
  EXPECT_EQ(fourth.users_skipped, 9u);
  EXPECT_EQ(inc.reevaluated(), std::vector<trace::UserId>{3});
  IncrementalEvaluator full(catalog, params, EvalMode::kFull);
  full.advance(store, crossed);
  for (std::size_t u = 0; u < 10; ++u) {
    expect_same_activeness(full.users()[u], inc.users()[u]);
  }
  expect_same_plan(full.plan(), inc.plan());
}

TEST(IncrementalEvaluator, BackwardsTimeForcesFullRebuild) {
  const ActivityCatalog catalog = ActivityCatalog::paper_default();
  const EvaluationParams params = params_for(
      30, StaleHandling::kClampOldest, ExponentScheme::kPaperExponent);
  ActivityStore store = random_store(5, 50);
  ActivityStore reference_store = random_store(5, 50);
  IncrementalEvaluator inc(catalog, params, EvalMode::kIncremental);
  inc.advance(store, kT0);
  const AdvanceStats back = inc.advance(store, kT0 - 100 * kDay);
  EXPECT_TRUE(back.full_rebuild);

  IncrementalEvaluator full(catalog, params, EvalMode::kFull);
  full.advance(reference_store, kT0 - 100 * kDay);
  expect_same_plan(full.plan(), inc.plan());
}

TEST(IncrementalEvaluator, PlanPatchingMovesUsersAcrossGroups) {
  const ActivityCatalog catalog = ActivityCatalog::paper_default();
  const EvaluationParams params = params_for(
      30, StaleHandling::kClampOldest, ExponentScheme::kPaperExponent);
  // Random background population, except user 7 who starts fresh (so the
  // burst below provably flips their group).
  ActivityStore store(80, 2);
  ActivityStore mirror(80, 2);
  util::Rng rng(9);
  for (trace::UserId u = 0; u < 80; ++u) {
    if (u == 7) continue;
    const int events = static_cast<int>(rng.uniform_int(0, 8));
    for (int e = 0; e < events; ++e) {
      const Activity a{
          kT0 - static_cast<util::Duration>(rng.uniform(0, 700) * kDay),
          rng.uniform(0.1, 50.0)};
      const ActivityTypeId type = rng.uniform() < 0.7 ? 0 : 1;
      store.add(u, type, a);
      mirror.add(u, type, a);
    }
  }
  store.sort_all();
  IncrementalEvaluator inc(catalog, params, EvalMode::kIncremental);
  inc.advance(store, kT0);
  EXPECT_EQ(inc.plan().group_of(7), UserGroup::kBothInactive);  // fresh

  // A dense recent burst flips user 7 to operation-active.
  std::vector<Activity> burst;
  for (int e = 0; e < 40; ++e) {
    burst.push_back(Activity{kT0 + e * (kDay / 2), 10.0 + e});
  }
  for (const Activity& a : burst) {
    store.append(7, 0, a);
    mirror.add(7, 0, a);
  }
  const AdvanceStats stats = inc.advance(store, kT0 + 25 * kDay);
  EXPECT_FALSE(stats.full_rebuild);
  EXPECT_TRUE(inc.users()[7].op.active());
  EXPECT_EQ(inc.plan().group_of(7), UserGroup::kOperationActiveOnly);

  IncrementalEvaluator full(catalog, params, EvalMode::kFull);
  full.advance(mirror, kT0 + 25 * kDay);
  expect_same_plan(full.plan(), inc.plan());
}

TEST(IncrementalEvaluator, DefaultModeAdvancesIncrementally) {
  const ActivityCatalog catalog = ActivityCatalog::paper_default();
  const EvaluationParams params = params_for(
      90, StaleHandling::kClampOldest, ExponentScheme::kPaperExponent);
  ActivityStore store = random_store(3, 40);
  IncrementalEvaluator pipeline(catalog, params);  // default: kIncremental
  const AdvanceStats first = pipeline.advance(store, kT0);
  EXPECT_TRUE(first.full_rebuild);
  const AdvanceStats second = pipeline.advance(store, kT0 + 7 * kDay);
  EXPECT_FALSE(second.full_rebuild);
  EXPECT_GT(second.users_skipped, 0u);
}

TEST(IncrementalEvaluator, SustainedChurnStaysOnTheDeltaPathAndMatchesFull) {
  // A storm holding the delta set at the rebuild threshold (6 of 8 users
  // dirty) trigger after trigger: the default pipeline never falls back to
  // full rebuilds, and still ranks and plans exactly like kFull.
  const ActivityCatalog catalog = ActivityCatalog::paper_default();
  const EvaluationParams params = params_for(
      90, StaleHandling::kClampOldest, ExponentScheme::kPaperExponent);
  constexpr std::size_t kUsers = 8;
  ActivityStore store(kUsers, 2);
  ActivityStore mirror(kUsers, 2);
  for (trace::UserId u = 0; u < kUsers; ++u) {
    store.add(u, 0, Activity{kT0 - 30 * kDay, 5.0});
    mirror.add(u, 0, Activity{kT0 - 30 * kDay, 5.0});
  }
  store.sort_all();
  mirror.sort_all();

  IncrementalEvaluator pipeline(catalog, params);  // default: kIncremental
  IncrementalEvaluator full(catalog, params, EvalMode::kFull);
  util::TimePoint t = kT0;
  EXPECT_TRUE(pipeline.advance(store, t).full_rebuild);
  full.advance(mirror, t);

  for (int i = 0; i < 6; ++i) {
    t += 7 * kDay;
    for (trace::UserId u = 0; u < 6; ++u) {
      store.append(u, 0, Activity{t - kDay, 3.0});
      mirror.append(u, 0, Activity{t - kDay, 3.0});
    }
    const AdvanceStats stats = pipeline.advance(store, t);
    full.advance(mirror, t);
    EXPECT_FALSE(stats.full_rebuild) << "storm advance " << i;
    EXPECT_EQ(stats.users_dirty, 6u) << "storm advance " << i;
    for (std::size_t u = 0; u < kUsers; ++u) {
      expect_same_activeness(full.users()[u], pipeline.users()[u]);
    }
    expect_same_plan(full.plan(), pipeline.plan());
  }
}

TEST(IncrementalEvaluator, CappedWindowStaticGapZeroReevaluatesOnceThenHolds) {
  // A capped user whose zero comes from an empty period inside a 35-day gap
  // (d = 7 days, max_periods = 6). The stable-until instant carries the
  // zero while the newest period still holds the last three activities;
  // once they age out of it (one re-evaluation), the newest period is empty
  // and the zero holds at every later trigger with no further work.
  const ActivityCatalog catalog = ActivityCatalog::paper_default();
  const EvaluationParams params = params_for(
      7, StaleHandling::kClampOldest, ExponentScheme::kPaperExponent, 6);
  ActivityStore store(1, 2);
  ActivityStore mirror(1, 2);
  for (const int age_days : {41, 40, 39, 38, 3, 2, 1}) {
    const Activity a{kT0 - age_days * kDay, 2.0};
    store.add(0, 0, a);
    mirror.add(0, 0, a);
  }
  store.sort_all();
  mirror.sort_all();

  IncrementalEvaluator inc(catalog, params, EvalMode::kIncremental);
  inc.advance(store, kT0);
  EXPECT_TRUE(inc.users()[0].op.zero);  // the gap's empty period zeroes op

  // +3 d: the newest period's oldest activity (3 days old at kT0) is still
  // in its bucket until kT0 + 4 d, so the instant carries the zero. +7 d:
  // it has aged out, so the user is re-evaluated once; the newest period
  // is now empty, and the instant is +∞ at +30 d and +200 d.
  for (const auto& [days, reevaluated] :
       {std::pair{3, 0u}, std::pair{7, 1u}, std::pair{30, 0u},
        std::pair{200, 0u}}) {
    SCOPED_TRACE("at +" + std::to_string(days) + "d");
    const util::TimePoint t = kT0 + days * kDay;
    const AdvanceStats stats = inc.advance(store, t);
    EXPECT_FALSE(stats.full_rebuild);
    EXPECT_EQ(stats.users_reevaluated, reevaluated);
    EXPECT_TRUE(inc.users()[0].op.zero);
    IncrementalEvaluator full(catalog, params, EvalMode::kFull);
    full.advance(mirror, t);
    expect_same_plan(full.plan(), inc.plan());
  }
}

TEST(IncrementalEvaluator, SecondsAccumulatePerInstance) {
  const ActivityCatalog catalog = ActivityCatalog::paper_default();
  const EvaluationParams params = params_for(
      90, StaleHandling::kClampOldest, ExponentScheme::kPaperExponent);
  ActivityStore a = random_store(1, 60);
  ActivityStore b = random_store(2, 60);
  IncrementalEvaluator first(catalog, params);
  IncrementalEvaluator second(catalog, params);
  first.advance(a, kT0);
  EXPECT_GT(first.seconds(), 0.0);
  EXPECT_EQ(second.seconds(), 0.0);  // untouched instance: no bleed-through
  second.advance(b, kT0);
  EXPECT_GT(second.seconds(), 0.0);
}

}  // namespace
}  // namespace adr::activeness
