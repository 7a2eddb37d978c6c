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

void expect_same_plan(const ScanPlan& a, const ScanPlan& b) {
  for (std::size_t g = 0; g < kGroupCount; ++g) {
    ASSERT_EQ(a.groups[g].size(), b.groups[g].size()) << "group " << g;
    for (std::size_t i = 0; i < a.groups[g].size(); ++i) {
      EXPECT_EQ(a.groups[g][i].user, b.groups[g][i].user)
          << "group " << g << " position " << i;
      expect_same_activeness(a.groups[g][i], b.groups[g][i]);
    }
  }
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

EvaluationParams params_for(int period_days, StaleHandling stale,
                            ExponentScheme scheme, int max_periods = 0) {
  EvaluationParams p;
  p.period_length_days = period_days;
  p.stale = stale;
  p.scheme = scheme;
  p.max_periods = max_periods;
  return p;
}

TEST(EvalMode, ParseAndFormat) {
  EvalMode mode = EvalMode::kFull;
  EXPECT_TRUE(parse_eval_mode("auto", mode));
  EXPECT_EQ(mode, EvalMode::kAuto);
  EXPECT_TRUE(parse_eval_mode("full", mode));
  EXPECT_EQ(mode, EvalMode::kFull);
  EXPECT_TRUE(parse_eval_mode("incremental", mode));
  EXPECT_EQ(mode, EvalMode::kIncremental);
  EXPECT_FALSE(parse_eval_mode("turbo", mode));
  EXPECT_STREQ(to_string(EvalMode::kAuto), "auto");
  EXPECT_STREQ(to_string(EvalMode::kFull), "full");
  EXPECT_STREQ(to_string(EvalMode::kIncremental), "incremental");
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
          EXPECT_EQ(full.groups()[u], inc.groups()[u]);
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
// backwards-time jumps that force rebuilds. kAuto and pinned kIncremental
// must both match kFull in users, groups and plan order at every trigger,
// and a dry-run purge to a byte target must then name the same victims in
// the same order (the list depends on scan order, not just the victim set).
TEST(IncrementalEvaluator, MatchesFullAcrossAppendsJumpsAndVictimLists) {
  const ActivityCatalog catalog = ActivityCatalog::paper_default();
  constexpr std::size_t kUsers = 80;
  const trace::UserRegistry registry =
      trace::UserRegistry::with_synthetic_users(kUsers);
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const EvaluationParams params = params_for(
        seed % 2 == 0 ? 30 : 90,
        seed % 3 == 0 ? StaleHandling::kDrop : StaleHandling::kClampOldest,
        ExponentScheme::kPaperExponent, seed % 3 == 0 ? 5 : 0);
    ActivityStore store_full = random_store(seed, kUsers);
    ActivityStore store_auto = random_store(seed, kUsers);
    ActivityStore store_inc = random_store(seed, kUsers);
    IncrementalEvaluator full(catalog, params, EvalMode::kFull);
    IncrementalEvaluator automatic(catalog, params, EvalMode::kAuto);
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
        store_auto.append(user, type, a);
        store_inc.append(user, type, a);
      }
      full.advance(store_full, t);
      automatic.advance(store_auto, t);
      inc.advance(store_inc, t);
      for (const IncrementalEvaluator* pipeline : {&automatic, &inc}) {
        ASSERT_EQ(pipeline->users().size(), kUsers);
        for (std::size_t u = 0; u < kUsers; ++u) {
          expect_same_activeness(full.users()[u], pipeline->users()[u]);
          EXPECT_EQ(full.groups()[u], pipeline->groups()[u]);
        }
        expect_same_plan(full.plan(), pipeline->plan());
      }
    }

    fs::Vfs vfs_full, vfs_auto, vfs_inc;
    util::Rng files(seed ^ 0xabc);
    for (trace::UserId u = 0; u < kUsers; ++u) {
      for (int f = 0; f < 2; ++f) {
        fs::FileMeta meta;
        meta.owner = u;
        meta.size_bytes =
            64 + static_cast<std::uint64_t>(files.uniform_int(0, 100));
        meta.atime =
            t - static_cast<util::Duration>(files.uniform_int(0, 400)) * kDay;
        meta.ctime = meta.atime;
        const std::string path =
            registry.home_dir(u) + "/f" + std::to_string(f);
        vfs_full.create(path, meta);
        vfs_auto.create(path, meta);
        vfs_inc.create(path, meta);
      }
    }
    retention::ActiveDrConfig config;
    config.dry_run = true;
    const retention::ActiveDrPolicy policy(config, registry);
    const std::uint64_t target = vfs_full.total_bytes() / 3;
    const auto want = policy.run(vfs_full, t, target, full.plan()).victim_paths;
    EXPECT_FALSE(want.empty());
    EXPECT_EQ(policy.run(vfs_auto, t, target, automatic.plan()).victim_paths,
              want);
    EXPECT_EQ(policy.run(vfs_inc, t, target, inc.plan()).victim_paths, want);
  }
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

  // Quiet interval: nothing is dirty, nobody needs a re-rank.
  const AdvanceStats third = inc.advance(store, kT0 + 30 * kDay);
  EXPECT_EQ(third.users_dirty, 0u);
  // user 3's single recent activity holds a positive rank, so it cannot be
  // skipped (m grows with t_c); everyone else can.
  EXPECT_EQ(third.users_reevaluated, 1u);
  EXPECT_EQ(third.users_skipped, 9u);
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
  EXPECT_EQ(inc.group_of(7), UserGroup::kBothInactive);  // fresh

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
  EXPECT_EQ(inc.group_of(7), UserGroup::kOperationActiveOnly);

  IncrementalEvaluator full(catalog, params, EvalMode::kFull);
  full.advance(mirror, kT0 + 25 * kDay);
  expect_same_plan(full.plan(), inc.plan());
}

TEST(IncrementalEvaluator, AutoModeBehavesIncrementally) {
  const ActivityCatalog catalog = ActivityCatalog::paper_default();
  const EvaluationParams params = params_for(
      90, StaleHandling::kClampOldest, ExponentScheme::kPaperExponent);
  ActivityStore store = random_store(3, 40);
  IncrementalEvaluator pipeline(catalog, params);  // default: kAuto
  EXPECT_EQ(pipeline.mode(), EvalMode::kAuto);
  const AdvanceStats first = pipeline.advance(store, kT0);
  EXPECT_TRUE(first.full_rebuild);
  const AdvanceStats second = pipeline.advance(store, kT0 + 7 * kDay);
  EXPECT_FALSE(second.full_rebuild);
  EXPECT_GT(second.users_skipped, 0u);
}

TEST(IncrementalEvaluator, AutoModeFallsBackUnderSustainedChurnThenRecovers) {
  const ActivityCatalog catalog = ActivityCatalog::paper_default();
  const EvaluationParams params = params_for(
      90, StaleHandling::kClampOldest, ExponentScheme::kPaperExponent);
  constexpr std::size_t kUsers = 8;
  ActivityStore store(kUsers, 2);
  for (trace::UserId u = 0; u < kUsers; ++u) {
    store.add(u, 0, Activity{kT0 - 30 * kDay, 5.0});
  }
  store.sort_all();

  IncrementalEvaluator pipeline(catalog, params);  // default: kAuto
  util::TimePoint t = kT0;
  AdvanceStats stats = pipeline.advance(store, t);
  EXPECT_TRUE(stats.full_rebuild);
  EXPECT_FALSE(stats.auto_full);

  // Storm: touch 6 of 8 users every trigger, holding the delta set at the
  // rebuild threshold for kFallbackAfter consecutive advances.
  for (int i = 0; i < IncrementalEvaluator::kFallbackAfter; ++i) {
    t += 7 * kDay;
    for (trace::UserId u = 0; u < 6; ++u) {
      store.append(u, 0, Activity{t - kDay, 3.0});
    }
    stats = pipeline.advance(store, t);
    EXPECT_FALSE(stats.full_rebuild) << "delta path during hot streak " << i;
  }
  EXPECT_TRUE(stats.auto_full) << "hysteresis should have tripped";
  EXPECT_TRUE(pipeline.auto_full());

  // Resolved to full: advances rebuild while the storm lasts, and a calm
  // streak (1 of 8 dirty, under the quarter threshold) flips it back.
  for (int i = 0; i < IncrementalEvaluator::kRecoverAfter; ++i) {
    t += 7 * kDay;
    store.append(0, 0, Activity{t - kDay, 1.0});
    stats = pipeline.advance(store, t);
    EXPECT_TRUE(stats.full_rebuild) << "resolved full during calm streak " << i;
    EXPECT_EQ(stats.users_dirty, 1u);
  }
  EXPECT_FALSE(stats.auto_full) << "calm streak should have recovered";
  EXPECT_FALSE(pipeline.auto_full());

  // Next trigger is back on the delta path.
  t += 7 * kDay;
  stats = pipeline.advance(store, t);
  EXPECT_FALSE(stats.full_rebuild);
}

TEST(IncrementalEvaluator, CappedWindowStaticGapFreezesUser) {
  // A max_periods cap used to disable the static-gap certificate outright
  // (the capped window can slide past an old gap), so this user was
  // re-ranked at every trigger forever. The capped variant proves the zero
  // durable when the gap ends at/after ts_{n-1} - (P-4)·d: here a 35-day
  // gap against d = 7 days and P = 6 — the gap's empty period stays inside
  // every future window until the newest activity itself goes stale.
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

  // The first delta advance runs the skip rules once — the newest activity
  // is still inside period 1, the totals are positive, and n >= m, so only
  // the gap certificate can fire — and memoizes the durable skip.
  AdvanceStats stats = inc.advance(store, kT0 + 3 * kDay);
  EXPECT_EQ(stats.users_reevaluated, 0u);
  EXPECT_EQ(stats.users_skipped, 1u);
  EXPECT_EQ(inc.frozen_users(), 1u);

  // The frozen skip holds at every later trigger (> 2·plen beyond the
  // last activity included) without diverging from a full evaluation.
  for (const int days : {7, 30, 200}) {
    const util::TimePoint t = kT0 + days * kDay;
    stats = inc.advance(store, t);
    EXPECT_EQ(stats.users_reevaluated, 0u) << "at +" << days << "d";
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
