// Eq. 1–6 by example. The EvaluateStream cases run the production kernel
// (evaluate_stream_indexed) through stream_eval.hpp's prefix-building
// helper; test_evaluator_properties.cpp holds that kernel to a literal walk
// of the equations.

#include "activeness/evaluator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "stream_eval.hpp"

namespace adr::activeness {
namespace {

constexpr util::TimePoint kT0 = 1'600'000'000;

EvaluationParams params_days(int d, util::TimePoint now) {
  EvaluationParams p;
  p.period_length_days = d;
  p.now = now;
  return p;
}

Activity at_days_ago(util::TimePoint now, double days_ago, double impact) {
  return Activity{now - static_cast<util::Duration>(days_ago * 86400.0),
                  impact};
}

TEST(Rank, NoDataIsNeutralInactive) {
  const Rank r = Rank::no_data();
  EXPECT_FALSE(r.active());
  EXPECT_DOUBLE_EQ(r.value(), 1.0);  // §3.4 initial rank
  EXPECT_EQ(r.sort_key(), 0.0L);
}

TEST(Rank, FromValueAndThreshold) {
  EXPECT_TRUE(Rank::from_value(1.0).active());
  EXPECT_TRUE(Rank::from_value(100.0).active());
  EXPECT_FALSE(Rank::from_value(0.99).active());
  EXPECT_FALSE(Rank::from_value(0.0).active());
}

TEST(Rank, ValueClamped) {
  EXPECT_DOUBLE_EQ(Rank::from_value(0.0).value(1e-3, 1e6), 1e-3);
  EXPECT_DOUBLE_EQ(Rank::from_value(1e9).value(0.0, 1e6), 1e6);
  EXPECT_NEAR(Rank::from_value(12.5).value(0.0, 1e6), 12.5, 1e-9);
}

TEST(Rank, ProductSemantics) {
  Rank r = Rank::no_data();
  r *= Rank::from_value(2.0);
  EXPECT_NEAR(r.value(), 2.0, 1e-12);  // neutral absorbed
  r *= Rank::from_value(3.0);
  EXPECT_NEAR(r.value(), 6.0, 1e-12);
  r *= Rank::from_value(0.0);  // zero absorbs
  EXPECT_FALSE(r.active());
  EXPECT_DOUBLE_EQ(r.value(0.0, 1e6), 0.0);
  r *= Rank::from_value(5.0);
  EXPECT_FALSE(r.active());
}

TEST(Rank, OrderingForScan) {
  const Rank zero = Rank::from_value(0.0);
  const Rank small = Rank::from_value(0.5);
  const Rank nodata = Rank::no_data();
  const Rank unit = Rank::from_value(1.0);
  const Rank big = Rank::from_value(10.0);
  EXPECT_LT(zero, small);
  EXPECT_LT(small, nodata);  // no-data sorts as Phi = 1
  EXPECT_LT(small, unit);
  EXPECT_LT(unit, big);
  EXPECT_FALSE(unit < nodata);
  EXPECT_FALSE(nodata < unit);
}

TEST(EvaluateStream, EmptyStreamHasNoData) {
  const Rank r = evaluate_stream({}, params_days(30, kT0));
  EXPECT_FALSE(r.has_data);
  EXPECT_FALSE(r.active());
}

// Hand-computed Eq. 1-5 example:
// d = 10 days, activities at now-29d (impact 3), now-15d (6), now-5d (9).
// m = ceil((t_c - a_0.ts)/d) = ceil(29d/10d) = 3, Avg = 18/3 = 6, periods:
// e=1 (b=0.5), e=2 (b=1), e=3 (b=1.5); Phi = 0.5^1 * 1^2 * 1.5^3 = 1.6875.
TEST(EvaluateStream, MatchesHandComputedExample) {
  const std::vector<Activity> acts{
      at_days_ago(kT0, 29, 3.0),
      at_days_ago(kT0, 15, 6.0),
      at_days_ago(kT0, 5, 9.0),
  };
  const Rank r = evaluate_stream(acts, params_days(10, kT0));
  ASSERT_TRUE(r.has_data);
  EXPECT_FALSE(r.zero);
  EXPECT_NEAR(r.value(), 1.6875, 1e-9);
  EXPECT_TRUE(r.active());
}

TEST(EvaluateStream, EmptyPeriodZeroesRank) {
  // Same as above but with the middle period empty.
  const std::vector<Activity> acts{
      at_days_ago(kT0, 29, 3.0),
      at_days_ago(kT0, 5, 9.0),
  };
  const Rank r = evaluate_stream(acts, params_days(10, kT0));
  ASSERT_TRUE(r.has_data);
  EXPECT_TRUE(r.zero);
  EXPECT_FALSE(r.active());
  EXPECT_DOUBLE_EQ(r.value(0.0, 1e6), 0.0);
}

TEST(EvaluateStream, SingleFreshActivityIsUnitRank) {
  // k = 1 inside the current period: m = 1, b = 1 -> Phi = 1 (active).
  const std::vector<Activity> acts{at_days_ago(kT0, 1.0, 7.0)};
  const Rank r = evaluate_stream(acts, params_days(30, kT0));
  EXPECT_TRUE(r.active());
  EXPECT_NEAR(r.value(), 1.0, 1e-12);
}

TEST(EvaluateStream, SingleStaleActivityIsZeroRank) {
  // Eq. 1 anchors the period count at t_c, so a lone activity several
  // periods back leaves the recent periods empty and the rank zeroes —
  // it must not keep the unit rank its history alone would earn.
  for (double age_days : {50.0, 400.0}) {
    const std::vector<Activity> acts{at_days_ago(kT0, age_days, 7.0)};
    const Rank r = evaluate_stream(acts, params_days(30, kT0));
    EXPECT_FALSE(r.active()) << age_days;
    EXPECT_TRUE(r.zero) << age_days;
  }
}

TEST(EvaluateStream, DropModeExpiresStaleSingletons) {
  EvaluationParams p = params_days(30, kT0);
  p.stale = StaleHandling::kDrop;
  const std::vector<Activity> fresh{at_days_ago(kT0, 10, 7.0)};
  EXPECT_TRUE(evaluate_stream(fresh, p).active());
  const std::vector<Activity> stale{at_days_ago(kT0, 100, 7.0)};
  const Rank r = evaluate_stream(stale, p);
  EXPECT_FALSE(r.active());
  EXPECT_TRUE(r.zero);
}

TEST(EvaluateStream, OldBurstInactiveWhenSpanCoversManyPeriods) {
  // Activities spread over 5 periods but all a year old: with
  // kClampOldest they collapse into period 1, leaving 2..5 empty -> 0.
  std::vector<Activity> acts;
  for (int i = 0; i < 5; ++i) {
    acts.push_back(at_days_ago(kT0, 400 - i * 10, 1.0));
  }
  const Rank r = evaluate_stream(acts, params_days(10, kT0));
  EXPECT_TRUE(r.zero);
  EXPECT_FALSE(r.active());
}

TEST(EvaluateStream, RecentPeriodsWeighMore) {
  // Rising activity (more impact recently) must outrank falling activity
  // with the same multiset of impacts.
  const std::vector<Activity> rising{
      at_days_ago(kT0, 25, 2.0),
      at_days_ago(kT0, 15, 6.0),
      at_days_ago(kT0, 5, 10.0),
  };
  const std::vector<Activity> falling{
      at_days_ago(kT0, 25, 10.0),
      at_days_ago(kT0, 15, 6.0),
      at_days_ago(kT0, 5, 2.0),
  };
  const auto p = params_days(10, kT0);
  const Rank up = evaluate_stream(rising, p);
  const Rank down = evaluate_stream(falling, p);
  EXPECT_GT(up.log_phi, down.log_phi);
  EXPECT_TRUE(up.active());
  EXPECT_FALSE(down.active());  // product < 1 when recent share shrinks
}

TEST(EvaluateStream, UniformSchemeIsOrderInsensitive) {
  // One activity per period (ages chosen so none collide or clamp).
  const std::vector<Activity> rising{
      at_days_ago(kT0, 29, 2.0),
      at_days_ago(kT0, 15, 6.0),
      at_days_ago(kT0, 5, 10.0),
  };
  const std::vector<Activity> falling{
      at_days_ago(kT0, 29, 10.0),
      at_days_ago(kT0, 15, 6.0),
      at_days_ago(kT0, 5, 2.0),
  };
  EvaluationParams p = params_days(10, kT0);
  p.scheme = ExponentScheme::kUniform;
  EXPECT_NEAR(static_cast<double>(evaluate_stream(rising, p).log_phi),
              static_cast<double>(evaluate_stream(falling, p).log_phi), 1e-12);
}

TEST(EvaluateStream, CappedSchemeBetweenUniformAndPaper) {
  std::vector<Activity> acts;
  for (int i = 0; i < 12; ++i) {
    acts.push_back(at_days_ago(kT0, 115 - i * 10, 1.0 + i));
  }
  EvaluationParams paper = params_days(10, kT0);
  EvaluationParams uniform = paper;
  uniform.scheme = ExponentScheme::kUniform;
  EvaluationParams capped = paper;
  capped.scheme = ExponentScheme::kCappedLinear;
  capped.exponent_cap = 4;
  const auto lp = evaluate_stream(acts, paper).log_phi;
  const auto lu = evaluate_stream(acts, uniform).log_phi;
  const auto lc = evaluate_stream(acts, capped).log_phi;
  EXPECT_GT(lp, lc);  // rising impacts: more recency weight, bigger rank
  EXPECT_GT(lc, lu);
}

TEST(EvaluateStream, ZeroTotalImpactIsZeroRank) {
  const std::vector<Activity> acts{at_days_ago(kT0, 5, 0.0),
                                   at_days_ago(kT0, 2, 0.0)};
  const Rank r = evaluate_stream(acts, params_days(10, kT0));
  EXPECT_TRUE(r.has_data);
  EXPECT_TRUE(r.zero);
}

TEST(EvaluateStream, MaxPeriodsCapsWindow) {
  // 100 periods of steady activity; cap at 5 keeps the rank finite and
  // anchored to the recent window.
  std::vector<Activity> acts;
  for (int i = 0; i < 100; ++i) {
    acts.push_back(at_days_ago(kT0, 995 - i * 10, 1.0));
  }
  EvaluationParams p = params_days(10, kT0);
  p.max_periods = 5;
  const Rank r = evaluate_stream(acts, p);
  ASSERT_TRUE(r.has_data);
  EXPECT_FALSE(r.zero);
}

// Builds a stream with exactly two unit-impact activities in each of m
// periods of length d: every b_p == 1, so Phi == 1 exactly.
std::vector<Activity> dense_steady(util::TimePoint now, int m, int d,
                                   double last_impact = 1.0) {
  std::vector<Activity> acts;
  for (int e = 1; e <= m; ++e) {
    const double base = static_cast<double>((m - e) * d);
    const double impact = e == m ? last_impact : 1.0;
    acts.push_back(at_days_ago(now, base + 7.5 * d / 10.0, impact));
    acts.push_back(at_days_ago(now, base + 2.5 * d / 10.0, impact));
  }
  return acts;
}

TEST(EvaluateStream, DenseSteadyActivityIsUnitRank) {
  const Rank r = evaluate_stream(dense_steady(kT0, 6, 10),
                                 params_days(10, kT0));
  EXPECT_TRUE(r.active());
  EXPECT_NEAR(static_cast<double>(r.log_phi), 0.0, 1e-9);
}

TEST(EvaluateStream, SparseSteadyActivityHoldsUnitRank) {
  // One activity per period, all the way up to t_c: with Eq. 1 anchored at
  // t_c the span covers exactly m = 6 periods, every ratio is 1, and the
  // user sits right at the activeness threshold.
  std::vector<Activity> acts;
  for (int i = 0; i < 6; ++i) {
    acts.push_back(at_days_ago(kT0, 55 - i * 10, 1.0));
  }
  const Rank r = evaluate_stream(acts, params_days(10, kT0));
  ASSERT_TRUE(r.has_data);
  EXPECT_TRUE(r.active());
  EXPECT_NEAR(static_cast<double>(r.log_phi), 0.0, 1e-9);
}

TEST(EvaluateStream, IdleTailDropsRankBelowUnit) {
  // Regression for the Eq. 1 anchoring fix: m counts periods back from
  // t_c, not from the user's newest activity. A user with a perfectly
  // steady history who then went idle must not keep the unit rank the
  // history alone would earn — the idle tail adds empty recent periods
  // and drags the rank below 1.
  std::vector<Activity> acts;
  for (int i = 0; i < 4; ++i) {
    acts.push_back(at_days_ago(kT0, 205.0 - i * 10.0, 1.0));
  }
  const Rank r = evaluate_stream(acts, params_days(10, kT0));
  ASSERT_TRUE(r.has_data);
  EXPECT_LT(r.value(0.0, 1e6), 1.0);
  EXPECT_FALSE(r.active());
}

TEST(EvaluateStream, HugeImpactRatiosStayFiniteInLogSpace) {
  // One gigantic recent burst inflates Avg by ~11 orders of magnitude, so
  // every other period's ratio collapses toward 0 and the literal product
  // spans hundreds of orders of magnitude. The log-space representation
  // must stay finite and keep the ordering (a plain double product would
  // underflow to 0 here).
  std::vector<Activity> acts;
  acts.push_back(at_days_ago(kT0, 395, 1.0));
  for (int i = 0; i < 39; ++i) {
    acts.push_back(at_days_ago(kT0, 385 - i * 10, 1.0));
  }
  acts.push_back(at_days_ago(kT0, 1, 1e12));
  const Rank r = evaluate_stream(acts, params_days(10, kT0));
  ASSERT_TRUE(r.has_data);
  EXPECT_FALSE(r.zero);
  EXPECT_TRUE(std::isfinite(static_cast<double>(r.log_phi)));
  // The historical-drag term dominates (Eq. 5 punishes the 40 starved
  // periods harder than it rewards the one huge one): inactive, but with a
  // finite log rank far below any plain-double representation.
  EXPECT_FALSE(r.active());
  EXPECT_LT(r.log_phi, -1000.0L);
  // The clamped linear view bottoms out at the requested floor.
  EXPECT_DOUBLE_EQ(r.value(1e-3, 1e12), 1e-3);

  // Ordering against an even more starved stream is still resolved.
  std::vector<Activity> worse = acts;
  worse.back().impact = 1e15;
  const Rank r2 = evaluate_stream(worse, params_days(10, kT0));
  EXPECT_LT(r2.log_phi, r.log_phi);
}

TEST(Evaluator, CombinesCategoriesPerEq6) {
  ActivityCatalog cat;
  const auto op_a = cat.add({"job", ActivityCategory::kOperation, 1.0});
  const auto op_b = cat.add({"login", ActivityCategory::kOperation, 1.0});
  cat.add({"pub", ActivityCategory::kOutcome, 1.0});

  ActivityStore store(1, cat.size());
  // op_a: steady over 2 periods (Phi = 1); op_b: single activity (Phi = 1);
  // oc: none.
  store.add(0, op_a, at_days_ago(kT0, 15, 2.0));
  store.add(0, op_a, at_days_ago(kT0, 5, 2.0));
  store.add(0, op_b, at_days_ago(kT0, 3, 1.0));
  store.sort_all();

  const Evaluator ev(cat, params_days(10, kT0));
  const UserActiveness ua = ev.evaluate_user(store, 0);
  EXPECT_TRUE(ua.op.active());
  EXPECT_NEAR(ua.op.value(), 1.0, 1e-9);
  EXPECT_FALSE(ua.oc.has_data);
  EXPECT_FALSE(ua.oc.active());
  EXPECT_FALSE(ua.fresh());
}

TEST(Evaluator, FreshUserHasNoData) {
  const auto cat = ActivityCatalog::paper_default();
  ActivityStore store(2, cat.size());
  store.sort_all();
  const Evaluator ev(cat, params_days(30, kT0));
  const UserActiveness ua = ev.evaluate_user(store, 1);
  EXPECT_TRUE(ua.fresh());
  EXPECT_FALSE(ua.op.active());
  EXPECT_FALSE(ua.oc.active());
}

TEST(Evaluator, RequiresFinalizedStore) {
  // The kernel reads the prefix aggregates, which pending add() rows leave
  // stale: evaluating before sort_all() must fail loudly, not rank users
  // from half-built state.
  const auto cat = ActivityCatalog::paper_default();
  ActivityStore store(2, cat.size());
  store.add(0, 0, at_days_ago(kT0, 5, 1.0));
  const Evaluator ev(cat, params_days(10, kT0));
  EXPECT_THROW(ev.evaluate_user(store, 0), std::logic_error);
  EXPECT_THROW(ev.evaluate_all(store), std::logic_error);
  store.sort_all();
  EXPECT_TRUE(ev.evaluate_user(store, 0).op.active());
}

TEST(Evaluator, IgnoresActivitiesAfterNow) {
  const auto cat = ActivityCatalog::paper_default();
  ActivityStore store(1, cat.size());
  // Only activity is in the future relative to the evaluation instant.
  store.add(0, 0, Activity{kT0 + util::days(5), 10.0});
  store.sort_all();
  const Evaluator ev(cat, params_days(10, kT0));
  const UserActiveness ua = ev.evaluate_user(store, 0);
  EXPECT_FALSE(ua.op.has_data);  // trimmed to nothing
}

TEST(Evaluator, EvaluateAllCoversEveryUser) {
  const auto cat = ActivityCatalog::paper_default();
  ActivityStore store(50, cat.size());
  for (trace::UserId u = 0; u < 50; ++u) {
    if (u % 2 == 0) store.add(u, 0, at_days_ago(kT0, 5, 1.0));
  }
  store.sort_all();
  const Evaluator ev(cat, params_days(10, kT0));
  const auto all = ev.evaluate_all(store);
  ASSERT_EQ(all.size(), 50u);
  for (trace::UserId u = 0; u < 50; ++u) {
    EXPECT_EQ(all[u].user, u);
    EXPECT_EQ(all[u].op.has_data, u % 2 == 0);
  }
}

// Property sweep: for every period length, a steady activity stream is
// active and rank exactly 1; doubling recent impact makes it > 1.
class PeriodSweep : public ::testing::TestWithParam<int> {};

TEST_P(PeriodSweep, SteadyUnitAndRisingAboveUnit) {
  const int d = GetParam();
  const auto p = params_days(d, kT0);
  const Rank s = evaluate_stream(dense_steady(kT0, 6, d), p);
  EXPECT_TRUE(s.active());
  EXPECT_NEAR(static_cast<double>(s.log_phi), 0.0, 1e-9);
  // Doubling the newest period's impact lifts the rank above unity.
  const Rank r = evaluate_stream(dense_steady(kT0, 6, d, 2.0), p);
  EXPECT_GT(r.log_phi, s.log_phi);
  EXPECT_TRUE(r.active());
}

INSTANTIATE_TEST_SUITE_P(PaperPeriods, PeriodSweep,
                         ::testing::Values(7, 30, 60, 90));

}  // namespace
}  // namespace adr::activeness
