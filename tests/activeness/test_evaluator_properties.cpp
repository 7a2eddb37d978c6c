// Property-based tests of the activeness evaluation (Eqs. 1-6): invariances
// and orderings that must hold for every period length and scheme, the
// stable-until instant, the production kernel (evaluate_stream_indexed)
// held to a literal walk of the equations, and the block loop
// (Evaluator::evaluate_users) held to per-user evaluation.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "activeness/evaluator.hpp"
#include "obs/metrics.hpp"
#include "stream_eval.hpp"
#include "util/rng.hpp"

namespace adr::activeness {
namespace {

constexpr util::TimePoint kT0 = 1'700'000'000;
constexpr util::Duration kDay = 86'400;
constexpr util::TimePoint kForever =
    std::numeric_limits<util::TimePoint>::max();

/// The oracle: Eqs. 1–5 read literally. m from Eq. 1, every activity
/// bucketed into its period by Eq. 4 in one O(k) walk, then the product of
/// Eqs. 3 and 5 in log space. The production kernel resolves the same
/// periods by binary search over a prefix aggregate instead, newest period
/// first; `WalkingOracle.*` holds the two to the same ranks.
Rank walk_stream(std::span<const Activity> stream,
                 const EvaluationParams& params) {
  if (stream.empty()) return Rank::no_data();

  const util::Duration plen = util::days(params.period_length_days);

  // Eq. 1: number of periods, anchored at t_c (>= 1).
  const util::Duration span_ts = params.now - stream.front().timestamp;
  std::int64_t m = span_ts <= 0 ? 1 : (span_ts + plen - 1) / plen;
  if (m < 1) m = 1;
  if (params.max_periods > 0 && m > params.max_periods) m = params.max_periods;

  // Eq. 2: average activeness per period over all k activities.
  double total = 0.0;
  for (const auto& a : stream) total += a.impact;
  Rank r;
  r.has_data = true;
  if (total <= 0.0) {
    r.zero = true;
    return r;
  }
  // Pigeonhole: fewer activities than periods guarantees an empty period.
  if (m > static_cast<std::int64_t>(stream.size())) {
    r.zero = true;
    return r;
  }
  const double avg = total / static_cast<double>(m);

  // Eq. 4: bucket activities into periods indexed 1..m (m = most recent).
  std::vector<double> period_impact(static_cast<std::size_t>(m) + 1, 0.0);
  for (const auto& a : stream) {
    const util::Duration age = params.now - a.timestamp;
    const std::int64_t c = age <= 0 ? 0 : (age + plen - 1) / plen;
    std::int64_t e = m - c + 1;
    if (e < 1) {  // older than the evaluation window
      if (params.stale == StaleHandling::kDrop) continue;
      e = 1;
    }
    if (e > m) e = m;  // at t_c: newest period
    period_impact[static_cast<std::size_t>(e)] += a.impact;
  }

  // Eq. 3 + Eq. 5 in log space.
  long double log_phi = 0.0L;
  for (std::int64_t e = 1; e <= m; ++e) {
    const double d_pe = period_impact[static_cast<std::size_t>(e)];
    if (d_pe <= 0.0) {
      r.zero = true;
      return r;
    }
    const double b = d_pe / avg;
    double exponent = 1.0;
    switch (params.scheme) {
      case ExponentScheme::kPaperExponent:
        exponent = static_cast<double>(e);
        break;
      case ExponentScheme::kUniform:
        exponent = 1.0;
        break;
      case ExponentScheme::kCappedLinear:
        exponent = static_cast<double>(
            std::min<std::int64_t>(e, params.exponent_cap));
        break;
    }
    log_phi += static_cast<long double>(exponent * std::log(b));
  }
  r.log_phi = log_phi;
  return r;
}

/// A random time-sorted stream of 1-80 activities within ~8 periods of
/// t_c = kT0, shaped to hit the kernel's edges: some land exactly on a
/// period boundary or at t_c, some repeat the previous timestamp, some
/// carry no impact.
std::vector<Activity> random_edge_stream(util::Rng& rng, util::Duration plen) {
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 80));
  const util::Duration horizon =
      static_cast<util::Duration>(rng.uniform_int(1, 8)) * plen;
  std::vector<Activity> acts;
  for (std::size_t i = 0; i < n; ++i) {
    util::TimePoint ts = kT0 - rng.uniform_int(0, horizon);
    const double shape = rng.uniform();
    if (shape < 0.1) {
      ts = kT0 - rng.uniform_int(0, 8) * plen;
    } else if (shape < 0.25 && !acts.empty()) {
      ts = acts.back().timestamp;
    }
    const double impact = rng.bernoulli(0.15) ? 0.0 : rng.uniform(0.1, 50.0);
    acts.push_back(Activity{ts, impact});
  }
  std::stable_sort(acts.begin(), acts.end(),
                   [](const Activity& a, const Activity& b) {
                     return a.timestamp < b.timestamp;
                   });
  return acts;
}

/// Every combination the kernel branches on: both stale modes, no cap and
/// caps that pin m at 1 and above it, the three exponent schemes, and short
/// to long periods.
template <typename Fn>
void for_each_params(Fn&& fn) {
  for (const StaleHandling stale :
       {StaleHandling::kClampOldest, StaleHandling::kDrop}) {
    for (const int cap : {0, 1, 4, 6}) {
      for (const ExponentScheme scheme :
           {ExponentScheme::kPaperExponent, ExponentScheme::kUniform,
            ExponentScheme::kCappedLinear}) {
        for (const int d : {7, 30, 90}) {
          EvaluationParams p;
          p.period_length_days = d;
          p.max_periods = cap;
          p.stale = stale;
          p.scheme = scheme;
          p.exponent_cap = 3;
          p.now = kT0;
          fn(p);
        }
      }
    }
  }
}

struct Case {
  int period_days;
  ExponentScheme scheme;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const char* scheme = "";
  switch (info.param.scheme) {
    case ExponentScheme::kPaperExponent: scheme = "paper"; break;
    case ExponentScheme::kUniform: scheme = "uniform"; break;
    case ExponentScheme::kCappedLinear: scheme = "capped"; break;
  }
  return std::to_string(info.param.period_days) + "d_" + scheme;
}

class EvaluatorProperty : public ::testing::TestWithParam<Case> {
 protected:
  EvaluationParams params() const {
    EvaluationParams p;
    p.period_length_days = GetParam().period_days;
    p.scheme = GetParam().scheme;
    p.now = kT0;
    return p;
  }

  /// A reproducible random activity stream spanning up to two years.
  std::vector<Activity> random_stream(std::uint64_t seed, std::size_t n) {
    util::Rng rng(seed);
    std::vector<Activity> acts;
    for (std::size_t i = 0; i < n; ++i) {
      acts.push_back(Activity{
          kT0 - static_cast<util::Duration>(rng.uniform(0, 730) * 86400),
          rng.uniform(0.1, 100.0)});
    }
    std::sort(acts.begin(), acts.end(),
              [](const Activity& a, const Activity& b) {
                return a.timestamp < b.timestamp;
              });
    return acts;
  }
};

TEST_P(EvaluatorProperty, ImpactScaleInvariance) {
  // Eq. 3 normalizes per-period impact by the per-period average, so
  // multiplying every impact by a constant must not change the rank. This
  // also means per-type weights cancel out of Φλ entirely — documented in
  // DESIGN.md.
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    auto acts = random_stream(seed, 40);
    const Rank base = evaluate_stream(acts, params());
    for (auto& a : acts) a.impact *= 1000.0;
    const Rank scaled = evaluate_stream(acts, params());
    EXPECT_EQ(base.zero, scaled.zero);
    if (!base.zero) {
      EXPECT_NEAR(static_cast<double>(base.log_phi),
                  static_cast<double>(scaled.log_phi), 1e-9);
    }
  }
}

TEST_P(EvaluatorProperty, TimeShiftInvariance) {
  // Shifting all timestamps and t_c by the same delta preserves the rank.
  for (std::uint64_t seed : {5u, 6u, 7u}) {
    const auto acts = random_stream(seed, 30);
    const Rank base = evaluate_stream(acts, params());

    const util::Duration delta = util::days(123) + 4567;
    std::vector<Activity> shifted = acts;
    for (auto& a : shifted) a.timestamp += delta;
    EvaluationParams p = params();
    p.now += delta;
    const Rank moved = evaluate_stream(shifted, p);

    EXPECT_EQ(base.zero, moved.zero);
    if (!base.zero) {
      EXPECT_NEAR(static_cast<double>(base.log_phi),
                  static_cast<double>(moved.log_phi), 1e-9);
    }
  }
}

TEST_P(EvaluatorProperty, WithinPeriodTimingIrrelevant) {
  // Only the period an activity falls in matters, not where inside it.
  const int d = GetParam().period_days;
  std::vector<Activity> early, late;
  for (int e = 0; e < 4; ++e) {
    const double base_age = (3 - e) * d;
    early.push_back(Activity{
        kT0 - static_cast<util::Duration>((base_age + 0.9 * d) * 86400),
        5.0 + e});
    late.push_back(Activity{
        kT0 - static_cast<util::Duration>((base_age + 0.1 * d) * 86400),
        5.0 + e});
  }
  std::sort(early.begin(), early.end(),
            [](const Activity& a, const Activity& b) {
              return a.timestamp < b.timestamp;
            });
  std::sort(late.begin(), late.end(),
            [](const Activity& a, const Activity& b) {
              return a.timestamp < b.timestamp;
            });
  const Rank a = evaluate_stream(early, params());
  const Rank b = evaluate_stream(late, params());
  // Both span the same number of periods with the same per-period impact.
  EXPECT_EQ(a.zero, b.zero);
  if (!a.zero) {
    EXPECT_NEAR(static_cast<double>(a.log_phi),
                static_cast<double>(b.log_phi), 1e-9);
  }
}

TEST_P(EvaluatorProperty, AscendingArrangementMaximizesPaperRank) {
  // Rearrangement inequality: with the paper exponent, assigning the larger
  // per-period impacts to the more recent periods maximizes log Φ over all
  // permutations of the same impact multiset.
  if (GetParam().scheme != ExponentScheme::kPaperExponent) {
    GTEST_SKIP() << "arrangement only matters for recency-weighted schemes";
  }
  const int d = GetParam().period_days;
  const std::vector<double> impacts{1.0, 3.0, 7.0, 20.0, 55.0};

  auto rank_for = [&](const std::vector<double>& per_period) {
    std::vector<Activity> acts;
    const int m = static_cast<int>(per_period.size());
    for (int e = 0; e < m; ++e) {
      // One activity per period; the oldest sits deeper into its period so
      // the span rounds up to exactly m periods (no bucket collisions).
      const double age_days =
          (m - 1 - e) * d + (e == 0 ? 0.7 : 0.5) * d;
      acts.push_back(Activity{
          kT0 - static_cast<util::Duration>(age_days * 86400),
          per_period[static_cast<std::size_t>(e)]});
    }
    std::sort(acts.begin(), acts.end(),
              [](const Activity& a, const Activity& b) {
                return a.timestamp < b.timestamp;
              });
    return evaluate_stream(acts, params());
  };

  const Rank best = rank_for(impacts);  // ascending = recent-heavy
  std::vector<double> perm = impacts;
  std::sort(perm.begin(), perm.end());
  int checked = 0;
  do {
    const Rank r = rank_for(perm);
    ASSERT_FALSE(r.zero);
    EXPECT_LE(r.log_phi, best.log_phi + 1e-9L);
    ++checked;
  } while (std::next_permutation(perm.begin(), perm.end()) && checked < 120);
}

TEST_P(EvaluatorProperty, EvaluateAllMatchesPerUser) {
  const auto catalog = ActivityCatalog::paper_default();
  ActivityStore store(40, catalog.size());
  util::Rng rng(99);
  for (trace::UserId u = 0; u < 40; ++u) {
    const std::int64_t n = rng.uniform_int(0, 20);
    for (std::int64_t i = 0; i < n; ++i) {
      store.add(u, rng.bounded(2),
                Activity{kT0 - static_cast<util::Duration>(
                                   rng.uniform(0, 500) * 86400),
                         rng.uniform(1.0, 50.0)});
    }
  }
  store.sort_all();
  const Evaluator ev(catalog, params());
  const auto all = ev.evaluate_all(store);
  for (trace::UserId u = 0; u < 40; ++u) {
    const auto single = ev.evaluate_user(store, u);
    EXPECT_EQ(all[u].op.zero, single.op.zero);
    EXPECT_EQ(all[u].op.has_data, single.op.has_data);
    EXPECT_EQ(static_cast<double>(all[u].op.log_phi),
              static_cast<double>(single.op.log_phi));
    EXPECT_EQ(all[u].last_activity, single.last_activity);
  }
}

TEST_P(EvaluatorProperty, ActivityAtNowCountsAsNewest) {
  // Boundary: an activity exactly at t_c lands in period m, not beyond it.
  std::vector<Activity> acts{
      Activity{kT0 - util::days(GetParam().period_days) - 10, 3.0},
      Activity{kT0, 3.0},
  };
  const Rank r = evaluate_stream(acts, params());
  EXPECT_TRUE(r.has_data);
  EXPECT_FALSE(r.zero);  // both periods populated
}

void expect_same_rank(const Rank& a, const Rank& b) {
  EXPECT_EQ(a.has_data, b.has_data);
  EXPECT_EQ(a.zero, b.zero);
  EXPECT_EQ(a.log_phi, b.log_phi);
}

// The stable-until instant (DESIGN.md §9.2): for a fixed trimmed stream the
// indexed evaluation is a function of the activities' age buckets, and the
// instant is the last t_c at which every bucket it reads is unchanged. So
// the rank must come out field for field the same at t_c, at the instant
// itself, and anywhere in between — across both stale modes, caps, the
// three exponent schemes and short to long periods, on random streams with
// equal timestamps, zero impacts and activities on period boundaries. A
// zero whose newest period is empty (last activity before t_c − d) holds
// forever, and must say so.
TEST(StableUntil, RankHoldsFieldForFieldThroughTheInstant) {
  util::Rng rng(0x57ab1e);
  int bounded = 0;
  int stale_zeros = 0;
  for_each_params([&](const EvaluationParams& p) {
    const util::Duration plen = p.period_length_days * kDay;
    for (int trial = 0; trial < 25; ++trial) {
      const std::vector<Activity> acts = random_edge_stream(rng, plen);
      const std::vector<double> prefix = stream_prefix(acts);

      util::TimePoint until = 0;
      const Rank at_now = evaluate_stream_indexed(acts, prefix, p, &until);
      ASSERT_GE(until, p.now);
      if (at_now.zero && acts.back().timestamp < p.now - plen) {
        ++stale_zeros;
        EXPECT_EQ(until, kForever);
      }
      // A rank only new activity can change holds forever; probe it out to
      // ten years.
      const bool forever = until == kForever;
      const util::TimePoint last = forever ? p.now + 3650 * kDay : until;
      if (!forever) ++bounded;
      std::vector<util::TimePoint> probes{last};
      for (int k = 0; k < 20; ++k) {
        probes.push_back(p.now + rng.uniform_int(0, last - p.now));
      }
      for (const util::TimePoint t : probes) {
        SCOPED_TRACE("t_c + " + std::to_string(t - p.now) + " s");
        EvaluationParams later = p;
        later.now = t;
        expect_same_rank(evaluate_stream_indexed(acts, prefix, later), at_now);
      }
    }
  });
  EXPECT_GT(bounded, 0);
  EXPECT_GT(stale_zeros, 0);
}

// One kernel: the production evaluate_stream_indexed against the literal
// walk above, on the same edge-shaped random streams and parameter sweep,
// at t_c and at later instants (where more of each stream has aged out of
// the newest periods). has_data and zero must agree exactly; log Φ may
// differ only by summation order (prefix differences vs per-period sums),
// so it must agree within 1e-12 relative (absolute below |log Φ| = 1).
TEST(WalkingOracle, IndexedKernelMatchesTheWalk) {
  util::Rng rng(0x0dac1e);
  int positive = 0;
  for_each_params([&](const EvaluationParams& p) {
    const util::Duration plen = p.period_length_days * kDay;
    for (int trial = 0; trial < 25; ++trial) {
      const std::vector<Activity> acts = random_edge_stream(rng, plen);
      for (const util::Duration later : {util::Duration{0}, plen / 2, plen,
                                         rng.uniform_int(0, 4 * plen)}) {
        SCOPED_TRACE("t_c + " + std::to_string(later) + " s");
        EvaluationParams q = p;
        q.now = p.now + later;
        const Rank want = walk_stream(acts, q);
        const Rank got = evaluate_stream(acts, q);
        ASSERT_EQ(got.has_data, want.has_data);
        ASSERT_EQ(got.zero, want.zero);
        if (got.zero) continue;
        ++positive;
        const long double scale = std::max(
            {1.0L, std::fabs(want.log_phi), std::fabs(got.log_phi)});
        EXPECT_LE(std::fabs(got.log_phi - want.log_phi), 1e-12L * scale)
            << "walk " << static_cast<double>(want.log_phi) << ", indexed "
            << static_cast<double>(got.log_phi);
      }
    }
  });
  EXPECT_GT(positive, 0);
}

// The block loop behind every delta advance and full evaluation: for any
// subset of users it must write exactly what per-user evaluate_user calls
// return, touch no other slot, and advance the evaluator counters by the
// same totals. The stores mix bulk rows, streaming appends and
// future-dated activities (so both of trim_to_now's paths run), empty
// streams, and two or three types per category; the subsets run from
// empty through one user to everyone, across one block and many.
TEST(EvaluateUsers, MatchesEvaluateUserOnAnySubset) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const auto counters = [&registry] {
    return std::array<std::uint64_t, 3>{
        registry.counter("evaluator.users_evaluated").value(),
        registry.counter("evaluator.zero_ranks").value(),
        registry.counter("evaluator.streams_trimmed").value()};
  };
  util::Rng rng(0xb10c);
  for (int trial = 0; trial < 6; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    ActivityCatalog catalog;
    const auto per_category = [&rng] { return rng.uniform_int(2, 3); };
    for (std::int64_t t = per_category(); t > 0; --t) {
      catalog.add({"op" + std::to_string(t), ActivityCategory::kOperation,
                   1.0});
    }
    for (std::int64_t t = per_category(); t > 0; --t) {
      catalog.add({"oc" + std::to_string(t), ActivityCategory::kOutcome,
                   1.0});
    }
    const std::size_t users =
        static_cast<std::size_t>(rng.uniform_int(150, 700));
    ActivityStore store(users, catalog.size());
    const auto random_activity = [&rng](double future_share) {
      const double days = rng.uniform() < future_share
                              ? -rng.uniform(0, 60)   // after t_c
                              : rng.uniform(0, 400);  // at or before t_c
      return Activity{kT0 - static_cast<util::Duration>(days * kDay),
                      rng.uniform(0.1, 50.0)};
    };
    for (trace::UserId u = 0; u < users; ++u) {
      for (ActivityTypeId t = 0; t < catalog.size(); ++t) {
        if (rng.uniform() < 0.3) continue;  // an empty stream
        for (std::int64_t i = rng.uniform_int(1, 30); i > 0; --i) {
          store.add(u, t, random_activity(0.1));
        }
      }
    }
    store.sort_all();
    for (int i = 0; i < static_cast<int>(users); ++i) {
      store.append(static_cast<trace::UserId>(rng.bounded(users)),
                   rng.bounded(catalog.size()), random_activity(0.2));
    }

    EvaluationParams params;
    params.period_length_days = std::array{7, 30, 90}[rng.bounded(3)];
    params.now = kT0;
    params.max_periods = rng.uniform() < 0.5 ? 0 : 6;
    params.stale =
        rng.uniform() < 0.5 ? StaleHandling::kClampOldest : StaleHandling::kDrop;
    const Evaluator ev(catalog, params);

    std::vector<std::vector<trace::UserId>> subsets(3);
    subsets[1].push_back(static_cast<trace::UserId>(rng.bounded(users)));
    for (trace::UserId u = 0; u < users; ++u) subsets[2].push_back(u);
    for (const double p : {0.05, 0.3, 0.8}) {
      auto& ids = subsets.emplace_back();
      for (trace::UserId u = 0; u < users; ++u) {
        if (rng.uniform() < p) ids.push_back(u);
      }
    }

    for (const auto& ids : subsets) {
      SCOPED_TRACE(std::to_string(ids.size()) + " ids");
      UserActiveness untouched;
      untouched.user = trace::kInvalidUser - 1;
      untouched.last_activity = 12345;
      constexpr util::TimePoint kUntouched = -7;
      std::vector<UserActiveness> out(users, untouched);
      std::vector<util::TimePoint> until(users, kUntouched);

      const auto before = counters();
      ev.evaluate_users(store, ids, out, until);
      const auto after_block = counters();

      // The counters' totals, and the trim to t_c, worked out from the
      // store itself rather than from another evaluation.
      std::array<std::uint64_t, 3> expected{ids.size(), 0, 0};
      std::vector<std::uint8_t> listed(users, 0);
      for (const trace::UserId u : ids) {
        listed[u] = 1;
        util::TimePoint want_until = 0;
        const UserActiveness want = ev.evaluate_user(store, u, &want_until);
        const UserActiveness& got = out[u];
        EXPECT_EQ(got.user, want.user);
        for (const auto& [g, w] : {std::pair{&got.op, &want.op},
                                   std::pair{&got.oc, &want.oc}}) {
          EXPECT_EQ(g->has_data, w->has_data) << "user " << u;
          EXPECT_EQ(g->zero, w->zero) << "user " << u;
          EXPECT_EQ(g->log_phi, w->log_phi) << "user " << u;
          expected[1] += g->zero ? 1 : 0;
        }
        EXPECT_EQ(got.last_activity, want.last_activity) << "user " << u;
        EXPECT_EQ(until[u], want_until) << "user " << u;

        util::TimePoint last = std::numeric_limits<util::TimePoint>::min();
        for (ActivityTypeId t = 0; t < catalog.size(); ++t) {
          for (const Activity& a : store.stream(u, t)) {
            if (a.timestamp <= params.now) last = std::max(last, a.timestamp);
          }
          const auto stream = store.stream(u, t);
          if (!stream.empty() && stream.back().timestamp > params.now) {
            ++expected[2];
          }
        }
        EXPECT_EQ(got.last_activity, last) << "user " << u;
      }
      const auto after_single = counters();
      for (std::size_t c = 0; c < before.size(); ++c) {
        EXPECT_EQ(after_block[c] - before[c], expected[c]) << "counter " << c;
        EXPECT_EQ(after_single[c] - after_block[c], expected[c])
            << "counter " << c;
      }
      for (trace::UserId u = 0; u < users; ++u) {
        if (listed[u]) continue;
        EXPECT_EQ(out[u].user, untouched.user) << "user " << u;
        EXPECT_EQ(out[u].last_activity, untouched.last_activity);
        EXPECT_EQ(until[u], kUntouched) << "user " << u;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EvaluatorProperty,
    ::testing::Values(Case{7, ExponentScheme::kPaperExponent},
                      Case{30, ExponentScheme::kPaperExponent},
                      Case{90, ExponentScheme::kPaperExponent},
                      Case{30, ExponentScheme::kUniform},
                      Case{30, ExponentScheme::kCappedLinear},
                      Case{90, ExponentScheme::kUniform}),
    case_name);

}  // namespace
}  // namespace adr::activeness
