#include "activeness/evaluator.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/thread_pool.hpp"

namespace adr::activeness {

double Rank::value(double min_value, double max_value) const {
  if (!has_data) return std::clamp(1.0, min_value, max_value);
  if (zero) return min_value;
  const long double lo = std::log(static_cast<long double>(
      min_value > 0.0 ? min_value : 1e-300));
  const long double hi = std::log(static_cast<long double>(max_value));
  const long double clamped = std::clamp(log_phi, lo, hi);
  const double v = static_cast<double>(std::exp(clamped));
  return std::clamp(v, min_value, max_value);
}

long double Rank::sort_key() const {
  if (!has_data) return 0.0L;  // ln 1
  if (zero) return -std::numeric_limits<long double>::infinity();
  return log_phi;
}

Rank& Rank::operator*=(const Rank& other) {
  if (!other.has_data) return *this;
  if (!has_data) {
    *this = other;
    return *this;
  }
  zero = zero || other.zero;
  // One sticky-zero factor pins the whole product at zero for good.
  sticky_zero = sticky_zero || other.sticky_zero;
  log_phi = zero ? 0.0L : log_phi + other.log_phi;
  return *this;
}

Rank Rank::from_value(double v) {
  Rank r;
  r.has_data = true;
  if (v <= 0.0) {
    r.zero = true;
  } else {
    r.log_phi = std::log(static_cast<long double>(v));
  }
  return r;
}

Rank evaluate_stream(std::span<const Activity> stream,
                     const EvaluationParams& params) {
  if (stream.empty()) return Rank::no_data();

  const util::Duration plen = util::days(params.period_length_days);

  // Eq. 1: number of periods, anchored at t_c (>= 1). Counting from the
  // first activity to *now* — not to the last activity — is what makes an
  // idle tail decay the rank: a user silent for months accrues recent empty
  // periods, while a span-based m would never see them.
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
    r.sticky_zero = true;
    return r;
  }
  // Pigeonhole: fewer activities than periods guarantees an empty period.
  // Structural — m only grows with t_c while the activity count is frozen,
  // so the zero outlives any window shift.
  if (m > static_cast<std::int64_t>(stream.size())) {
    r.zero = true;
    r.sticky_zero = true;
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
    if (e > m) e = m;  // at/after t_c: newest period
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
    // Per-period log in double (the long double accumulator keeps the sum
    // stable): the transcendental is the hot instruction for active users,
    // and a double log is several times cheaper than the x87 one for far
    // more precision than the ranks need.
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

Rank evaluate_stream_indexed(std::span<const Activity> stream,
                             std::span<const double> prefix,
                             const EvaluationParams& params) {
  if (stream.empty()) return Rank::no_data();

  const util::Duration plen = util::days(params.period_length_days);
  const util::Duration span_ts = params.now - stream.front().timestamp;
  std::int64_t m = span_ts <= 0 ? 1 : (span_ts + plen - 1) / plen;
  if (m < 1) m = 1;
  if (params.max_periods > 0 && m > params.max_periods) m = params.max_periods;

  const std::size_t n = stream.size();
  const double total = prefix[n];
  Rank r;
  r.has_data = true;
  if (total <= 0.0) {
    r.zero = true;
    r.sticky_zero = true;
    return r;
  }
  // Pigeonhole: a non-zero product needs every one of the m periods
  // populated, impossible with fewer than m activities. (Holds under both
  // stale modes — clamping folds stale activities into period 1, it never
  // duplicates them.) Structural, hence sticky: m only grows with t_c while
  // the stream is frozen, so this zero persists until new activity arrives.
  if (m > static_cast<std::int64_t>(n)) {
    r.zero = true;
    r.sticky_zero = true;
    return r;
  }

  // idx(j, cap) = first activity with timestamp >= t_c - j*plen. Period
  // e < m covers [idx(m-e+1), idx(m-e)); period m covers [idx(1), n)
  // (activities at t_c were clamped into the newest period by the caller's
  // trim); period 1 reaches down to index 0 under kClampOldest, which folds
  // the stale tail into the oldest period, or to idx(m) under kDrop.
  // Boundaries descend as the walk ages, so each search is bounded by the
  // previous period's low index — the ranges telescope instead of re-probing
  // the whole stream m times.
  const auto idx = [&](std::int64_t j, std::size_t cap) -> std::size_t {
    const util::TimePoint boundary = params.now - j * plen;
    const auto it = std::lower_bound(
        stream.begin(), stream.begin() + static_cast<std::ptrdiff_t>(cap),
        boundary,
        [](const Activity& a, util::TimePoint t) { return a.timestamp < t; });
    return static_cast<std::size_t>(it - stream.begin());
  };

  const double avg = total / static_cast<double>(m);
  long double log_phi = 0.0L;
  std::size_t hi = n;
  // Newest period first: a stream that has gone quiet exits after a single
  // binary search instead of grinding through its whole history.
  for (std::int64_t e = m; e >= 1; --e) {
    const std::size_t lo =
        e > 1 ? idx(m - e + 1, hi)
              : (params.stale == StaleHandling::kDrop ? idx(m, hi) : 0);
    const double d_pe = prefix[hi] - prefix[lo];
    if (d_pe <= 0.0) {
      r.zero = true;
      r.log_phi = 0.0L;
      return r;
    }
    // Same double-log / long-double-accumulate split as evaluate_stream —
    // the two paths must agree to the last bit of their shared math.
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
    hi = lo;
  }
  r.log_phi = log_phi;
  return r;
}

Evaluator::Evaluator(const ActivityCatalog& catalog, EvaluationParams params)
    : catalog_(&catalog),
      params_(params),
      op_types_(catalog.types_in(ActivityCategory::kOperation)),
      oc_types_(catalog.types_in(ActivityCategory::kOutcome)) {}

namespace {

/// Drop activities after t_c — during trace replay the store holds the whole
/// trace, but an evaluation at t_c must only see the past.
std::span<const Activity> trim_to_now(std::span<const Activity> stream,
                                      util::TimePoint now) {
  const auto it = std::upper_bound(
      stream.begin(), stream.end(), now,
      [](util::TimePoint t, const Activity& a) { return t < a.timestamp; });
  return stream.first(static_cast<std::size_t>(it - stream.begin()));
}

obs::Counter& users_evaluated() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("evaluator.users_evaluated");
  return c;
}

obs::Counter& streams_trimmed() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("evaluator.streams_trimmed");
  return c;
}

obs::Counter& zero_ranks() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("evaluator.zero_ranks");
  return c;
}

}  // namespace

UserActiveness Evaluator::evaluate_user(const ActivityStore& store,
                                        trace::UserId user) const {
  UserActiveness ua;
  ua.user = user;
  std::uint64_t trimmed = 0;
  // A finalized store carries prefix-impact aggregates; the indexed
  // evaluation resolves period impacts via boundary binary searches instead
  // of walking every activity.
  const bool indexed = store.finalized();
  const auto eval_category = [&](std::span<const ActivityTypeId> types,
                                 Rank& rank) {
    for (const ActivityTypeId t : types) {
      const auto full = store.stream(user, t);
      const auto stream = trim_to_now(full, params_.now);
      if (stream.size() < full.size()) ++trimmed;
      if (!stream.empty()) {
        ua.last_activity = std::max(ua.last_activity, stream.back().timestamp);
      }
      if (indexed) {
        rank *= evaluate_stream_indexed(
            stream, store.prefix(user, t).first(stream.size() + 1), params_);
      } else {
        rank *= evaluate_stream(stream, params_);
      }
    }
  };
  eval_category(op_types_, ua.op);
  eval_category(oc_types_, ua.oc);
  users_evaluated().add();
  if (trimmed > 0) streams_trimmed().add(trimmed);
  if (ua.op.zero) zero_ranks().add();
  if (ua.oc.zero) zero_ranks().add();
  return ua;
}

std::vector<UserActiveness> Evaluator::evaluate_range(
    const ActivityStore& store, trace::UserId begin, trace::UserId end) const {
  obs::TimerSpan span("evaluator.evaluate_all");
  std::vector<UserActiveness> out(static_cast<std::size_t>(end - begin));
  util::global_pool().parallel_for(0, out.size(), [&](std::size_t i) {
    out[i] = evaluate_user(store, begin + static_cast<trace::UserId>(i));
  });
  return out;
}

std::vector<UserActiveness> Evaluator::evaluate_all(
    const ActivityStore& store) const {
  return evaluate_range(store, 0,
                        static_cast<trace::UserId>(store.user_count()));
}

}  // namespace adr::activeness
