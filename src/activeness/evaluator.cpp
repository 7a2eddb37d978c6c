#include "activeness/evaluator.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

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

Rank evaluate_stream_indexed(std::span<const Activity> stream,
                             std::span<const double> prefix,
                             const EvaluationParams& params,
                             util::TimePoint* stable_until) {
  constexpr util::TimePoint kForever =
      std::numeric_limits<util::TimePoint>::max();
  // The last t_c at which every age bucket the result reads is unchanged.
  util::TimePoint until = kForever;
  const auto finish = [&](const Rank& r) {
    if (stable_until != nullptr) *stable_until = until;
    return r;
  };
  if (stream.empty()) return finish(Rank::no_data());

  const util::Duration plen = util::days(params.period_length_days);
  // Eq. 1: number of periods, anchored at t_c (>= 1). Counting from the
  // first activity to *now* — not to the last activity — is what makes an
  // idle tail decay the rank: a user silent for months accrues recent empty
  // periods, while a span-based m would never see them.
  const util::Duration span_ts = params.now - stream.front().timestamp;
  std::int64_t m = span_ts <= 0 ? 1 : (span_ts + plen - 1) / plen;
  if (m < 1) m = 1;
  // m reads a_0's bucket c_0 = m until the cap pins it for good.
  const bool pinned = params.max_periods > 0 && m >= params.max_periods;
  const util::TimePoint m_until = stream.front().timestamp + m * plen;
  if (params.max_periods > 0 && m > params.max_periods) m = params.max_periods;

  const std::size_t n = stream.size();
  const double total = prefix[n];
  Rank r;
  r.has_data = true;
  // Zero total impact: the totals are frozen, so this zero holds until new
  // activity arrives.
  if (total <= 0.0) {
    r.zero = true;
    return finish(r);
  }
  // Pigeonhole: a non-zero product needs every one of the m periods
  // populated, impossible with fewer than m activities. (Holds under both
  // stale modes — clamping folds stale activities into period 1, it never
  // duplicates them.) m only grows with t_c while the stream is frozen, so
  // this zero too holds until new activity arrives.
  if (m > static_cast<std::int64_t>(n)) {
    r.zero = true;
    return finish(r);
  }
  if (!pinned) until = m_until;

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
    const bool clamped_tail =
        e == 1 && params.stale == StaleHandling::kClampOldest;
    const std::size_t lo =
        e > 1 ? idx(m - e + 1, hi)
              : (params.stale == StaleHandling::kDrop ? idx(m, hi) : 0);
    // The period's lower edge is its oldest activity, in bucket m − e + 1:
    // it moves once that activity ages past ts + (m − e + 1)·d. The upper
    // edge is the next-newer period's lower edge, already bounded (or n,
    // which only new activity moves). Index 0 of the clamped tail is fixed.
    if (lo < hi && !clamped_tail) {
      until = std::min(until, stream[lo].timestamp + (m - e + 1) * plen);
    }
    const double d_pe = prefix[hi] - prefix[lo];
    if (d_pe <= 0.0) {
      // An empty newest period (every activity predates t_c − d) stays
      // empty at every later t_c: the newest period then holds a subset of
      // this one. The zero holds until new activity arrives. (The clamped
      // tail of m = 1 is never empty, so the test cannot fire there.)
      if (e == m && lo == n) until = kForever;
      r.zero = true;
      r.log_phi = 0.0L;
      return finish(r);
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
    hi = lo;
  }
  r.log_phi = log_phi;
  return finish(r);
}

Evaluator::Evaluator(const ActivityCatalog& catalog, EvaluationParams params)
    : catalog_(&catalog),
      params_(params),
      op_types_(catalog.types_in(ActivityCategory::kOperation)),
      oc_types_(catalog.types_in(ActivityCategory::kOutcome)) {}

namespace {

/// Drop activities after t_c — during trace replay the store holds the whole
/// trace, but an evaluation at t_c must only see the past. A live-append
/// store never holds activity after t_c, so a stream that ends at or before
/// it is returned as it is, without the search.
std::span<const Activity> trim_to_now(std::span<const Activity> stream,
                                      util::TimePoint now) {
  if (stream.empty() || stream.back().timestamp <= now) return stream;
  const auto it = std::upper_bound(
      stream.begin(), stream.end(), now,
      [](util::TimePoint t, const Activity& a) { return t < a.timestamp; });
  return stream.first(static_cast<std::size_t>(it - stream.begin()));
}

/// The kernel reads the prefix aggregates, which only a finalized store
/// keeps consistent with its streams.
void require_finalized(const ActivityStore& store) {
  if (!store.finalized()) {
    throw std::logic_error(
        "Evaluator: store has unsorted add() rows; call sort_all() first");
  }
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

// Each registry counter is one atomic shared by every pool thread; bumping
// it per user made the threads contend on its cache line.
struct Evaluator::Tally {
  std::uint64_t users = 0;
  std::uint64_t zeros = 0;
  std::uint64_t trimmed = 0;

  void flush() const {
    users_evaluated().add(users);
    if (trimmed > 0) streams_trimmed().add(trimmed);
    if (zeros > 0) zero_ranks().add(zeros);
  }
};

UserActiveness Evaluator::evaluate_one(const ActivityStore& store,
                                       trace::UserId user,
                                       util::TimePoint& stable_until,
                                       Tally& tally) const {
  UserActiveness ua;
  ua.user = user;
  stable_until = std::numeric_limits<util::TimePoint>::max();
  const auto eval_category = [&](std::span<const ActivityTypeId> types,
                                 Rank& rank) {
    for (const ActivityTypeId t : types) {
      const auto full = store.stream(user, t);
      const auto stream = trim_to_now(full, params_.now);
      if (stream.size() < full.size()) ++tally.trimmed;
      if (!stream.empty()) {
        ua.last_activity = std::max(ua.last_activity, stream.back().timestamp);
      }
      util::TimePoint stream_until = 0;
      rank *= evaluate_stream_indexed(
          stream, store.prefix(user, t).first(stream.size() + 1), params_,
          &stream_until);
      stable_until = std::min(stable_until, stream_until);
    }
  };
  eval_category(op_types_, ua.op);
  eval_category(oc_types_, ua.oc);
  ++tally.users;
  tally.zeros += static_cast<std::uint64_t>(ua.op.zero) +
                 static_cast<std::uint64_t>(ua.oc.zero);
  return ua;
}

UserActiveness Evaluator::evaluate_user(const ActivityStore& store,
                                        trace::UserId user,
                                        util::TimePoint* stable_until) const {
  require_finalized(store);
  Tally tally;
  util::TimePoint until = 0;
  const UserActiveness ua = evaluate_one(store, user, until, tally);
  tally.flush();
  if (stable_until != nullptr) *stable_until = until;
  return ua;
}

void Evaluator::evaluate_users(const ActivityStore& store,
                               std::span<const trace::UserId> ids,
                               std::span<UserActiveness> out,
                               std::span<util::TimePoint> stable_until) const {
  require_finalized(store);
  const std::size_t n = ids.size();
  if (n == 0) return;
  util::ThreadPool& pool = util::global_pool();
  const std::size_t threads = pool.size() + 1;  // the caller participates
  const std::size_t blocks = std::clamp<std::size_t>(
      n / kMinBlockUsers, 1, threads * kBlocksPerThread);
  const auto run_block = [&](std::size_t b) {
    const std::size_t hi = n * (b + 1) / blocks;
    Tally tally;
    for (std::size_t i = n * b / blocks; i < hi; ++i) {
      if (i + kPrefetchAhead < hi) store.prefetch(ids[i + kPrefetchAhead]);
      const trace::UserId u = ids[i];
      out[u] = evaluate_one(store, u, stable_until[u], tally);
    }
    tally.flush();
  };
  // Distinct ids, so the blocks write distinct slots.
  if (blocks == 1) {
    run_block(0);
  } else {
    pool.parallel_for(0, blocks, run_block, /*grain=*/1);
  }
}

std::vector<UserActiveness> Evaluator::evaluate_all(
    const ActivityStore& store,
    std::vector<util::TimePoint>* stable_until) const {
  require_finalized(store);
  obs::TimerSpan span("evaluator.evaluate_all");
  std::vector<UserActiveness> out(store.user_count());
  std::vector<trace::UserId> ids(out.size());
  std::iota(ids.begin(), ids.end(), trace::UserId{0});
  std::vector<util::TimePoint> unwanted;
  std::vector<util::TimePoint>& until =
      stable_until != nullptr ? *stable_until : unwanted;
  until.resize(out.size());
  evaluate_users(store, ids, out, until);
  return out;
}

}  // namespace adr::activeness
