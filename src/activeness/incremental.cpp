#include "activeness/incremental.hpp"

#include <algorithm>
#include <chrono>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/thread_pool.hpp"

namespace adr::activeness {

namespace {

obs::Counter& advances_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("incremental.advances");
  return c;
}

obs::Counter& full_rebuilds_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("incremental.full_rebuilds");
  return c;
}

obs::Counter& users_dirty_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("incremental.users_dirty");
  return c;
}

obs::Counter& users_reevaluated_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("incremental.users_reevaluated");
  return c;
}

obs::Counter& users_skipped_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("incremental.users_skipped");
  return c;
}

}  // namespace

IncrementalEvaluator::IncrementalEvaluator(const ActivityCatalog& catalog,
                                           EvaluationParams base_params,
                                           EvalMode mode)
    : catalog_(&catalog), base_params_(base_params), mode_(mode) {}

bool IncrementalEvaluator::skippable(const ActivityStore& store,
                                     const UserActiveness& ua,
                                     util::TimePoint now,
                                     bool& durable) const {
  durable = true;
  // No data at all: stays a fresh account until an activity surfaces (and
  // that would have put the user in the delta set).
  if (ua.fresh()) return true;
  const util::Duration plen = util::days(base_params_.period_length_days);

  enum Cert { kNo, kDurable, kTransient };

  // Does `type`'s stream provably evaluate to Φ = 0 at `now`? The stream is
  // unchanged since the cached evaluation (the user is not in the delta
  // set), so each certificate needs only the store's aggregates:
  //  * pigeonhole: m > n — m never shrinks while n is frozen;
  //  * zero total impact: the prefix sum is frozen;
  //  * stale newest period: the last activity strictly predates now − d
  //    (equality lands *inside* the newest period — boundaries are
  //    left-closed);
  //  * static gap: a gap > 2d between consecutive activities contains a
  //    full boundary-aligned period for ANY t_c — the grid has spacing d,
  //    so (ts_i, ts_{i+1} − d] is longer than d and holds a grid point b,
  //    and [b, b + d) ⊂ the gap is empty. Durable as-is when the window is
  //    unbounded; under a max_periods cap P the capped window [t' − P·d, t')
  //    can slide past the gap, EXCEPT when the gap ends recently enough:
  //      ts_{i+1} ≥ ts_{n−1} − (P−4)·d        (P ≥ 4)
  //    Then for every t' up to ts_{n−1} + d the interval of admissible grid
  //    points (max(ts_i, t' − (P−1)·d), ts_{i+1} − d] keeps length ≥ d (so
  //    it holds a grid point and an empty period at depth e ≥ 2, clear of
  //    the kClampOldest tail), and for every later t' the newest period
  //    [t' − d, t') itself is empty because ts_{n−1} has gone stale — the
  //    zero persists at every future trigger (full derivation: DESIGN.md
  //    §9.2). Gaps ending earlier than that stay transient while the window
  //    is uncapped and certify nothing once the cap engages.
  // All but the gap rule are monotone in t_c (m only grows, totals are
  // frozen, the newest activity only recedes), so they persist at every
  // later trigger; the gap rule is monotone exactly in the cases above.
  const auto frozen_zero_type = [&](ActivityTypeId type) -> Cert {
    const auto full = store.stream(ua.user, type);
    const auto it = std::upper_bound(
        full.begin(), full.end(), now,
        [](util::TimePoint t, const Activity& a) { return t < a.timestamp; });
    const auto n = static_cast<std::size_t>(it - full.begin());
    if (n == 0) return kNo;  // no-data factor: neutral, pins nothing
    const util::Duration span = now - full.front().timestamp;
    std::int64_t m = span <= 0 ? 1 : (span + plen - 1) / plen;
    if (m < 1) m = 1;
    const bool capped =
        base_params_.max_periods > 0 && m > base_params_.max_periods;
    if (capped) m = base_params_.max_periods;
    if (m > static_cast<std::int64_t>(n)) return kDurable;
    if (store.prefix(ua.user, type)[n] <= 0.0) return kDurable;
    if (full[n - 1].timestamp < now - plen) return kDurable;
    if (store.max_gap_prefix(ua.user, type)[n] > 2 * plen) {
      if (base_params_.max_periods <= 0) return kDurable;
      const std::int64_t cap = base_params_.max_periods;
      if (cap >= 4) {
        // Find the widest-reaching recent gap: any consecutive pair with
        // its right end at/after the cutoff and a gap > 2d certifies.
        const util::TimePoint cutoff =
            full[n - 1].timestamp - (cap - 4) * plen;
        const auto lo = std::lower_bound(
            full.begin(), full.begin() + static_cast<std::ptrdiff_t>(n),
            cutoff, [](const Activity& a, util::TimePoint t) {
              return a.timestamp < t;
            });
        std::size_t i = static_cast<std::size_t>(lo - full.begin());
        if (i == 0) i = 1;  // pairs need a left neighbour
        for (; i < n; ++i) {
          if (full[i].timestamp - full[i - 1].timestamp > 2 * plen)
            return kDurable;
        }
      }
      if (!capped) return kTransient;  // holds at this t_c; cap may bite
    }
    return kNo;
  };

  // Per category (each must hold): the cached Φ = 0 persists if ANY
  // contributing stream stays at zero — one zero factor absorbs the whole
  // product, pinning log_phi at 0 exactly as a recompute would.
  // last_activity is unchanged by construction, so the skipped
  // UserActiveness is rank-identical to a full re-evaluation. A positive
  // rank certifies nothing here and returns at once; advance() carries it
  // with the stable-until instant instead.
  const auto frozen = [&](const Rank& r, std::span<const ActivityTypeId> types) {
    if (!r.has_data) return true;
    if (!r.zero) return false;
    if (r.sticky_zero) return true;  // structural, no stream checks needed
    Cert best = kNo;
    for (const ActivityTypeId t : types) {
      const Cert c = frozen_zero_type(t);
      if (c == kDurable) return true;
      if (c == kTransient) best = kTransient;
    }
    if (best == kTransient) {
      durable = false;
      return true;
    }
    return false;
  };
  return frozen(ua.op, op_types_) && frozen(ua.oc, oc_types_);
}

void IncrementalEvaluator::rebuild(ActivityStore& store, util::TimePoint now) {
  op_types_ = catalog_->types_in(ActivityCategory::kOperation);
  oc_types_ = catalog_->types_in(ActivityCategory::kOutcome);
  EvaluationParams params = base_params_;
  params.now = now;
  Evaluator evaluator(*catalog_, params);
  users_ = evaluator.evaluate_all(store, &stable_until_);
  reeval_.clear();
  groups_.resize(users_.size());
  for (std::size_t u = 0; u < users_.size(); ++u) {
    groups_[u] = classify(users_[u]);
  }
  plan_ = build_scan_plan(users_);
  frozen_.assign(users_.size(), 0);
  frozen_count_ = 0;
}

std::size_t IncrementalEvaluator::mark_candidates(ActivityStore& store,
                                                  util::TimePoint now) {
  candidate_flags_.assign(users_.size(), 0);
  for (const trace::UserId u : store.take_dirty()) {
    if (u < candidate_flags_.size()) candidate_flags_[u] = 1;
  }
  for (const auto& [ts, u] : store.chrono_window(last_now_, now)) {
    if (u < candidate_flags_.size()) candidate_flags_[u] = 1;
  }
  std::size_t marked = 0;
  for (const std::uint8_t f : candidate_flags_) marked += f;
  return marked;
}

AdvanceStats IncrementalEvaluator::advance(ActivityStore& store,
                                           util::TimePoint now) {
  const auto wall0 = std::chrono::steady_clock::now();
  obs::TimerSpan span("incremental.advance");
  AdvanceStats stats;

  if (!store.finalized()) store.sort_all();

  // Apply queued concurrent ingest first: the events land in
  // streams/dirty/chrono exactly as direct appends would have, so
  // everything below sees them as ordinary dirty users.
  store.drain_ingest();

  const bool delta = mode_ == EvalMode::kIncremental && evaluated_ &&
                     now >= last_now_ && users_.size() == store.user_count();
  if (!delta) {
    store.take_dirty();  // everyone is re-evaluated: the set is stale
    rebuild(store, now);
    stats.full_rebuild = true;
    stats.users_reevaluated = users_.size();
    full_rebuilds_counter().add();
  } else {
    EvaluationParams params = base_params_;
    params.now = now;
    Evaluator evaluator(*catalog_, params);

    // Delta candidates: streaming appends since the last drain, plus users
    // whose events the advancing trim just revealed (replay stores hold the
    // whole trace up front — time moving forward is what "adds" activity).
    // All the working sets below are instance scratch: the steady-state
    // delta path allocates nothing.
    reeval_.clear();
    stats.users_dirty = mark_candidates(store, now);

    for (std::size_t i = 0; i < users_.size(); ++i) {
      const auto u = static_cast<trace::UserId>(i);
      if (candidate_flags_[i]) {
        if (frozen_[i]) {  // new activity voids any memoized skip
          frozen_[i] = 0;
          --frozen_count_;
        }
        reeval_.push_back(u);
        continue;
      }
      if (frozen_[i]) continue;  // durable skip: holds until dirty
      // The certificates come first so a durable zero is memoized the
      // first time it is seen; skippable() returns at once for a positive
      // rank, which the stable-until instant then carries.
      bool durable = false;
      if (skippable(store, users_[i], now, durable)) {
        if (durable) {
          frozen_[i] = 1;
          ++frozen_count_;
        }
        continue;
      }
      if (now <= stable_until_[i]) continue;  // no bucket it reads moved
      candidate_flags_[i] = 1;  // marks plan entries to splice out below
      reeval_.push_back(u);
    }
    stats.users_reevaluated = reeval_.size();
    stats.users_skipped = users_.size() - reeval_.size();

    // Distinct users, so the parallel writes land in distinct slots.
    util::global_pool().parallel_for(0, reeval_.size(), [&](std::size_t i) {
      const trace::UserId u = reeval_[i];
      users_[u] = evaluator.evaluate_user(store, u, &stable_until_[u]);
    });

    if (reeval_.size() * 2 >= users_.size()) {
      // Near-full delta: sorting from scratch is cheaper than splicing.
      // Same output either way — scan_key_less is a strict total order.
      for (const trace::UserId u : reeval_) groups_[u] = classify(users_[u]);
      plan_ = build_scan_plan(users_);
    } else if (!reeval_.empty()) {
      // Batched splice: sort the incoming users' keys per group, compact
      // each group vector in one pass, then merge from the back in place —
      // O(n + r log r) per trigger instead of r separate O(n) memmoves,
      // and no second record buffer. candidate_flags_ now marks exactly
      // the re-evaluated users (dirty + skip-check failures).
      for (auto& keys : incoming_) keys.clear();
      for (const trace::UserId u : reeval_) {
        const UserGroup g = classify(users_[u]);
        groups_[u] = g;
        incoming_[static_cast<std::size_t>(g)].push_back(
            scan_key(g, users_[u], u));
      }
      for (std::size_t gi = 0; gi < kGroupCount; ++gi) {
        auto& vec = plan_.groups[gi];
        vec.erase(std::remove_if(vec.begin(), vec.end(),
                                 [this](const UserActiveness& x) {
                                   return candidate_flags_[x.user];
                                 }),
                  vec.end());
        auto& in = incoming_[gi];
        if (in.empty()) continue;
        std::sort(in.begin(), in.end(), scan_key_less);
        const auto g = static_cast<UserGroup>(gi);
        std::size_t kept = vec.size();
        std::size_t next = in.size();
        vec.resize(kept + next);
        for (std::size_t w = vec.size(); next > 0;) {
          if (kept > 0 && scan_key_less(in[next - 1],
                                        scan_key(g, vec[kept - 1], 0))) {
            vec[--w] = vec[--kept];
          } else {
            vec[--w] = users_[in[--next].index];
          }
        }
      }
    }
  }

  evaluated_ = true;
  last_now_ = now;

  advances_counter().add();
  users_dirty_counter().add(stats.users_dirty);
  users_reevaluated_counter().add(stats.users_reevaluated);
  users_skipped_counter().add(stats.users_skipped);

  seconds_ += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            wall0)
                  .count();
  return stats;
}

}  // namespace adr::activeness
