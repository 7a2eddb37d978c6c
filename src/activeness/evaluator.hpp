#pragma once
// The user-activeness evaluation algorithm of §3.2 (Eqs. 1–6).
//
// For one activity type λ with sorted activities {a_0..a_(k-1)} and period
// length d days evaluated at time t_c:
//
//   m      = ceil((t_c − a_0.ts) / to_ts(d))                    (Eq. 1)
//   Avg    = (Σ_i D_(a_i)) / m                                  (Eq. 2)
//   b_p    = D_p / Avg        per period p                      (Eq. 3)
//   e(a_x) = m − ceil((t_c − a_x.ts) / to_ts(d)) + 1            (Eq. 4)
//   Φλ     = Π_(e=1..m) (b_(p_e))^e                             (Eq. 5)
//   Φop    = Π Φλop ,  Φoc = Π Φλoc                             (Eq. 6)
//
// Numerics: the product of powers spans hundreds of orders of magnitude, so
// ranks are carried as log Φ (long double) with an explicit zero flag (any
// period with no activity ⇒ b = 0 ⇒ Φ = 0, exactly per the equations).
// Activeness thresholds and ordering are exact in log space; the linear
// value used by Eq. 7's lifetime adjustment is clamped on conversion.
//
// Degenerate inputs, which the paper leaves implicit, are pinned down here:
//  * a type with no activities at all ⇒ no-data rank: *neutral* (acts as 1.0
//    in products, counts as inactive for classification) — §3.4's "initial
//    rank 1.0" without letting empty types zero out Eq. 6;
//  * first activity at/after t_c ⇒ m = 1 (Eq. 1 would give 0);
//  * activities older than the m-period window (e < 1) are dropped;
//  * activities at/after t_c (e > m) count toward the newest period m;
//  * zero total impact ⇒ Φ = 0.

#include <limits>
#include <span>
#include <vector>

#include "activeness/activity.hpp"
#include "util/time.hpp"

namespace adr::activeness {

/// What happens to activities older than the m-period window (Eq. 4 yields
/// e < 1 for them; the paper leaves this case undefined).
enum class StaleHandling {
  /// Attribute them to the oldest period (e = 1). Default: when
  /// `max_periods` caps the window, history older than the window still
  /// counts toward the oldest period instead of silently vanishing. (With
  /// t_c-anchored periods this matters only under a cap: uncapped, e >= 1
  /// for every activity at or before t_c.)
  kClampOldest,
  /// Drop them: only the trailing m-period window counts. Strictest recency
  /// reading under a `max_periods` cap.
  kDrop,
};

/// How period ratios are exponentiated when forming Φλ. kPaperExponent is
/// Eq. 5; the alternatives exist for the ablation bench.
enum class ExponentScheme {
  kPaperExponent,  ///< (b_e)^e — recency-weighted, the paper's design
  kUniform,        ///< (b_e)^1 — no recency weighting
  kCappedLinear,   ///< (b_e)^min(e, cap) — recency weighting saturates
};

struct EvaluationParams {
  /// Period length d in days (the paper sweeps 7 / 30 / 60 / 90).
  int period_length_days = 90;
  /// t_c — the instant the evaluation runs.
  util::TimePoint now = 0;
  /// Cap on the number of periods m (0 = unbounded, Eq. 1 verbatim).
  int max_periods = 0;
  StaleHandling stale = StaleHandling::kClampOldest;
  ExponentScheme scheme = ExponentScheme::kPaperExponent;
  /// Exponent cap for kCappedLinear.
  int exponent_cap = 8;
};

/// Rank of one activity type, or of one category after Eq. 6 combination.
/// Φ lives in {0} ∪ (0,1) ∪ [1,+inf); Φ ≥ 1 means active.
struct Rank {
  bool has_data = false;      ///< false = no activities (neutral element)
  bool zero = false;          ///< Φ == 0 exactly (some period was empty)
  /// The zero is *structural* — pigeonhole (more periods than activities)
  /// or non-positive total impact — so it provably persists at every later
  /// evaluation instant until new activity arrives (m never shrinks and the
  /// totals are frozen). The incremental pipeline's skip rule leans on this:
  /// a sticky zero can be carried forward without recency checks, where a
  /// plain empty-period zero can clear once the window shifts.
  bool sticky_zero = false;
  long double log_phi = 0.0;  ///< ln Φ; meaningful only if has_data && !zero

  /// Active per the paper's threshold: Φ ≥ 1, which requires actual data.
  bool active() const { return has_data && !zero && log_phi >= 0.0L; }

  /// Linear Φ for Eq. 7, clamped into [min_value, max_value].
  /// No-data ranks convert to 1.0 (§3.4's initial rank); zero ranks to
  /// min_value.
  double value(double min_value = 0.0, double max_value = 1e12) const;

  /// Sort key for the ascending-activeness scan: zero < any positive Φ;
  /// no-data sorts as Φ = 1 (its §3.4 initial value).
  long double sort_key() const;
  bool operator<(const Rank& other) const {
    return sort_key() < other.sort_key();
  }

  /// Multiply (the Π of Eqs. 5/6). No-data is neutral; zero absorbs.
  Rank& operator*=(const Rank& other);

  static Rank no_data() { return Rank{}; }
  static Rank from_value(double v);
};

/// Eq. 1–5 for one type: evaluate a time-sorted activity stream.
Rank evaluate_stream(std::span<const Activity> stream,
                     const EvaluationParams& params);

/// Eq. 1–5 through a prefix-impact aggregate: per-period impacts resolve as
/// prefix differences at binary-searched period boundaries — O(m log k) per
/// stream, and O(log k) for the dominant zero-rank case (any user whose
/// newest period is empty, plus the m > k pigeonhole) — instead of the
/// O(k) walk of evaluate_stream. `stream` must already be trimmed to
/// params.now and `prefix` must be its aggregate (size k+1, prefix[0] = 0,
/// see ActivityStore::prefix). Equal to evaluate_stream up to
/// floating-point summation order.
Rank evaluate_stream_indexed(std::span<const Activity> stream,
                             std::span<const double> prefix,
                             const EvaluationParams& params);

/// A user's evaluated activeness: Φop, Φoc (Eq. 6).
struct UserActiveness {
  trace::UserId user = trace::kInvalidUser;
  Rank op;  ///< operation category rank
  Rank oc;  ///< outcome category rank
  /// Timestamp of the user's most recent activity (any type) at or before
  /// t_c; INT64_MIN when none. Used as the tie-break in the ascending scan:
  /// most of the population shares rank Φ = 0 exactly (any empty period
  /// zeroes the product), and among those the *longest-dormant* users must
  /// be purged first for the scan order to mean anything.
  util::TimePoint last_activity = std::numeric_limits<std::int64_t>::min();

  /// No activity of any type — a fresh account per §3.4.
  bool fresh() const { return !op.has_data && !oc.has_data; }
};

/// Evaluates all users of an ActivityStore against a catalog.
class Evaluator {
 public:
  Evaluator(const ActivityCatalog& catalog, EvaluationParams params);
  /// The evaluator keeps a pointer to the caller's catalog; a temporary
  /// would dangle (silently empty type lists, every rank fresh).
  Evaluator(ActivityCatalog&&, EvaluationParams) = delete;

  UserActiveness evaluate_user(const ActivityStore& store,
                               trace::UserId user) const;

  /// Evaluate users [begin, end), parallel over users via the global thread
  /// pool; slot i holds user begin + i. Every full or ranged evaluation runs
  /// through here, so the "evaluator.evaluate_all" span fires on every path.
  std::vector<UserActiveness> evaluate_range(const ActivityStore& store,
                                             trace::UserId begin,
                                             trace::UserId end) const;

  /// Evaluate every user of the store.
  std::vector<UserActiveness> evaluate_all(const ActivityStore& store) const;

  const EvaluationParams& params() const { return params_; }

 private:
  const ActivityCatalog* catalog_;
  EvaluationParams params_;
  std::vector<ActivityTypeId> op_types_;
  std::vector<ActivityTypeId> oc_types_;
};

}  // namespace adr::activeness
