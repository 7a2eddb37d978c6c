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
//  * first activity at t_c ⇒ m = 1 (Eq. 1 would give 0);
//  * activities older than the m-period window (e < 1) count toward the
//    oldest period or are dropped, per StaleHandling;
//  * an activity at t_c counts toward the newest period m; activities
//    after t_c are not seen (evaluate_user trims each stream to t_c);
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
/// Φ lives in {0} ∪ (0,1) ∪ [1,+inf); Φ ≥ 1 means active. Every zero rank
/// is the same value ({has_data, zero, log_phi = 0}), whatever emptied it:
/// how long it lasts is the stable-until instant's business, not the rank's.
struct Rank {
  bool has_data = false;      ///< false = no activities (neutral element)
  bool zero = false;          ///< Φ == 0 exactly (some period was empty)
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

/// Eq. 1–5 for one type. Per-period impacts resolve as prefix differences
/// at binary-searched period boundaries, newest period first: O(m log k)
/// per stream, and O(log k) for the dominant zero-rank case (any stream
/// whose newest period is empty, plus the m > k pigeonhole). `stream` must be time-sorted and already
/// trimmed to params.now, and `prefix` must be its aggregate (size k+1,
/// prefix[0] = 0, see ActivityStore::prefix). The tests hold it to a
/// literal walk of the equations.
///
/// `stable_until`, when given, receives the last t_c at which the returned
/// rank provably holds for this trimmed stream (DESIGN.md §9.2): the rank
/// reads the stream only through the age buckets
/// c_x = max(1, ⌈(t_c − ts_x)/d⌉) of m's anchor and of each walked
/// period's oldest activity, and c_x holds while t_c ≤ ts_x + c_x·d. The
/// instant is the minimum of those bounds, taken from the walk's boundary
/// indices; INT64_MAX for ranks only new activity can change: no data, the
/// pigeonhole and zero-total zeros, and a zero whose newest period is
/// empty (a later newest period holds a subset of that empty set).
Rank evaluate_stream_indexed(std::span<const Activity> stream,
                             std::span<const double> prefix,
                             const EvaluationParams& params,
                             util::TimePoint* stable_until = nullptr);

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

  /// The store must be finalized (ActivityStore::finalized(): sort_all()
  /// after bulk add()s), since the kernel reads its prefix aggregates;
  /// throws std::logic_error otherwise.
  ///
  /// `stable_until`, when given, receives the last t_c at which the result
  /// provably holds while the user's trimmed streams stay as they are: the
  /// minimum of evaluate_stream_indexed's instants over every stream of
  /// both categories.
  UserActiveness evaluate_user(const ActivityStore& store, trace::UserId user,
                               util::TimePoint* stable_until = nullptr) const;

  /// Evaluate every distinct user in `ids`, writing out[u] and
  /// stable_until[u] exactly as evaluate_user would (both spans are dense
  /// by user id, and every id must index them and the store; slots outside
  /// `ids` are left alone). The ids are cut into
  /// contiguous blocks, at most a few per pool thread and at least
  /// kMinBlockUsers users each (a smaller delta runs inline); a block
  /// evaluates its users in order, prefetching the streams of the user
  /// kPrefetchAhead places ahead (ActivityStore::prefetch), since the
  /// per-user kernel waits on memory far more than it computes. The
  /// evaluator counters are tallied per block and added once per block,
  /// with the same totals as per-user evaluate_user calls. Same
  /// finalized-store requirement as evaluate_user.
  void evaluate_users(const ActivityStore& store,
                      std::span<const trace::UserId> ids,
                      std::span<UserActiveness> out,
                      std::span<util::TimePoint> stable_until) const;

  /// Evaluate every user of the store through evaluate_users; slot i holds
  /// user i (and, when `stable_until` is given, its slot i the user's
  /// stable-until instant). Every full evaluation runs through here, so
  /// the "evaluator.evaluate_all" span fires on every path.
  std::vector<UserActiveness> evaluate_all(
      const ActivityStore& store,
      std::vector<util::TimePoint>* stable_until = nullptr) const;

  const EvaluationParams& params() const { return params_; }

 private:
  // evaluate_users' block loop. Fewer than 2 x kMinBlockUsers ids run
  // inline: waking the pool would cost more than it saves. Blocks of 64
  // ran bench_fig12's daily delta of about 77 users inline, and
  // re-evaluated it about 1.9x slower than four blocks of about 19 did
  // (Release, 4-vCPU Xeon, four threads).
  // Several blocks per thread let uneven per-user costs balance.
  static constexpr std::size_t kMinBlockUsers = 16;
  static constexpr std::size_t kBlocksPerThread = 8;
  static constexpr std::size_t kPrefetchAhead = 2;

  /// Counter increments accumulated by one caller and added to the shared
  /// registry counters in one go.
  struct Tally;
  /// Eqs. 1–6 for one user over both categories; the store must be
  /// finalized.
  UserActiveness evaluate_one(const ActivityStore& store, trace::UserId user,
                              util::TimePoint& stable_until,
                              Tally& tally) const;

  const ActivityCatalog* catalog_;
  EvaluationParams params_;
  std::vector<ActivityTypeId> op_types_;
  std::vector<ActivityTypeId> oc_types_;
};

}  // namespace adr::activeness
