#pragma once
// The delta-aware evaluation pipeline (DESIGN.md §9).
//
// A full evaluation re-ranks every user at every purge trigger, but between
// two triggers almost nothing changes: most users had no new activity, and
// the bulk of the population already sits at Φ = 0 exactly (some period is
// empty) where growing the window cannot resurrect them. IncrementalEvaluator
// exploits both facts. It keeps the latest evaluation (dense per-user
// activeness, group table, sorted ScanPlan) and, on each advance to a new
// t_c, re-evaluates only users that can have changed:
//
//  * users the store marked dirty (streaming appends since the last drain);
//  * users with activity inside (t_prev, t_c] revealed by the advancing trim
//    (replay stores hold the whole trace up front, so "new" events surface
//    by time moving, not by appends) — answered by the store's chronological
//    index;
//  * any cached user that fails the *skip rule*.
//
// Skip rule (proved in DESIGN.md §9.2): a user with no new activity keeps an
// identical evaluation at t_c iff every data-bearing category rank already
// sits at Φ = 0 *and* that zero provably persists at the new t_c. Four
// independent certificates establish persistence, each checkable in O(1)
// against the store's aggregates (no stream walk):
//   * pigeonhole — more periods than activities (m only grows, the stream
//     is frozen);
//   * zero total impact (frozen totals);
//   * stale newest period — the last activity strictly predates t_c − d;
//   * static gap — some inter-activity gap wider than 2d swallows a full
//     period wherever the t_c-anchored boundaries land. Durable uncapped;
//     under a max_periods cap P ≥ 4 it stays durable when the gap's right
//     end is recent enough (ts_right ≥ ts_newest − (P−4)·d) that the capped
//     window provably keeps an aligned period inside the gap until the
//     stale-newest argument takes over (DESIGN.md §9.2).
// Fresh users (no data at all) trivially qualify. Everyone else — anyone
// with a live positive rank — is re-evaluated, because Eq. 1's m grows with
// t_c and dilutes Avg even without new events.
//
// Re-evaluated users are spliced into the cached ScanPlan with scan_less
// (a strict total order), so the patched plan is element-for-element
// identical to a from-scratch build_scan_plan. Both eval modes therefore
// produce identical ranks, classifications, scan orderings, and downstream
// PurgeReports — the property suite in tests/activeness/test_incremental.cpp
// holds them to it.

#include <cstdint>
#include <string>
#include <vector>

#include "activeness/classifier.hpp"
#include "activeness/evaluator.hpp"

namespace adr::activeness {

/// How a pipeline owner evaluates at each trigger. Mirrors
/// retention::ScanMode: auto resolves to the fast path, the explicit modes
/// pin it for tests/benches.
enum class EvalMode {
  kAuto,         ///< incremental, falling back to full where required
  kFull,         ///< re-evaluate every user at every advance
  kIncremental,  ///< delta-aware: dirty users + skip-rule failures only
};

const char* to_string(EvalMode mode);
/// Parses "auto" / "full" / "incremental"; returns false on anything else.
bool parse_eval_mode(const std::string& text, EvalMode& out);

/// What one advance() did — surfaced for tests and the obs counters.
struct AdvanceStats {
  bool full_rebuild = false;      ///< first advance / backwards time / kFull
  bool auto_full = false;         ///< kAuto currently resolved to full
  std::size_t users_dirty = 0;    ///< delta candidates (appends + window)
  std::size_t users_reevaluated = 0;
  std::size_t users_skipped = 0;  ///< cached evaluation provably unchanged
};

/// Stateful evaluation pipeline: owns the latest evaluation and advances it
/// in place. Wraps the stateless Evaluator math — every rank it produces
/// comes out of Evaluator::evaluate_user, never a second code path.
class IncrementalEvaluator {
 public:
  IncrementalEvaluator(const ActivityCatalog& catalog,
                       EvaluationParams base_params,
                       EvalMode mode = EvalMode::kAuto);
  /// The pipeline keeps a pointer to the caller's catalog for its whole
  /// lifetime; binding a temporary would dangle by the first advance().
  IncrementalEvaluator(ActivityCatalog&&, EvaluationParams,
                       EvalMode = EvalMode::kAuto) = delete;

  /// Advance the evaluation to t_c = `now`. Finalizes the store if bulk
  /// rows are pending, applies its ingest queue, drains its dirty set,
  /// re-evaluates what can have changed, and patches the cached plan.
  /// Full-rebuilds on the first call, when `now` moves backwards, when the
  /// user count changed, or in kFull mode.
  AdvanceStats advance(ActivityStore& store, util::TimePoint now);

  /// Latest evaluation (valid after the first advance()), dense by user id.
  const ScanPlan& plan() const { return plan_; }
  const std::vector<UserActiveness>& users() const { return users_; }
  const std::vector<UserGroup>& groups() const { return groups_; }
  UserGroup group_of(trace::UserId user) const { return groups_[user]; }

  bool evaluated() const { return evaluated_; }
  util::TimePoint last_now() const { return last_now_; }
  EvalMode mode() const { return mode_; }
  /// Re-pin the evaluation mode between advances. The degradation ladder
  /// (DESIGN.md §14.2) uses this to force kIncremental under load — delta
  /// work is bounded by the dirty set, so no advance can decide to pay a
  /// full-rebuild latency spike — and to restore the configured mode once
  /// pressure clears. Output is unaffected: every mode computes identical
  /// ranks, only the work schedule differs.
  void set_mode(EvalMode mode) { mode_ = mode; }

  /// Users currently memoized as durably skippable (frozen_ bits set).
  std::size_t frozen_users() const { return frozen_count_; }

  /// kAuto hysteresis (ROADMAP: auto-mode fallback). When the delta fraction
  /// stays at or above the rebuild threshold (re-evals ≥ half the users, the
  /// same cutoff the splice already uses) for kFallbackAfter consecutive
  /// triggers, the per-user delta bookkeeping is pure overhead: auto resolves
  /// to full rebuilds until the workload calms down — the candidate fraction
  /// (still measured cheaply while running full) dropping below a quarter of
  /// the users for kRecoverAfter consecutive triggers flips it back. The two
  /// thresholds are deliberately far apart so a workload hovering near the
  /// boundary cannot make the mode oscillate.
  static constexpr int kFallbackAfter = 3;
  static constexpr int kRecoverAfter = 3;
  bool auto_full() const { return auto_full_; }

  /// Wall time spent evaluating inside this pipeline instance (advance()
  /// only) — per-instance, unlike the process-global registry spans, so two
  /// concurrent pipelines never bleed into each other's Fig. 12b numbers.
  double seconds() const { return seconds_; }

 private:
  void rebuild(ActivityStore& store, util::TimePoint now);
  /// True when the cached evaluation provably equals a re-evaluation at
  /// `now`. Sets `durable` when every certificate used is monotone in t_c
  /// (the skip then holds at every later trigger until the user turns
  /// dirty, so advance() memoizes it in frozen_ and never rechecks).
  bool skippable(const ActivityStore& store, const UserActiveness& ua,
                 util::TimePoint now, bool& durable) const;
  /// Mark the delta candidates in candidate_flags_ (sized to the cached
  /// users): the store's dirty set, drained here, plus every user the
  /// chronological index shows active in (last_now_, now]. Returns their
  /// count.
  std::size_t mark_candidates(ActivityStore& store, util::TimePoint now);

  const ActivityCatalog* catalog_;
  EvaluationParams base_params_;
  EvalMode mode_;
  /// The catalog's operation/outcome types, re-read at every rebuild so
  /// types registered after construction count (Service builds its
  /// pipeline before the catalog is populated).
  std::vector<ActivityTypeId> op_types_;
  std::vector<ActivityTypeId> oc_types_;

  bool evaluated_ = false;
  util::TimePoint last_now_ = 0;
  bool auto_full_ = false;  // kAuto currently resolved to full rebuilds
  int hot_streak_ = 0;      // consecutive triggers at/above rebuild threshold
  int calm_streak_ = 0;     // consecutive calm triggers while auto_full_
  std::vector<UserActiveness> users_;  // dense by user id
  std::vector<UserGroup> groups_;      // dense by user id
  /// Users whose skip was established by durable (t_c-monotone)
  /// certificates: skipped without any recheck until they turn dirty.
  std::vector<std::uint8_t> frozen_;   // dense by user id
  std::size_t frozen_count_ = 0;       // set bits in frozen_

  // Per-advance scratch, kept across triggers so the delta path allocates
  // nothing in steady state.
  std::vector<std::uint8_t> candidate_flags_;
  std::vector<trace::UserId> reeval_;
  std::vector<UserActiveness> updated_;
  std::vector<UserActiveness> merge_scratch_;
  ScanPlan plan_;
  double seconds_ = 0.0;
};

}  // namespace adr::activeness
