#pragma once
// The delta-aware evaluation pipeline (DESIGN.md §9).
//
// A full evaluation re-ranks every user at every purge trigger, but between
// two triggers almost nothing changes: most users had no new activity, and
// Eqs. 1–5 anchor the periods at t_c, so a user's rank moves only when a
// period boundary passes one of their activities. IncrementalEvaluator
// exploits that. It keeps the latest evaluation as one ScanPlan — every
// user's activeness once, dense by user id, each group's sorted keys, and
// the user -> group table — the only copy of it in memory: the Service,
// the policies and the emulator read this plan. On each advance to a new
// t_c it re-evaluates only users that can have changed:
//
//  * users the store marked dirty (streaming appends since the last drain);
//  * users with activity inside (t_prev, t_c] revealed by the advancing trim
//    (replay stores hold the whole trace up front, so "new" events surface
//    by time moving, not by appends) — answered by the store's chronological
//    index;
//  * any other user whose stable-until instant t_c has passed.
//
// A user outside the delta set keeps their trimmed streams, so their rank
// is a function of the age buckets c_x = max(1, ⌈(t_c − ts_x)/d⌉) alone
// (DESIGN.md §9.2). That gives the pipeline one skip rule: each
// evaluation (Evaluator::evaluate_users) returns the last t_c at which no
// bucket its rank reads has moved, and a user outside the delta set is
// skipped while t_c is at or before that instant. Ranks only new activity
// can change — fresh users, pigeonhole and zero-total zeros, and zeros
// whose newest period is empty — carry +∞ and are never re-evaluated
// until they turn dirty. Skipping a non-candidate costs one 8-byte read.
//
// The users to re-evaluate go through Evaluator::evaluate_users, which
// writes their records in place in the plan's table in contiguous blocks,
// prefetching each user's streams two users ahead. The plan stores each
// record once; its groups hold ScanKeys. The loop that builds the
// re-evaluated users' keys also writes each one's group into the plan's
// user -> group table. The keys are sorted per group in instance scratch,
// and each group is rebuilt by one forward merge that drops the users' old
// keys, the four groups as pool tasks: no record moves, and no kept key is
// rebuilt. scan_key_less is a strict total order, so the patched plan is
// element-for-element identical to a from-scratch build_scan_plan. Both
// eval modes therefore produce identical ranks, classifications, scan
// orderings, and downstream PurgeReports — the property suite in
// tests/activeness/test_incremental.cpp holds them to it.

#include <array>
#include <cstdint>
#include <vector>

#include "activeness/classifier.hpp"
#include "activeness/evaluator.hpp"

namespace adr::activeness {

/// How a pipeline owner evaluates at each trigger. kIncremental is the one
/// production schedule; kFull is the reference the tests, loadgen's
/// serial-replay check and the benches compare it against.
enum class EvalMode {
  kIncremental,  ///< delta-aware: candidates + expired instants only
  kFull,         ///< re-evaluate every user at every advance
};

/// What one advance() did — surfaced for tests and the obs counters.
struct AdvanceStats {
  bool full_rebuild = false;      ///< first advance / backwards time / kFull
  std::size_t users_dirty = 0;    ///< delta candidates (appends + window)
  std::size_t users_reevaluated = 0;
  std::size_t users_skipped = 0;  ///< cached evaluation provably unchanged
};

/// Stateful evaluation pipeline: owns the latest evaluation and advances it
/// in place. Wraps the stateless Evaluator math — every rank it produces
/// comes out of Evaluator::evaluate_users, never a second code path.
class IncrementalEvaluator {
 public:
  IncrementalEvaluator(const ActivityCatalog& catalog,
                       EvaluationParams base_params,
                       EvalMode mode = EvalMode::kIncremental);
  /// The pipeline keeps a pointer to the caller's catalog for its whole
  /// lifetime; binding a temporary would dangle by the first advance().
  IncrementalEvaluator(ActivityCatalog&&, EvaluationParams,
                       EvalMode = EvalMode::kIncremental) = delete;

  /// Advance the evaluation to t_c = `now`. Finalizes the store if bulk
  /// rows are pending, applies its ingest queue, drains its dirty set,
  /// re-evaluates what can have changed, and patches the cached plan.
  /// Full-rebuilds on the first call, when `now` moves backwards, when the
  /// user count changed, or in kFull mode.
  AdvanceStats advance(ActivityStore& store, util::TimePoint now);

  /// Users the last delta advance() re-evaluated, ascending. After a full
  /// rebuild (AdvanceStats::full_rebuild) every user was re-evaluated and
  /// this is empty.
  const std::vector<trace::UserId>& reevaluated() const { return reeval_; }

  /// Latest evaluation (valid after the first advance()), dense by user id.
  /// users() is the plan's own record table, and plan().group_of() its
  /// group table: the pipeline keeps one copy.
  const ScanPlan& plan() const { return plan_; }
  const std::vector<UserActiveness>& users() const { return plan_.users; }

  bool evaluated() const { return evaluated_; }
  util::TimePoint last_now() const { return last_now_; }

  /// Wall time spent evaluating inside this pipeline instance (advance()
  /// only) — per-instance, unlike the process-global registry spans, so two
  /// concurrent pipelines never bleed into each other's Fig. 12b numbers.
  double seconds() const { return seconds_; }

 private:
  void rebuild(ActivityStore& store, util::TimePoint now);
  /// Mark the delta candidates in candidate_flags_ (sized to the cached
  /// users): the store's dirty set, drained here, plus every user the
  /// chronological index shows active in (last_now_, now]. Returns their
  /// count.
  std::size_t mark_candidates(ActivityStore& store, util::TimePoint now);
  /// Replace the keys and table groups of the users in reeval_ (flagged in
  /// candidate_flags_) with those of their new records.
  void splice();

  const ActivityCatalog* catalog_;
  EvaluationParams base_params_;
  EvalMode mode_;

  bool evaluated_ = false;
  util::TimePoint last_now_ = 0;
  ScanPlan plan_;  // plan_.users and plan_.group_by_user: dense by user id
  /// Last t_c at which each user's cached evaluation provably holds while
  /// their trimmed streams are unchanged (Evaluator::evaluate_users).
  std::vector<util::TimePoint> stable_until_;  // dense by user id

  // Per-advance scratch, kept across triggers so the delta path allocates
  // nothing in steady state.
  std::vector<std::uint8_t> candidate_flags_;
  std::vector<trace::UserId> reeval_;
  std::array<std::vector<ScanKey>, kGroupCount> incoming_;  // by UserGroup
  std::array<std::vector<ScanKey>, kGroupCount> merged_;    // by UserGroup
  double seconds_ = 0.0;
};

}  // namespace adr::activeness
