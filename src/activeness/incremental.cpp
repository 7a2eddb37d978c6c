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

void IncrementalEvaluator::rebuild(ActivityStore& store, util::TimePoint now) {
  EvaluationParams params = base_params_;
  params.now = now;
  Evaluator evaluator(*catalog_, params);
  plan_ = build_scan_plan(evaluator.evaluate_all(store, &stable_until_));
  reeval_.clear();
}

std::size_t IncrementalEvaluator::mark_candidates(ActivityStore& store,
                                                  util::TimePoint now) {
  candidate_flags_.assign(plan_.users.size(), 0);
  store.drain_dirty(candidate_flags_);
  for (const auto& [ts, u] : store.chrono_window(last_now_, now)) {
    if (u < candidate_flags_.size()) candidate_flags_[u] = 1;
  }
  std::size_t marked = 0;
  for (const std::uint8_t f : candidate_flags_) marked += f;
  return marked;
}

void IncrementalEvaluator::splice() {
  for (auto& keys : incoming_) keys.clear();
  for (const trace::UserId u : reeval_) {
    const UserGroup g = classify(plan_.users[u]);
    plan_.group_by_user[u] = g;
    incoming_[static_cast<std::size_t>(g)].push_back(
        scan_key(g, plan_.users[u], u));
  }
  // One forward merge per group, O(n + r log r): the group's kept keys in
  // order, the sorted incoming keys merged in, the re-evaluated users' old
  // keys dropped. The groups touch disjoint vectors and only read the
  // flags, so they run as pool tasks.
  util::global_pool().parallel_for(
      0, kGroupCount,
      [this](std::size_t gi) {
        auto& in = incoming_[gi];
        std::sort(in.begin(), in.end(), scan_key_less);
        auto& group = plan_.groups[gi];
        auto& merged = merged_[gi];
        merged.clear();
        merged.reserve(group.size() + in.size());
        auto next = in.cbegin();
        for (const ScanKey& key : group) {
          if (candidate_flags_[key.user]) continue;  // its new key is in `in`
          for (; next != in.cend() && scan_key_less(*next, key); ++next) {
            merged.push_back(*next);
          }
          merged.push_back(key);
        }
        merged.insert(merged.end(), next, in.cend());
        group.swap(merged);
      },
      /*grain=*/1);
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

  const std::size_t users = plan_.users.size();
  const bool delta = mode_ == EvalMode::kIncremental && evaluated_ &&
                     now >= last_now_ && users == store.user_count();
  if (!delta) {
    store.drain_dirty({});  // everyone is re-evaluated: the set is stale
    rebuild(store, now);
    stats.full_rebuild = true;
    stats.users_reevaluated = plan_.users.size();
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

    // One skip rule: a user whose trimmed streams are unchanged keeps their
    // rank while no age bucket it reads has moved (DESIGN.md §9.2).
    for (std::size_t i = 0; i < users; ++i) {
      if (!candidate_flags_[i]) {
        if (now <= stable_until_[i]) continue;
        candidate_flags_[i] = 1;  // marks plan keys to splice out below
      }
      reeval_.push_back(static_cast<trace::UserId>(i));
    }
    stats.users_reevaluated = reeval_.size();
    stats.users_skipped = users - reeval_.size();

    {
      obs::TimerSpan reevaluate_span("incremental.reevaluate");
      evaluator.evaluate_users(store, reeval_, plan_.users, stable_until_);
    }

    obs::TimerSpan splice_span("incremental.splice");
    if (reeval_.size() * 2 >= users) {
      // Near-full delta: sorting every key afresh is cheaper than
      // splicing. Same output either way — scan_key_less is a strict total
      // order.
      plan_.sort_keys();
    } else if (!reeval_.empty()) {
      splice();
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
