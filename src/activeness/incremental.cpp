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
  users_ = evaluator.evaluate_all(store, &stable_until_);
  reeval_.clear();
  groups_.resize(users_.size());
  for (std::size_t u = 0; u < users_.size(); ++u) {
    groups_[u] = classify(users_[u]);
  }
  plan_ = build_scan_plan(users_);
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

    // One skip rule: a user whose trimmed streams are unchanged keeps their
    // rank while no age bucket it reads has moved (DESIGN.md §9.2).
    for (std::size_t i = 0; i < users_.size(); ++i) {
      if (!candidate_flags_[i]) {
        if (now <= stable_until_[i]) continue;
        candidate_flags_[i] = 1;  // marks plan entries to splice out below
      }
      reeval_.push_back(static_cast<trace::UserId>(i));
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
      // the re-evaluated users (candidates + expired instants).
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
