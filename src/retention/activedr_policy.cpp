#include "retention/activedr_policy.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

#include "fs/purge_index.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/logging.hpp"

namespace adr::retention {

namespace {

/// The lazy scan collects users in blocks just ahead of the apply. A block
/// holds a quarter as many users as were collected before it, and at least
/// kMinCollectBlock. So the scan runs at most a quarter (or 8 users) ahead
/// of the users the apply reached, and an apply that crosses a whole
/// 30k-user group records about 35 scan spans, not one per user.
constexpr std::size_t kMinCollectBlock = 8;
constexpr std::size_t kCollectAheadDivisor = 4;

obs::Counter& victims_considered() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("policy.victims_considered");
  return c;
}

obs::Counter& victims_purged() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("policy.victims_purged");
  return c;
}

obs::Counter& retrospective_passes() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("policy.retrospective_passes");
  return c;
}

obs::Counter& groups_scanned() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("policy.groups_scanned");
  return c;
}

obs::Counter& indexed_scans() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("policy.scan.indexed");
  return c;
}

obs::Counter& index_candidates() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("policy.index_candidates");
  return c;
}

// The apply phase is timed by hand rather than by a TimerSpan: the
// collection blocks it runs are recorded under "policy.scan", and the
// "policy.apply" span must not count them a second time.
obs::Histogram& apply_span() {
  static obs::Histogram& h =
      obs::MetricsRegistry::global().span_histogram("policy.apply");
  return h;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

ActiveDrPolicy::ActiveDrPolicy(ActiveDrConfig config) : config_(config) {}

const ExemptionList& ActiveDrPolicy::exemptions() const {
  static const ExemptionList kNone;
  return exemptions_ ? *exemptions_ : kNone;
}

std::string ActiveDrPolicy::name() const {
  return "ActiveDR-" + std::to_string(config_.initial_lifetime_days) + "d";
}

util::Duration ActiveDrPolicy::effective_lifetime(
    const activeness::UserActiveness& ua, int pass) const {
  const double mult =
      activeness::lifetime_multiplier(ua, config_.lifetime_mode,
                                      config_.min_multiplier,
                                      config_.max_multiplier) *
      std::pow(1.0 - config_.retrospective_decay, pass);
  const double seconds =
      static_cast<double>(util::days(config_.initial_lifetime_days)) * mult;
  return static_cast<util::Duration>(seconds);
}

PurgeReport ActiveDrPolicy::run(fs::Vfs& vfs, util::TimePoint now,
                                std::uint64_t target_purge_bytes,
                                const activeness::ScanPlan& plan,
                                ApplyOptions options) const {
  PurgeApply apply(vfs, plan, name(), now, target_purge_bytes, options);
  PurgeReport& report = apply.report();
  indexed_scans().add();
  const fs::PurgeIndex& index = vfs.purge_index();

  const bool no_target = target_purge_bytes == 0;
  const ExemptionList& exemptions = this->exemptions();
  std::size_t exempted = 0;
  const auto is_exempt = [&](const fs::PurgeIndex::Entry& e) {
    return exemptions.is_exempt(index.path(e.id));
  };

  obs::TimerSpan run_span("policy.run");
  for (const activeness::UserGroup group : activeness::kScanOrder) {
    if (apply.done()) break;
    const auto& keys = plan.group(group);
    if (keys.empty()) continue;
    groups_scanned().add();

    const int max_pass = no_target ? 0 : config_.retrospective_passes;
    // Scan-once: a user's candidates are drawn one time, at the *widest*
    // cutoff this group can ever reach (the fully decayed lifetime of the
    // last retrospective pass). The 20%-per-pass decay only widens the
    // victim window, so every pass's victims are a prefix of this list
    // (the index yields them oldest first); passes then advance a cursor
    // instead of re-scanning, and each candidate is visited exactly once.
    const auto widest_cutoff = [&](const activeness::ScanKey& key) {
      return now - effective_lifetime(plan.at(key), max_pass);
    };

    // Collected lazily: a user's candidates are drawn when the apply first
    // reaches that user, so a trigger pays for the users it reaches, not
    // for the whole group. This equals drawing every list up front: a list
    // comes from its user's own index entries, the apply removes only the
    // files of the user it is on (a dry run removes nothing), and nothing
    // is created during a run, so no path id is recycled.
    struct Reached {
      std::vector<fs::PurgeIndex::Entry> candidates;  // oldest first
      std::size_t cursor = 0;  // first candidate no pass has taken yet
    };
    std::vector<Reached> reached;  // keys[0, reached.size()) are collected
    // Collect the next block of users; returns its wall time.
    const auto collect_block = [&]() {
      obs::TimerSpan scan_span("policy.scan");
      const std::size_t first = reached.size();
      const std::size_t last = std::min(
          keys.size(),
          first + std::max(kMinCollectBlock, first / kCollectAheadDivisor));
      reached.resize(last);
      std::size_t collected = 0;
      for (std::size_t ui = first; ui < last; ++ui) {
        auto& mine = reached[ui].candidates;
        index.collect_expired(keys[ui].user, widest_cutoff(keys[ui]), mine);
        if (!exemptions.empty()) {
          const auto kept = std::remove_if(mine.begin(), mine.end(), is_exempt);
          exempted += static_cast<std::size_t>(mine.end() - kept);
          mine.erase(kept, mine.end());
        }
        collected += mine.size();
      }
      victims_considered().add(collected);
      index_candidates().add(collected);
      return scan_span.stop();
    };

    for (int pass = 0; pass <= max_pass && !apply.done(); ++pass) {
      if (pass > 0) {
        ++report.retrospective_passes_used;
        retrospective_passes().add();
      }

      // Apply phase: sequential, ascending activeness order; stop exactly
      // at the target. Only pass 0 collects: a pass that misses the target
      // has reached every user of the group.
      const auto apply_start = std::chrono::steady_clock::now();
      double scan_seconds = 0.0;
      bool purged_any = false;
      for (std::size_t ui = 0; ui < keys.size() && !apply.done(); ++ui) {
        if (ui == reached.size()) scan_seconds += collect_block();
        const trace::UserId user = keys[ui].user;
        // This pass's victims: the candidate prefix under the decayed
        // cutoff, starting where the previous pass left off.
        const util::TimePoint cutoff =
            now - effective_lifetime(plan.at(keys[ui]), pass);
        Reached& mine = reached[ui];
        for (; !apply.done() && mine.cursor < mine.candidates.size() &&
               mine.candidates[mine.cursor].atime < cutoff;
             ++mine.cursor) {
          const fs::PurgeIndex::Entry& v = mine.candidates[mine.cursor];
          if (apply.take(v.id, user, v.size_bytes)) {
            purged_any = true;
            victims_purged().add();
          }
        }
      }
      const double apply_seconds =
          std::max(0.0, seconds_since(apply_start) - scan_seconds);
      apply_span().observe(apply_seconds);
      report.phases.scan_seconds += scan_seconds;
      report.phases.apply_seconds += apply_seconds;
      if (!purged_any && pass > 0) {
        // Decayed lifetime freed nothing new; further decay of this group
        // can only help if files sit just under the current threshold —
        // keep going (cheap) unless *every* user's lifetime has bottomed
        // out. Probing only the first (lowest-ranked) user would stop the
        // decay for the whole group while later users still have positive
        // lifetimes left to shrink.
        util::Duration max_lifetime = 0;
        for (const activeness::ScanKey& key : keys) {
          max_lifetime =
              std::max(max_lifetime, effective_lifetime(plan.at(key), pass));
          if (max_lifetime > 0) break;
        }
        if (max_lifetime == 0) break;
      }
      ADR_DEBUG << name() << ": group '" << activeness::group_name(group)
                << "' pass " << pass << " done, remaining "
                << (no_target ? std::string("(no target)")
                              : std::to_string(apply.remaining()) + " bytes");
    }

    // The target stopped the apply before the scan reached these users.
    // Their exempt files still count once for the group when expired at
    // its widest cutoff (DESIGN.md §8); nothing else of theirs is needed.
    if (!exemptions.empty() && reached.size() < keys.size()) {
      obs::TimerSpan scan_span("policy.scan");
      std::vector<fs::PurgeIndex::Entry> expired;
      for (std::size_t ui = reached.size(); ui < keys.size(); ++ui) {
        expired.clear();
        index.collect_expired(keys[ui].user, widest_cutoff(keys[ui]),
                              expired);
        exempted += static_cast<std::size_t>(
            std::count_if(expired.begin(), expired.end(), is_exempt));
      }
      report.phases.scan_seconds += scan_span.stop();
    }
  }

  report.exempted_files = exempted;
  PurgeReport result = apply.finish();
  if (!result.target_reached) {
    ADR_WARN << name() << ": purge target NOT reached; " << apply.remaining()
             << " bytes short after all groups and retrospective passes";
  }
  return result;
}

}  // namespace adr::retention
