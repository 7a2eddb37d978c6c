#include "retention/activedr_policy.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <unordered_set>
#include <utility>
#include <vector>

#include "fs/purge_index.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace adr::retention {

namespace {

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

obs::Counter& walk_scans() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("policy.scan.walk");
  return c;
}

obs::Counter& index_candidates() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("policy.index_candidates");
  return c;
}

}  // namespace

ActiveDrPolicy::ActiveDrPolicy(ActiveDrConfig config,
                               const trace::UserRegistry& registry)
    : config_(config), registry_(&registry) {}

void ActiveDrPolicy::set_exemptions(ExemptionList exemptions) {
  exemptions_ = std::move(exemptions);
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
                                const activeness::ScanPlan& plan) const {
  PurgeReport report;
  report.policy = name();
  report.when = now;
  report.target_purge_bytes = target_purge_bytes;

  // Dense user -> group lookup for report attribution.
  std::vector<activeness::UserGroup> group_lookup;
  for (std::size_t gi = 0; gi < activeness::kGroupCount; ++gi) {
    for (const auto& ua : plan.groups[gi]) {
      if (ua.user >= group_lookup.size()) {
        group_lookup.resize(ua.user + 1, activeness::UserGroup::kBothInactive);
      }
      group_lookup[ua.user] = static_cast<activeness::UserGroup>(gi);
    }
  }
  const GroupOf fast_group_of = [&group_lookup](trace::UserId user) {
    return user < group_lookup.size() ? group_lookup[user]
                                      : activeness::UserGroup::kBothInactive;
  };

  fill_users_total(report, vfs, fast_group_of);

  report.dry_run = config_.dry_run;
  const bool record = config_.dry_run || config_.record_victims;
  const bool indexed = config_.scan_mode != ScanMode::kWalk;
  (indexed ? indexed_scans() : walk_scans()).add();
  const fs::PurgeIndex& index = vfs.purge_index();

  // Walk-mode dry runs cannot mutate the vfs, so later passes would
  // re-select earlier victims; dedupe by interned path id. (The indexed
  // path needs no dedup: its cursor visits each candidate exactly once.)
  std::unordered_set<fs::PathId> claimed;

  std::uint64_t remaining = target_purge_bytes;
  const bool no_target = target_purge_bytes == 0;
  std::vector<bool> user_affected;
  std::atomic<std::size_t> exempted{0};

  // Victims travel as interned ids — no per-victim path copies; the string
  // is only touched for vfs.remove() and opt-in recording.
  struct Victim {
    fs::PathId id;
    util::TimePoint atime;
    std::uint64_t size;
  };
  const auto victim_order = [](const Victim& a, const Victim& b) {
    return a.atime != b.atime ? a.atime < b.atime : a.id < b.id;
  };

  obs::TimerSpan run_span("policy.run");
  bool done = false;
  for (const activeness::UserGroup group : activeness::kScanOrder) {
    if (done) break;
    const auto& users = plan.group(group);
    if (users.empty()) continue;
    groups_scanned().add();

    const int max_pass = no_target ? 0 : config_.retrospective_passes;

    // Indexed scan-once: materialize each user's candidates one time, at
    // the *widest* cutoff this group can ever reach (the fully decayed
    // lifetime of the last retrospective pass). The 20%-per-pass decay only
    // widens the victim window, so every pass's victims are a prefix of
    // this list; passes then advance a cursor instead of re-walking.
    std::vector<std::vector<Victim>> candidates;
    std::vector<std::size_t> cursor;
    if (indexed) {
      obs::TimerSpan scan_span("policy.scan");
      candidates.resize(users.size());
      cursor.assign(users.size(), 0);
      util::global_pool().parallel_for(0, users.size(), [&](std::size_t ui) {
        const auto& ua = users[ui];
        const util::TimePoint widest_cutoff =
            now - effective_lifetime(ua, max_pass);
        std::vector<fs::PurgeIndex::Entry> entries;
        index.collect_expired(ua.user, widest_cutoff, entries);
        auto& mine = candidates[ui];
        mine.reserve(entries.size());
        for (const auto& e : entries) {
          if (exemptions_.is_exempt(index.path(e.id))) {
            exempted.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          mine.push_back({e.id, e.atime, e.size_bytes});
        }
      });
      report.phases.scan_seconds += scan_span.stop();
      std::size_t considered = 0;
      for (const auto& mine : candidates) considered += mine.size();
      victims_considered().add(considered);
      index_candidates().add(considered);
    }

    for (int pass = 0; pass <= max_pass && !done; ++pass) {
      if (pass > 0) {
        ++report.retrospective_passes_used;
        retrospective_passes().add();
      }

      // Walk-mode decision phase: parallel over disjoint user directories,
      // re-walked every pass (the seed behaviour the bench baselines).
      std::vector<std::vector<Victim>> victims;
      if (!indexed) {
        victims.resize(users.size());
        obs::TimerSpan scan_span("policy.scan");
        util::global_pool().parallel_for(0, users.size(), [&](std::size_t ui) {
          const auto& ua = users[ui];
          const util::Duration lifetime = effective_lifetime(ua, pass);
          // Exemption accounting must match the indexed scan: an exempt
          // file counts once per scanned group, and only if it is expired
          // at the group's *widest* (fully decayed) cutoff — the same
          // population the indexed scan materializes. Counting on every
          // re-walked pass, or counting unexpired exempt files, made
          // exempted_files diverge between the two modes.
          const util::Duration widest_lifetime = effective_lifetime(ua, max_pass);
          const std::string home = registry_->home_dir(ua.user);
          auto& mine = victims[ui];
          vfs.for_each_under(home, [&](const std::string& path,
                                       const fs::FileMeta& meta) {
            if (exemptions_.is_exempt(path)) {
              if (pass == 0 && now - meta.atime > widest_lifetime) {
                exempted.fetch_add(1, std::memory_order_relaxed);
              }
              return;
            }
            if (now - meta.atime > lifetime) {
              mine.push_back({meta.path_id, meta.atime, meta.size_bytes});
            }
          });
          // Oldest first, matching the index order, so both modes select
          // identical victims when a byte target stops mid-user.
          std::sort(mine.begin(), mine.end(), victim_order);
        });
        report.phases.scan_seconds += scan_span.stop();
        std::size_t considered = 0;
        for (const auto& mine : victims) considered += mine.size();
        victims_considered().add(considered);
      }

      // Apply phase: sequential, ascending activeness order; stop exactly
      // at the target.
      obs::TimerSpan apply_span("policy.apply");
      bool purged_any = false;
      for (std::size_t ui = 0; ui < users.size() && !done; ++ui) {
        const trace::UserId user = users[ui].user;
        const auto apply = [&](const Victim& v) {
          const std::string& path = index.path(v.id);
          if (config_.dry_run) {
            if (indexed) {
              // Cursor semantics already guarantee single selection.
            } else if (!claimed.insert(v.id).second) {
              return;  // earlier pass
            }
            if (record) report.victim_paths.push_back(path);
          } else {
            if (record) report.victim_paths.push_back(path);
            if (!vfs.remove(path)) {
              if (record) report.victim_paths.pop_back();
              return;  // purged in an earlier pass
            }
          }
          purged_any = true;
          victims_purged().add();
          report.purged_bytes += v.size;
          ++report.purged_files;
          auto& g = report.group(group);
          g.purged_bytes += v.size;
          ++g.purged_files;
          if (user != trace::kInvalidUser) {
            if (user >= user_affected.size())
              user_affected.resize(user + 1, false);
            if (!user_affected[user]) {
              user_affected[user] = true;
              ++g.users_affected;
              report.affected_users.push_back(user);
            }
          }
          if (!no_target) {
            remaining -= std::min(remaining, v.size);
            if (remaining == 0) done = true;
          }
        };

        if (indexed) {
          // This pass's victims: the candidate prefix under the decayed
          // cutoff, starting where the previous pass left off.
          const util::TimePoint cutoff =
              now - effective_lifetime(users[ui], pass);
          const auto& mine = candidates[ui];
          std::size_t& cur = cursor[ui];
          while (!done && cur < mine.size() && mine[cur].atime < cutoff) {
            apply(mine[cur]);
            ++cur;
          }
        } else {
          for (const auto& v : victims[ui]) {
            apply(v);
            if (done) break;
          }
        }
      }
      report.phases.apply_seconds += apply_span.stop();
      if (!purged_any && pass > 0) {
        // Decayed lifetime freed nothing new; further decay of this group
        // can only help if files sit just under the current threshold —
        // keep going (cheap) unless *every* user's lifetime has bottomed
        // out. Probing only the first (lowest-ranked) user would stop the
        // decay for the whole group while later users still have positive
        // lifetimes left to shrink.
        util::Duration max_lifetime = 0;
        for (const auto& ua : users) {
          max_lifetime = std::max(max_lifetime, effective_lifetime(ua, pass));
          if (max_lifetime > 0) break;
        }
        if (max_lifetime == 0) break;
      }
      ADR_DEBUG << name() << ": group '" << activeness::group_name(group)
                << "' pass " << pass << " done, remaining "
                << (no_target ? std::string("(no target)")
                              : std::to_string(remaining) + " bytes");
    }
  }

  report.exempted_files = exempted.load();
  report.target_reached = no_target || remaining == 0;
  if (!report.target_reached) {
    ADR_WARN << name() << ": purge target NOT reached; " << remaining
             << " bytes short after all groups and retrospective passes";
  }
  fill_retained_stats(report, vfs, fast_group_of);
  return report;
}

}  // namespace adr::retention
