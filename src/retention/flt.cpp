#include "retention/flt.hpp"

#include <utility>
#include <vector>

#include "fs/purge_index.hpp"
#include "obs/span.hpp"
#include "util/logging.hpp"

namespace adr::retention {

FltPolicy::FltPolicy(FltConfig config)
    : config_(config), group_of_([](trace::UserId) {
        return activeness::UserGroup::kBothInactive;
      }) {}

void FltPolicy::set_group_of(GroupOf group_of) {
  group_of_ = std::move(group_of);
}

std::string FltPolicy::name() const {
  return "FLT-" + std::to_string(config_.lifetime_days) + "d";
}

PurgeReport FltPolicy::run(fs::Vfs& vfs, util::TimePoint now,
                           std::uint64_t target_purge_bytes) const {
  PurgeReport report;
  report.policy = name();
  report.when = now;
  report.target_purge_bytes = target_purge_bytes;
  fill_users_total(report, vfs, group_of_);

  const util::Duration lifetime = util::days(config_.lifetime_days);
  const bool no_target = target_purge_bytes == 0;
  struct Victim {
    fs::PathId id;
    trace::UserId owner;
    std::uint64_t size;
  };
  std::vector<Victim> victims;
  {
    obs::TimerSpan scan_span("policy.scan");
    // Strict runs purge the whole expired set, so its order is unobservable
    // and the index answers it; purge-to-target runs purge in the
    // documented component-order "system scan order".
    if (no_target) {
      for (const auto& oe :
           vfs.purge_index().collect_expired_all(now - lifetime)) {
        victims.push_back({oe.entry.id, oe.owner, oe.entry.size_bytes});
      }
    } else {
      vfs.for_each([&](const std::string&, const fs::FileMeta& meta) {
        if (now - meta.atime > lifetime) {
          victims.push_back({meta.path_id, meta.owner, meta.size_bytes});
        }
      });
    }
    report.phases.scan_seconds += scan_span.stop();
  }

  report.dry_run = config_.dry_run;
  const bool record = config_.dry_run || config_.record_victims;
  std::vector<bool> seen_user;  // affected-user dedup, indexed by UserId
  std::uint64_t remaining = target_purge_bytes;
  obs::TimerSpan apply_span("policy.apply");
  for (const auto& v : victims) {
    if (!no_target && remaining == 0) break;
    const std::string& path = vfs.purge_index().path(v.id);
    if (record) report.victim_paths.push_back(path);
    if (!config_.dry_run) vfs.remove(path);
    report.purged_bytes += v.size;
    ++report.purged_files;
    auto& g = report.group(group_of_(v.owner));
    g.purged_bytes += v.size;
    ++g.purged_files;
    if (v.owner != trace::kInvalidUser) {
      if (v.owner >= seen_user.size()) seen_user.resize(v.owner + 1, false);
      if (!seen_user[v.owner]) {
        seen_user[v.owner] = true;
        ++g.users_affected;
        report.affected_users.push_back(v.owner);
      }
    }
    if (!no_target) remaining -= std::min(remaining, v.size);
  }
  report.phases.apply_seconds += apply_span.stop();

  report.target_reached = no_target || remaining == 0;
  if (!report.target_reached) {
    ADR_INFO << report.policy << ": purge target not reached ("
             << remaining << " bytes short; only expired files are eligible)";
  }
  fill_retained_stats(report, vfs, group_of_);
  return report;
}

}  // namespace adr::retention
