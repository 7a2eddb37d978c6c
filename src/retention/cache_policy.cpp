#include "retention/cache_policy.hpp"

#include <vector>

namespace adr::retention {

ScratchCachePolicy::ScratchCachePolicy(ScratchCacheConfig config)
    : config_(config), group_of_([](trace::UserId) {
        return activeness::UserGroup::kBothInactive;
      }) {}

void ScratchCachePolicy::set_group_of(GroupOf group_of) {
  group_of_ = std::move(group_of);
}

PurgeReport ScratchCachePolicy::run(fs::Vfs& vfs, util::TimePoint now,
                                    std::uint64_t /*target_purge_bytes*/) const {
  PurgeReport report;
  report.policy = name();
  report.when = now;
  report.target_purge_bytes = 0;  // the cache semantic has no byte target
  fill_users_total(report, vfs, group_of_);

  const util::Duration horizon = util::days(config_.in_use_horizon_days);
  struct Victim {
    std::string path;
    trace::UserId owner;
    std::uint64_t size;
  };
  std::vector<Victim> victims;
  vfs.for_each([&](const std::string& path, const fs::FileMeta& meta) {
    if (now - meta.atime > horizon) {
      victims.push_back({path, meta.owner, meta.size_bytes});
    }
  });

  std::vector<bool> seen_user;
  for (const auto& v : victims) {
    vfs.remove(v.path);
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
  }

  report.target_reached = true;
  fill_retained_stats(report, vfs, group_of_);
  return report;
}

}  // namespace adr::retention
