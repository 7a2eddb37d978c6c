#include "retention/policy.hpp"

#include <algorithm>
#include <utility>

namespace adr::retention {

std::uint64_t purge_target_bytes(const fs::Vfs& vfs,
                                 double target_utilization) {
  if (target_utilization < 0.0) target_utilization = 0.0;
  const double target_used =
      target_utilization * static_cast<double>(vfs.capacity_bytes());
  const double used = static_cast<double>(vfs.total_bytes());
  if (used <= target_used) return 0;
  return static_cast<std::uint64_t>(used - target_used);
}

std::uint64_t retain_target_bytes(const fs::Vfs& vfs, double retain_fraction) {
  if (retain_fraction <= 0.0) return 0;
  return static_cast<std::uint64_t>(static_cast<double>(vfs.total_bytes()) *
                                    (1.0 - retain_fraction));
}

std::vector<Victim> idle_in_scan_order(const fs::Vfs& vfs,
                                       util::TimePoint now,
                                       util::Duration lifetime) {
  std::vector<Victim> victims;
  vfs.for_each([&](const std::string&, const fs::FileMeta& meta) {
    if (now - meta.atime > lifetime) {
      victims.push_back({meta.path_id, meta.owner, meta.size_bytes});
    }
  });
  return victims;
}

PurgeApply::PurgeApply(fs::Vfs& vfs, const activeness::ScanPlan& plan,
                       std::string policy, util::TimePoint now,
                       std::uint64_t target_purge_bytes, ApplyOptions options)
    : vfs_(vfs),
      plan_(plan),
      record_(options.dry_run || options.record_victims),
      remaining_(target_purge_bytes) {
  report_.policy = std::move(policy);
  report_.when = now;
  report_.target_purge_bytes = target_purge_bytes;
  report_.dry_run = options.dry_run;
  // The "Users" denominator of Fig. 11: owners holding >= 1 file before
  // the run.
  for (const auto& [user, usage] : vfs_.usage_by_user()) {
    if (usage.files == 0) continue;
    ++report_.group(plan_.group_of(user)).users_total;
  }
}

bool PurgeApply::take(fs::PathId id, trace::UserId owner,
                      std::uint64_t size_bytes) {
  // Recorded before the remove, which releases the id for reuse.
  const std::string& path = vfs_.purge_index().path(id);
  if (record_) report_.victim_paths.push_back(path);
  if (!report_.dry_run && !vfs_.remove(path)) {
    if (record_) report_.victim_paths.pop_back();
    return false;
  }
  report_.purged_bytes += size_bytes;
  ++report_.purged_files;
  GroupStats& g = report_.group(plan_.group_of(owner));
  g.purged_bytes += size_bytes;
  ++g.purged_files;
  if (owner != trace::kInvalidUser) {
    if (owner >= affected_.size()) affected_.resize(owner + 1, false);
    if (!affected_[owner]) {
      affected_[owner] = true;
      ++g.users_affected;
      report_.affected_users.push_back(owner);
    }
  }
  remaining_ -= std::min(remaining_, size_bytes);
  return true;
}

PurgeReport PurgeApply::finish() {
  report_.target_reached = remaining_ == 0;
  for (const auto& [user, usage] : vfs_.usage_by_user()) {
    if (usage.files == 0) continue;
    GroupStats& g = report_.group(plan_.group_of(user));
    g.retained_bytes += usage.bytes;
    g.retained_files += usage.files;
  }
  return std::move(report_);
}

}  // namespace adr::retention
