#include "retention/value_policy.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace adr::retention {

ValuePolicy::ValuePolicy(ValueConfig config)
    : config_(std::move(config)), group_of_([](trace::UserId) {
        return activeness::UserGroup::kBothInactive;
      }) {}

void ValuePolicy::set_group_of(GroupOf group_of) {
  group_of_ = std::move(group_of);
}

namespace {

std::string extension_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::size_t dot = path.find_last_of('.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return "";
  }
  return path.substr(dot);
}

}  // namespace

double ValuePolicy::value_of(const std::string& path, const fs::FileMeta& meta,
                             util::TimePoint now) const {
  const double age_days =
      std::max(0.0, static_cast<double>(now - meta.atime) / 86400.0);
  const double recency = std::exp(-age_days / config_.tau_days);

  const double size_term = std::clamp(
      1.0 - static_cast<double>(meta.size_bytes) / config_.max_size_bytes, 0.0,
      1.0);

  const double freq = std::min(
      1.0, static_cast<double>(meta.access_count) / config_.freq_ref);

  double type_score = config_.default_type_score;
  const auto it = config_.type_scores.find(extension_of(path));
  if (it != config_.type_scores.end()) type_score = it->second;

  return config_.w_recency * recency + config_.w_size * size_term +
         config_.w_freq * freq + config_.w_type * type_score;
}

PurgeReport ValuePolicy::run(fs::Vfs& vfs, util::TimePoint now,
                             std::uint64_t target_purge_bytes) const {
  PurgeReport report;
  report.policy = name();
  report.when = now;
  report.target_purge_bytes = target_purge_bytes;
  fill_users_total(report, vfs, group_of_);

  struct Scored {
    double value;
    std::string path;
    trace::UserId owner;
    std::uint64_t size;
  };
  std::vector<Scored> scored;
  scored.reserve(vfs.file_count());
  vfs.for_each([&](const std::string& path, const fs::FileMeta& meta) {
    scored.push_back(
        {value_of(path, meta, now), path, meta.owner, meta.size_bytes});
  });
  std::sort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
    if (a.value != b.value) return a.value < b.value;
    return a.path < b.path;  // deterministic ties
  });

  const bool no_target = target_purge_bytes == 0;
  std::uint64_t remaining = target_purge_bytes;
  std::vector<bool> seen_user;
  for (const auto& victim : scored) {
    if (no_target) {
      if (victim.value >= config_.value_floor) break;  // sorted: rest valuable
    } else if (remaining == 0) {
      break;
    }
    vfs.remove(victim.path);
    report.purged_bytes += victim.size;
    ++report.purged_files;
    auto& g = report.group(group_of_(victim.owner));
    g.purged_bytes += victim.size;
    ++g.purged_files;
    if (victim.owner != trace::kInvalidUser) {
      if (victim.owner >= seen_user.size()) {
        seen_user.resize(victim.owner + 1, false);
      }
      if (!seen_user[victim.owner]) {
        seen_user[victim.owner] = true;
        ++g.users_affected;
        report.affected_users.push_back(victim.owner);
      }
    }
    if (!no_target) remaining -= std::min(remaining, victim.size);
  }

  report.target_reached = no_target || remaining == 0;
  fill_retained_stats(report, vfs, group_of_);
  return report;
}

}  // namespace adr::retention
