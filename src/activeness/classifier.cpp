#include "activeness/classifier.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "util/thread_pool.hpp"

namespace adr::activeness {

const char* group_name(UserGroup g) {
  switch (g) {
    case UserGroup::kBothActive: return "Both Active";
    case UserGroup::kOperationActiveOnly: return "Operation Active Only";
    case UserGroup::kOutcomeActiveOnly: return "Outcome Active Only";
    case UserGroup::kBothInactive: return "Both Inactive";
  }
  return "?";
}

UserGroup classify(const UserActiveness& ua) {
  const bool op = ua.op.active();
  const bool oc = ua.oc.active();
  if (op && oc) return UserGroup::kBothActive;
  if (op) return UserGroup::kOperationActiveOnly;
  if (oc) return UserGroup::kOutcomeActiveOnly;
  return UserGroup::kBothInactive;
}

std::size_t ScanPlan::total_users() const {
  std::size_t n = 0;
  for (const auto& g : groups) n += g.size();
  return n;
}

ScanKey scan_key(UserGroup group, const UserActiveness& ua,
                 std::uint32_t index) {
  const bool by_op = group == UserGroup::kBothInactive ||
                     group == UserGroup::kOutcomeActiveOnly;
  const long double op = ua.op.sort_key();
  const long double oc = ua.oc.sort_key();
  return {by_op ? op : oc, by_op ? oc : op, ua.last_activity, ua.user, index};
}

bool scan_key_less(const ScanKey& a, const ScanKey& b) {
  if (a.primary != b.primary) return a.primary < b.primary;
  if (a.secondary != b.secondary) return a.secondary < b.secondary;
  if (a.last_activity != b.last_activity)
    return a.last_activity > b.last_activity;
  return a.user < b.user;
}

void ScanPlan::sort_keys() {
  for (auto& keys : groups) keys.clear();
  // Dense by user id in the pipeline, so the table never grows there.
  group_by_user.assign(users.size(), UserGroup::kBothInactive);
  for (std::size_t i = 0; i < users.size(); ++i) {
    const UserActiveness& ua = users[i];
    const UserGroup group = classify(ua);
    groups[static_cast<std::size_t>(group)].push_back(
        scan_key(group, ua, static_cast<std::uint32_t>(i)));
    if (ua.user >= group_by_user.size()) {
      group_by_user.resize(ua.user + std::size_t{1}, UserGroup::kBothInactive);
    }
    group_by_user[ua.user] = group;
  }
  // The groups sort independently, one pool task each: rebuilds run this
  // on every busy trigger.
  util::global_pool().parallel_for(
      0, kGroupCount,
      [this](std::size_t g) {
        std::sort(groups[g].begin(), groups[g].end(), scan_key_less);
      },
      /*grain=*/1);
}

ScanPlan build_scan_plan(std::vector<UserActiveness> users) {
  ScanPlan plan;
  plan.users = std::move(users);
  plan.sort_keys();
  return plan;
}

double lifetime_multiplier(const UserActiveness& ua, LifetimeMode mode,
                           double min_multiplier, double max_multiplier) {
  double m = 1.0;
  switch (mode) {
    case LifetimeMode::kActiveCategoriesOnly:
      if (ua.op.active()) m *= ua.op.value(1.0, max_multiplier);
      if (ua.oc.active()) m *= ua.oc.value(1.0, max_multiplier);
      break;
    case LifetimeMode::kLiteralEq7:
      m = ua.op.value(min_multiplier, max_multiplier) *
          ua.oc.value(min_multiplier, max_multiplier);
      break;
  }
  return std::clamp(m, min_multiplier, max_multiplier);
}

}  // namespace adr::activeness
