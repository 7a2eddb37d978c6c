#pragma once
// Scan plans that place chosen users in chosen activeness groups, for the
// report-attribution tests: a policy's report charges each owner to
// plan.group_of(owner).

#include <initializer_list>
#include <utility>
#include <vector>

#include "activeness/classifier.hpp"

namespace adr::retention {

/// A plan holding one record per (user, group) pair, each record ranked
/// into its group (rank 2 for an active category, 0.5 for an inactive one).
inline activeness::ScanPlan group_plan(
    std::initializer_list<std::pair<trace::UserId, activeness::UserGroup>>
        members) {
  using activeness::UserGroup;
  std::vector<activeness::UserActiveness> users;
  for (const auto& [user, group] : members) {
    const bool op = group == UserGroup::kBothActive ||
                    group == UserGroup::kOperationActiveOnly;
    const bool oc = group == UserGroup::kBothActive ||
                    group == UserGroup::kOutcomeActiveOnly;
    activeness::UserActiveness ua;
    ua.user = user;
    ua.op = activeness::Rank::from_value(op ? 2.0 : 0.5);
    ua.oc = activeness::Rank::from_value(oc ? 2.0 : 0.5);
    users.push_back(ua);
  }
  return activeness::build_scan_plan(std::move(users));
}

}  // namespace adr::retention
