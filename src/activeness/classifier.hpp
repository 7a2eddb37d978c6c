#pragma once
// User classification (§3.3) and the purge scan ordering (§3.4).
//
// The four-quadrant matrix of Fig. 4: operation activeness x outcome
// activeness. The data-retention scan visits groups in ascending overall
// activeness — Both Inactive, Outcome Active Only, Operation Active Only,
// Both Active — and, within a group, users in ascending rank (operation rank
// first for the inactive-operation groups; outcome rank first for the
// active-operation groups, per the paper's "ascending order of the outcome
// activeness" for the latter two).

#include <array>
#include <string>
#include <vector>

#include "activeness/evaluator.hpp"

namespace adr::activeness {

/// Indices follow the paper's G(1)..G(4) labels in Fig. 5.
enum class UserGroup {
  kBothActive = 0,          // G(1)
  kOperationActiveOnly = 1, // G(2)
  kOutcomeActiveOnly = 2,   // G(3)
  kBothInactive = 3,        // G(4)
};

inline constexpr std::size_t kGroupCount = 4;

const char* group_name(UserGroup g);

UserGroup classify(const UserActiveness& ua);

/// Group visit order for the purge scan (ascending activeness).
inline constexpr std::array<UserGroup, kGroupCount> kScanOrder = {
    UserGroup::kBothInactive,
    UserGroup::kOutcomeActiveOnly,
    UserGroup::kOperationActiveOnly,
    UserGroup::kBothActive,
};

/// All users bucketed by group, each bucket sorted in scan (ascending
/// activeness) order.
struct ScanPlan {
  std::array<std::vector<UserActiveness>, kGroupCount> groups;  // by UserGroup

  const std::vector<UserActiveness>& group(UserGroup g) const {
    return groups[static_cast<std::size_t>(g)];
  }
  std::size_t total_users() const;
};

ScanPlan build_scan_plan(const std::vector<UserActiveness>& users);

/// The strict total order a group's users are scanned in (rank keys, then
/// the recency tie-break, then user id; classifier.cpp's ScanKey states it)
/// — exposed so incremental plan maintenance can splice re-evaluated users
/// into a sorted group and land exactly where a full build_scan_plan
/// rebuild would put them.
bool scan_less(UserGroup group, const UserActiveness& a,
               const UserActiveness& b);

/// How an inactive user's file lifetime is derived — the paper is ambiguous
/// between two readings (see DESIGN.md):
enum class LifetimeMode {
  /// §3.4 reading (default): only *active* categories multiply into Eq. 7;
  /// inactive or data-free categories contribute a neutral 1.0, so inactive
  /// users start from the initial lifetime and only the retrospective decay
  /// shortens it.
  kActiveCategoriesOnly,
  /// Eq. 7 verbatim: ε = d x Φop x Φoc with Φ < 1 shrinking the lifetime
  /// (floored at `min_multiplier`).
  kLiteralEq7,
};

/// Eq. 7's multiplier for a user's file lifetime: ε_f = d x multiplier.
double lifetime_multiplier(const UserActiveness& ua, LifetimeMode mode,
                           double min_multiplier = 1e-3,
                           double max_multiplier = 1e6);

}  // namespace adr::activeness
