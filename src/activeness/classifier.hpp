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
#include <cstdint>
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

/// A user's position in its group's scan order, flattened: the group's
/// primary rank key (operation rank for the operation-inactive groups,
/// outcome rank for the operation-active ones), the other rank, then the
/// recency tie-break and the user id. 48 bytes against UserActiveness's 96,
/// so a ScanPlan's groups hold keys, not records: build_scan_plan and the
/// incremental pipeline's plan splice sort and merge keys.
///
/// Rank ties (the bulk of the population sits at Φ = 0 exactly) break on
/// recency, *most recently active first*: a still-writing-but-inactive
/// user keeps producing fresh data and rarely re-reads old files, so their
/// stale files are the harmless purge fodder; a user who has gone quiet is
/// exactly the paused-project case of §1 who may come back for what they
/// left — scan them last. User id breaks exact ties for determinism.
///
/// Operation-inactive groups (Both Inactive, Outcome Active Only) sort by
/// operation rank, then outcome rank (§3.3: operation rank has priority);
/// operation-active groups "in an ascending order of the outcome
/// activeness" (§3.4).
struct ScanKey {
  long double primary = 0.0L;
  long double secondary = 0.0L;
  util::TimePoint last_activity = 0;
  trace::UserId user = 0;
  std::uint32_t index = 0;  // the record's slot (not compared by the order)

  friend bool operator==(const ScanKey&, const ScanKey&) = default;
};

ScanKey scan_key(UserGroup group, const UserActiveness& ua,
                 std::uint32_t index);

/// The strict total order a group's users are scanned in. Strict and total
/// (the user id breaks every tie), so a plan patched by splicing sorted
/// keys into a sorted group is element-for-element a build_scan_plan.
bool scan_key_less(const ScanKey& a, const ScanKey& b);

/// All users bucketed by group, each bucket sorted in scan (ascending
/// activeness) order. The plan stores every record once, in `users`; a
/// group holds only its users' ScanKeys, and at(key) reads the record a
/// key stands for. Sorting or splicing a group therefore moves 48-byte
/// keys, never records; `group_by_user` holds the same groups by user id. A
/// plan owns its records, so a copy or a move reads its own. It is the only
/// in-memory copy of an evaluation.
struct ScanPlan {
  std::vector<UserActiveness> users;                     // by ScanKey::index
  std::array<std::vector<ScanKey>, kGroupCount> groups;  // by UserGroup
  /// Each record's group, by its user id; sized to the largest id + 1,
  /// kBothInactive where no record carries the id.
  std::vector<UserGroup> group_by_user;

  const std::vector<ScanKey>& group(UserGroup g) const {
    return groups[static_cast<std::size_t>(g)];
  }
  const UserActiveness& at(const ScanKey& key) const {
    return users[key.index];
  }
  /// kBothInactive (a fresh account's group) for an id past the table.
  UserGroup group_of(trace::UserId user) const {
    return user < group_by_user.size() ? group_by_user[user]
                                       : UserGroup::kBothInactive;
  }
  std::size_t total_users() const;

  /// Classify every record, rebuild the groups' keys (index = the record's
  /// slot in `users`) and group_by_user, and sort each group, one pool
  /// task per group. The vectors keep their capacity.
  void sort_keys();
};

/// Takes the records by value, so a plan built from a temporary owns what
/// it reads; pass an lvalue to copy, std::move to hand it over.
ScanPlan build_scan_plan(std::vector<UserActiveness> users);

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
