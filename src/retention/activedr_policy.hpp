#pragma once
// The ActiveDR data-retention procedure (§3.4).
//
// Given a scan plan (users bucketed into the four activeness groups, sorted
// ascending), a run proceeds group by group in ascending activeness order:
//
//   for each group in [Both Inactive, Outcome Active Only,
//                      Operation Active Only, Both Active]:
//     for pass in 0 .. retrospective_passes:          # pass 0 = normal scan
//       decayed multiplier = multiplier x (1 - decay)^pass
//       for each user, in ascending activeness order:
//         purge the user's non-exempt files with
//           now − atime > initial_lifetime x decayed multiplier   (Eq. 7)
//         oldest first, until the byte target is met; stop everything
//         once it is.
//     if target met: stop; else move to the next group.
//
// If the target is still unmet after the Both Active group's passes, the run
// stops and reports target_reached = false (§3.4's "report to the
// administrator").
//
// The scan (DESIGN.md §8 "Purge index") answers the Eq. 7 victim query as
// an atime range over the Vfs's purge index, and makes the retrospective
// passes *scan-once*: a user's candidates are collected a single time, at
// the group's fully-decayed cutoff (decay only widens the victim window, so
// each pass's victims are a prefix), and passes 1..5 just advance a per-user
// cursor. Collection is lazy: it runs serially just ahead of the apply, so a
// trigger pays for the users it reaches rather than for every expired file
// in the groups it enters. (The paper's mpi4py implementation scans user
// shards on parallel ranks; here parallel collection measured no gain over
// serial, DESIGN.md §5.) Within a user, victims go oldest first (atime, then
// path id). An exempt file counts toward exempted_files once per scanned
// group, when it is expired at that group's widest cutoff — also when the
// target stops the apply before the scan reaches its owner. What happens to
// a victim once chosen is PurgeApply's, as for every policy.

#include <cstdint>
#include <string>

#include "activeness/classifier.hpp"
#include "retention/exemption.hpp"
#include "retention/policy.hpp"

namespace adr::retention {

struct ActiveDrConfig {
  /// Initial file lifetime d in days (Eq. 7); the paper uses the facility's
  /// FLT lifetime (90 days on Spider II).
  int initial_lifetime_days = 90;

  /// Number of retrospective re-scans of a group after its normal scan
  /// ("currently five times in our implementation").
  int retrospective_passes = 5;
  /// Per-pass rank decay ("currently 20%").
  double retrospective_decay = 0.20;

  /// Which reading of Eq. 7 to apply to inactive categories (DESIGN.md §5).
  activeness::LifetimeMode lifetime_mode =
      activeness::LifetimeMode::kActiveCategoriesOnly;
  /// Clamps for the lifetime multiplier.
  double min_multiplier = 1e-3;
  double max_multiplier = 1e6;
};

class ActiveDrPolicy {
 public:
  explicit ActiveDrPolicy(ActiveDrConfig config);

  /// Borrow the administrator's reservation list (optional): read in place
  /// by every later run, so it must outlive them.
  void set_exemptions(const ExemptionList& exemptions) {
    exemptions_ = &exemptions;
  }
  void set_exemptions(ExemptionList&&) = delete;  // would dangle
  /// The borrowed list, or an empty one.
  const ExemptionList& exemptions() const;

  /// Purge at `now` until `target_purge_bytes` are freed (0 = no target:
  /// one normal pass over every group, purging everything expired under the
  /// adjusted lifetimes), scanning `plan`'s groups and attributing the
  /// report to them.
  PurgeReport run(fs::Vfs& vfs, util::TimePoint now,
                  std::uint64_t target_purge_bytes,
                  const activeness::ScanPlan& plan,
                  ApplyOptions options = {}) const;

  /// The effective file lifetime (seconds) ActiveDR grants this user at the
  /// given retrospective pass — exposed for tests and the ablation benches.
  util::Duration effective_lifetime(const activeness::UserActiveness& ua,
                                    int pass) const;

  const ActiveDrConfig& config() const { return config_; }
  std::string name() const;

 private:
  ActiveDrConfig config_;
  const ExemptionList* exemptions_ = nullptr;
};

}  // namespace adr::retention
