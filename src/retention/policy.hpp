#pragma once
// Shared retention-policy vocabulary.
//
// A policy run purges files from a Vfs at a trigger time, optionally until a
// purge target is met. Targets follow the paper's convention: the
// administrator states the space utilization the scratch space should reach
// (e.g. 50% of capacity); the byte deficit between current usage and that
// target is what a run must free.
//
// The four policies (FLT, ActiveDR, value-based, scratch-as-a-cache) differ
// only in which files they select and in what order. What happens to a
// selected file is the same for all four and lives once, in PurgeApply:
// remove it (unless a dry run), charge it to its owner's activeness group,
// count the owner as affected, and count it off the byte target.

#include <cstdint>
#include <string>
#include <vector>

#include "activeness/classifier.hpp"
#include "fs/vfs.hpp"
#include "retention/report.hpp"

namespace adr::retention {

/// Bytes a purge run must free so that used space drops to
/// `target_utilization` x capacity. Zero when already below target.
std::uint64_t purge_target_bytes(const fs::Vfs& vfs, double target_utilization);

/// Bytes a purge run must free to keep `retain_fraction` of *current usage*
/// (`purge --target`, the daemon's `retain`). Zero (no target) when
/// `retain_fraction` <= 0.
std::uint64_t retain_target_bytes(const fs::Vfs& vfs, double retain_fraction);

/// How a run treats the victims it selects; every policy's run takes one.
struct ApplyOptions {
  /// Select and account victims without deleting anything (operators review
  /// the purge list first). Implies record_victims.
  bool dry_run = false;
  /// Record every victim path into PurgeReport::victim_paths.
  bool record_victims = false;
};

/// One selected file: what PurgeApply::take needs of it.
struct Victim {
  fs::PathId id = fs::kInvalidPathId;
  trace::UserId owner = trace::kInvalidUser;
  std::uint64_t size_bytes = 0;
};

/// Every file idle longer than `lifetime` at `now`, in the Vfs's component
/// path order (the "system scan order" of FLT's to-target mode and of the
/// scratch cache's eviction).
std::vector<Victim> idle_in_scan_order(const fs::Vfs& vfs,
                                       util::TimePoint now,
                                       util::Duration lifetime);

/// The apply step of one policy run, shared by every policy. The report is
/// attributed to `plan`'s groups: each owner is charged to
/// plan.group_of(owner), so an owner the plan does not hold (or an empty
/// plan) counts as Both Inactive.
class PurgeApply {
 public:
  /// Fills the report header and each group's users_total from the Vfs as
  /// it stands before the run. `target_purge_bytes` 0 means no target.
  PurgeApply(fs::Vfs& vfs, const activeness::ScanPlan& plan,
             std::string policy, util::TimePoint now,
             std::uint64_t target_purge_bytes, ApplyOptions options);

  /// Purge one victim: record its path when recording, remove it unless
  /// this is a dry run, charge its bytes to the report and to its owner's
  /// group, count the owner once as affected, and count it off the target.
  /// False, with nothing recorded or counted, when the file is already gone.
  bool take(fs::PathId id, trace::UserId owner, std::uint64_t size_bytes);

  /// True once the byte target is met; never true without a target.
  bool done() const {
    return report_.target_purge_bytes > 0 && remaining_ == 0;
  }
  /// Bytes still to free before the target is met (0 without a target).
  std::uint64_t remaining() const { return remaining_; }

  /// The report so far, for the fields only one policy fills (phase times,
  /// retrospective passes, exempted files).
  PurgeReport& report() { return report_; }

  /// Close the run: set target_reached and each group's retained bytes and
  /// files from the Vfs after the run, and hand the report over.
  PurgeReport finish();

 private:
  fs::Vfs& vfs_;
  const activeness::ScanPlan& plan_;
  bool record_;
  std::uint64_t remaining_;
  std::vector<bool> affected_;  // by user id
  PurgeReport report_;
};

}  // namespace adr::retention
