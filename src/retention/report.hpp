#pragma once
// Purge reports: everything the paper's evaluation section reads off a
// retention run — per-group purged/retained bytes and file counts (Figs.
// 9/10, Tables 4–6), affected-user counts (Fig. 11), and the retrospective
// pass bookkeeping unique to ActiveDR.

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "activeness/classifier.hpp"
#include "trace/types.hpp"
#include "util/time.hpp"

namespace adr::retention {

struct GroupStats {
  std::uint64_t purged_bytes = 0;
  std::uint64_t retained_bytes = 0;
  std::size_t purged_files = 0;
  std::size_t retained_files = 0;
  std::size_t users_affected = 0;  ///< users who lost >= 1 file
  std::size_t users_total = 0;     ///< users with >= 1 file before the run
};

/// Wall-time attribution of one retention run, split by phase. ActiveDR
/// fills this from its obs timer spans; single-phase policies may leave it
/// zeroed. The same numbers accumulate into the global metrics registry
/// under the "policy.scan" / "policy.apply" spans.
struct PhaseTimings {
  double scan_seconds = 0.0;   ///< candidate collection, summed over passes
  double apply_seconds = 0.0;  ///< apply phase less its collection, summed

  double total_seconds() const { return scan_seconds + apply_seconds; }
};

struct PurgeReport {
  std::string policy;
  util::TimePoint when = 0;

  std::uint64_t target_purge_bytes = 0;  ///< 0 = no target (purge all expired)
  std::uint64_t purged_bytes = 0;
  std::size_t purged_files = 0;
  bool target_reached = true;

  /// ActiveDR only: how many retrospective passes each scan needed, total.
  int retrospective_passes_used = 0;
  /// Per-phase wall time of this run (see PhaseTimings).
  PhaseTimings phases;
  /// Files skipped because they were on the reservation list.
  std::size_t exempted_files = 0;

  /// Indexed by activeness::UserGroup: every policy's report follows the
  /// groups of the scan plan it ran against (PurgeApply), so the comparison
  /// figures line up.
  std::array<GroupStats, activeness::kGroupCount> by_group{};

  /// Users who lost at least one file in this run (unique, unordered) —
  /// lets callers accumulate Fig. 11's unique-affected-users over a year of
  /// triggers.
  std::vector<trace::UserId> affected_users;

  /// True when the run was a dry run: victims were selected and accounted
  /// but nothing was deleted (retained stats then describe the *untouched*
  /// state).
  bool dry_run = false;
  /// The selected victims, populated when the run's record_victims (or
  /// dry_run) apply option is on — the purge list operators review before
  /// committing.
  std::vector<std::string> victim_paths;

  GroupStats& group(activeness::UserGroup g) {
    return by_group[static_cast<std::size_t>(g)];
  }
  const GroupStats& group(activeness::UserGroup g) const {
    return by_group[static_cast<std::size_t>(g)];
  }

  std::uint64_t total_retained_bytes() const;
  std::size_t total_users_affected() const;

  /// Human-readable table for operators.
  void print(std::ostream& out) const;

  /// Write victim_paths to `path`, one per line and no footer: the purge
  /// list of `purge --victims` and the daemon's victims_out. Committed via
  /// util::io::AtomicWriter (fsync per util::io::default_fsync()), so a
  /// crash leaves the old list or the whole new one, never a torn one.
  void save_victims(const std::string& path) const;
};

}  // namespace adr::retention
