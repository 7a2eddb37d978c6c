#pragma once
// The fixed-lifetime (FLT) baseline (§2): purge every file whose age since
// last access exceeds a fixed lifetime. This is the policy deployed at the
// facilities of Table 1, and the baseline all paper figures compare against.
//
// Two modes:
//  * strict (target = 0): purge *all* expired files — the classic cron
//    behaviour behind Fig. 1;
//  * purge-to-target: purge expired files in system scan order (the Vfs's
//    component path order) until the byte target is met — the "same purge
//    target" comparison mode of §4. FLT has no recourse beyond expired
//    files: if they don't cover the target the run reports
//    target_reached = false.

#include <cstdint>
#include <string>

#include "retention/policy.hpp"

namespace adr::retention {

struct FltConfig {
  int lifetime_days = 90;
  /// Select and account victims without deleting anything.
  bool dry_run = false;
  /// Record every victim path into PurgeReport::victim_paths.
  bool record_victims = false;

  /// kIndexed: read expired files straight off the Vfs's atime-ordered
  /// purge index, oldest first, instead of walking the file table. kWalk
  /// keeps the legacy component path order. kAuto picks indexed for strict
  /// (no-target) runs — where the victim *set* is order-independent — and
  /// the walk for purge-to-target runs, whose documented semantics purge in
  /// system scan order.
  ScanMode scan_mode = ScanMode::kAuto;

  /// Facility presets from Table 1.
  static FltConfig ncar() { return {120}; }
  static FltConfig olcf() { return {90}; }
  static FltConfig tacc() { return {30}; }
  static FltConfig nersc() { return {84}; }  // "12-week old"
};

class FltPolicy {
 public:
  explicit FltPolicy(FltConfig config);

  /// Attribute per-group report rows (comparison figures group FLT results
  /// by the ActiveDR classification). Defaults to Both-Inactive for all.
  void set_group_of(GroupOf group_of);

  /// Purge at `now`; free at least `target_purge_bytes` (0 = all expired).
  PurgeReport run(fs::Vfs& vfs, util::TimePoint now,
                  std::uint64_t target_purge_bytes = 0) const;

  const FltConfig& config() const { return config_; }
  std::string name() const;

 private:
  FltConfig config_;
  GroupOf group_of_;
};

}  // namespace adr::retention
