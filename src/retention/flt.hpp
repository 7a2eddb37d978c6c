#pragma once
// The fixed-lifetime (FLT) baseline (§2): purge every file whose age since
// last access exceeds a fixed lifetime. This is the policy deployed at the
// facilities of Table 1, and the baseline all paper figures compare against.
//
// Two modes, each with its own selection (the apply is PurgeApply's):
//  * strict (target = 0): purge *all* expired files — the classic cron
//    behaviour behind Fig. 1. The victim set is order-independent, so it is
//    read straight off the Vfs's atime-ordered purge index;
//  * purge-to-target: purge expired files in system scan order (a walk of
//    the Vfs in component path order) until the byte target is met — the
//    "same purge target" comparison mode of §4. FLT has no recourse beyond
//    expired files: if they don't cover the target the run reports
//    target_reached = false.
//
// FLT reads no reservation list.

#include <cstdint>
#include <string>

#include "retention/policy.hpp"

namespace adr::retention {

struct FltConfig {
  int lifetime_days = 90;

  /// Facility presets from Table 1.
  static FltConfig ncar() { return {120}; }
  static FltConfig olcf() { return {90}; }
  static FltConfig tacc() { return {30}; }
  static FltConfig nersc() { return {84}; }  // "12-week old"
};

class FltPolicy {
 public:
  explicit FltPolicy(FltConfig config);

  /// Purge at `now`; free at least `target_purge_bytes` (0 = all expired).
  /// The report's rows follow `plan`'s groups (the comparison figures group
  /// FLT results by the ActiveDR classification); an empty plan puts every
  /// owner in Both Inactive.
  PurgeReport run(fs::Vfs& vfs, util::TimePoint now,
                  std::uint64_t target_purge_bytes,
                  const activeness::ScanPlan& plan,
                  ApplyOptions options = {}) const;

  const FltConfig& config() const { return config_; }
  std::string name() const;

 private:
  FltConfig config_;
};

}  // namespace adr::retention
