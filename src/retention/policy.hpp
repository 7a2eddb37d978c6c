#pragma once
// Shared retention-policy vocabulary.
//
// A policy run purges files from a Vfs at a trigger time, optionally until a
// purge target is met. Targets follow the paper's convention: the
// administrator states the space utilization the scratch space should reach
// (e.g. 50% of capacity); the byte deficit between current usage and that
// target is what a run must free.

#include <cstdint>

#include "fs/vfs.hpp"
#include "retention/report.hpp"

namespace adr::retention {

/// How a policy run finds expired files.
enum class ScanMode {
  /// Policy-specific default: ActiveDR always takes the indexed path (its
  /// victim selection is identical in both modes by construction); FLT
  /// takes it only for strict (no-target) runs, where victim *order* is
  /// unobservable, and keeps the legacy path-order walk when a byte target
  /// makes the order part of its documented semantics.
  kAuto,
  /// Path-order walk of the file table per pass (the seed behaviour; the
  /// bench baseline).
  kWalk,
  /// Range queries against the Vfs's atime-ordered purge index; ActiveDR's
  /// retrospective passes become cursor advances over candidates
  /// materialized once per group (scan-once).
  kIndexed,
};

/// Bytes a purge run must free so that used space drops to
/// `target_utilization` x capacity. Zero when already below target.
std::uint64_t purge_target_bytes(const fs::Vfs& vfs, double target_utilization);

/// Count users holding >= 1 file per report group (the "Users" denominator
/// of Fig. 11), written into `report.by_group[*].users_total`.
void fill_users_total(PurgeReport& report, const fs::Vfs& vfs,
                      const GroupOf& group_of);

/// Populate retained bytes/files per group from post-purge Vfs accounting.
void fill_retained_stats(PurgeReport& report, const fs::Vfs& vfs,
                         const GroupOf& group_of);

}  // namespace adr::retention
