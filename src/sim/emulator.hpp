#pragma once
// The trace-replay emulator (§4.1.3).
//
// A run replays the scenario's application log day by day on one
// core::Service — the same orchestration layer the daemon keeps resident —
// whose Vfs starts from the scenario's initial snapshot: accesses bump
// atimes (absent paths are *file misses*), creates add files, and every
// purge-trigger interval fires Service::purge under the run's policy.
// Every policy is driven through the same loop so their miss series are
// directly comparable.
//
// The Service evaluates user activeness at every trigger instant, before
// the "already below target" skip, and each access and the end-of-year
// aggregates are attributed to its latest evaluation. Triggers and
// accesses replay in time order, so an access at t sees the evaluation of
// the last trigger at or before t whichever policy runs — the per-group
// figures of two runs line up the way the paper's do.

#include <array>
#include <string>
#include <vector>

#include "core/service.hpp"
#include "fs/archive.hpp"
#include "retention/report.hpp"
#include "sim/metrics.hpp"
#include "synth/titan_model.hpp"

namespace adr::sim {

struct EmulatorConfig {
  int purge_interval_days = 7;
  /// Model the paper's "expensive re-transmission": after a miss the user
  /// restores the file from the archive tier, so later accesses hit again
  /// (each purge therefore costs one counted miss per revisited file, not
  /// an unbounded stream of repeats). On by default: the paper replays a
  /// *real* application log, which already embeds users' reactions to
  /// purges — a synthetic trace needs the feedback loop closed explicitly
  /// or every lost file is re-missed forever and the miss ratio diverges.
  /// Every purge flows into the archive either way; restores account their
  /// bytes and modeled wait time (EmulationResult::archive).
  bool restore_on_miss = true;
  /// Restore bandwidth/latency model for the archive tier.
  fs::ArchiveConfig archive;
  /// Consistency-check mode: after every purge trigger, cross-verify the
  /// Vfs's purge index against its file table (Vfs::verify_purge_index).
  /// O(files) per trigger — for tests and debugging, not production runs.
  bool audit_purge_index = false;
};

/// Per-group aggregates over a whole emulation (the Fig. 9–11 numbers).
struct GroupAggregate {
  std::uint64_t purged_bytes = 0;
  std::size_t purged_files = 0;
  std::uint64_t retained_bytes = 0;  ///< final state
  std::size_t retained_files = 0;    ///< final state
  std::size_t unique_affected_users = 0;
  std::size_t users_in_group = 0;    ///< population at final evaluation
};

struct EmulationResult {
  std::string policy;
  std::vector<DailyMissStats> daily;
  std::vector<retention::PurgeReport> purges;
  std::array<GroupAggregate, activeness::kGroupCount> groups{};

  std::size_t total_accesses = 0;
  std::size_t total_misses = 0;
  std::uint64_t final_bytes = 0;
  std::size_t final_files = 0;

  /// Archive-tier accounting: what the year's purges displaced and what
  /// the misses cost to restore (bytes moved, modeled hours waited) — the
  /// §1/§2 re-transmission cost, quantified.
  fs::ArchiveStats archive;
};

/// Load a Titan scenario into a fresh Service: register the paper's two
/// activity types (job submissions as operations, publications as
/// outcomes), ingest the job and publication logs, load the initial
/// snapshot and set the scratch capacity.
void load_scenario(core::Service& service,
                   const synth::TitanScenario& scenario);

/// Replay the scenario's year on `service` (loaded by load_scenario) under
/// `policy`, purging toward the service's own
/// config().purge_target_utilization at every trigger: <= 0 is strict mode
/// (every trigger purges all expired files, Fig. 1); above 0 a trigger
/// whose utilization already sits at or below the target purges nothing.
/// The replay mutates the service's Vfs.
EmulationResult replay(const synth::TitanScenario& scenario,
                       core::Service& service, core::Policy policy,
                       const EmulatorConfig& config);

}  // namespace adr::sim
