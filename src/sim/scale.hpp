#pragma once
// Million-user scale harness (DESIGN.md §15).
//
// run_scale drives a core::Service from synth::StreamSynth's merged event
// stream: job/publication activities enqueue into the ActivityStore's
// ingest queue, file creates/accesses hit the Vfs's file table,
// and ActiveDR purge triggers fire at a fixed simulated cadence. Nothing is
// materialized up front — peak RSS measures the retention structures, not
// the workload generator.
//
// Correctness anchor: check_scale_identity runs the same configuration
// twice — streamed ingest into the ingest queue, then the materialized
// event vector appended directly — and demands byte-identical event
// sequences, final ranks, and per-trigger purge victims. The scale
// path is only trusted because the small tier proves it exact.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "synth/stream_synth.hpp"
#include "util/time.hpp"

namespace adr::sim {

struct ScaleConfig {
  std::size_t users = 10'000;
  std::uint64_t seed = 42;

  std::size_t initial_files_per_user = 10;
  double events_per_user_day = 2.0;
  int sim_span_days = 30;
  int backfill_days = 400;
  int lifetime_days = 30;  ///< Eq. 7 base lifetime (backfill is expired)

  /// Simulated days between purge triggers.
  double trigger_every_days = 5.0;

  bool streamed = true;      ///< false: apply the materialized vector
  bool dry_run = false;      ///< purges mutate by default (scale realism)
  bool record_victims = false;
};

struct ScaleResult {
  std::size_t users = 0;
  std::size_t events = 0;
  std::size_t files_created = 0;
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
  std::size_t triggers = 0;
  double trigger_p50_ms = 0.0;
  double trigger_p99_ms = 0.0;
  double trigger_max_ms = 0.0;
  std::uint64_t rss_peak_bytes = 0;
  std::uint64_t purged_bytes = 0;
  std::size_t purged_files = 0;
  /// Per-trigger victim paths (record_victims only) — the identity probe.
  std::vector<std::vector<std::string>> victims_per_trigger;
  /// Final (user, op key, oc key, last_activity) tuples for rank identity.
  std::vector<std::string> rank_fingerprint;
};

ScaleResult run_scale(const ScaleConfig& config);

struct ScaleIdentityResult {
  bool events_identical = false;   ///< next()-drain vs materialize()
  bool ranks_identical = false;    ///< streamed vs materialized
  bool victims_identical = false;  ///< per-trigger victim path lists
  std::size_t triggers = 0;
  bool ok() const {
    return events_identical && ranks_identical && victims_identical;
  }
};

/// The small-tier correctness anchor (forces record_victims and real
/// purges): streamed mode against materialized mode.
ScaleIdentityResult check_scale_identity(const ScaleConfig& config);

}  // namespace adr::sim
