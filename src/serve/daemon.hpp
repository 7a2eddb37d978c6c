#pragma once
// serve::Daemon — the resident retention service behind `activedr serve`
// (DESIGN.md §13).
//
// A Daemon keeps one core::Service warm and feeds it from the append-only
// event log: every tick it polls the WAL tail, applies the new records,
// answers any control-file commands, and checkpoints on cadence. A purge
// trigger is then a control-file drop, answered from resident rank/index
// state with no trace rescan — the Robinhood changelog idiom applied to the
// paper's activeness pipeline.
//
// Lifecycle:
//
//   start()     recover: newest valid checkpoint bundle (invalid/unsealed
//               ones are skipped — crash mid-checkpoint degrades to the
//               previous one), then position the WAL tailer at the
//               checkpoint's applied seq. No checkpoint: optional seed
//               snapshot, full WAL replay.
//   tick()      poll WAL -> Service::apply (seq-guarded, so replaying an
//               already-applied record is a no-op), process ctl/*.cmd,
//               checkpoint when the cadence says so. Returns false once a
//               stop command (or the external stop flag) was consumed.
//   run()       tick-and-sleep until stopped, then shutdown().
//   shutdown()  graceful exit: drain the WAL, seal the open segment
//               (assumes feeders have quiesced — single-writer log), final
//               checkpoint, final metrics export.
//
// kill -9 at any instant is the covered-by-construction case: in-memory
// state vanishes, disk holds only §10/§10.5 old-or-new artifacts, and the
// next start() reproduces the exact pre-crash state from checkpoint +
// tail replay (byte-identical ranks and victims — see tests/serve).
//
// Control interface: drop `<name>.cmd` into <state_dir>/ctl, a `key =
// value` file ("cmd = trigger|evaluate|checkpoint|status|stop", "now =
// <unix-time>", optional "ranks_out = <path>", "victims_out = <path>").
// The daemon replies with `<name>.out` (same format, "ok = true|false")
// and removes the command file. Replies are written atomically, so a
// waiting client polls for the .out file and never sees a torn reply.
//
// Fault points: serve.post_apply (crash after applying a WAL batch,
// before any checkpoint — forces recovery to re-replay the tail),
// serve.checkpoint.prune (crash between committing checkpoint N and
// removing N-1 — recovery must simply pick the newest valid bundle).
// Checkpoint writes themselves pass through every bundle.* and io.atomic.*
// point.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "activeness/spill.hpp"
#include "core/service.hpp"
#include "serve/health.hpp"
#include "trace/event_log.hpp"
#include "util/backoff.hpp"

namespace adr::serve {

struct DaemonOptions {
  /// Event-log directory the daemon tails (required).
  std::string wal_dir;
  /// Daemon home: checkpoints/ and ctl/ live under it (required).
  std::string state_dir;

  core::ServiceConfig service;

  /// Write a checkpoint after this many newly applied events (0 = only on
  /// explicit `checkpoint` commands and shutdown).
  std::uint64_t checkpoint_every_events = 4096;
  /// Checkpoints retained after a successful new one (>= 1).
  std::size_t keep_checkpoints = 2;

  /// Sleep between run() ticks.
  int poll_interval_ms = 20;
  /// Stop after this many ticks (0 = until stopped) — harness use.
  std::uint64_t max_ticks = 0;
  /// External stop request (signal handlers set it; nullptr = none).
  const std::atomic<bool>* stop_flag = nullptr;

  /// Seed snapshot CSV applied when no usable checkpoint exists ("") —
  /// the scratch state at WAL seq 0.
  std::string snapshot_path;

  /// Periodic metrics export: atomically rewrite this file every
  /// `metrics_every_ticks` ticks and on shutdown ("" = off).
  std::string metrics_out;
  std::uint64_t metrics_every_ticks = 50;

  /// Seal the open WAL segment during graceful shutdown (requires that
  /// feeders have quiesced — the log is single-writer).
  bool seal_wal_on_stop = true;

  /// Bounded ingest admission for in-process producers feeding the service
  /// store (DESIGN.md §14.1): the most events the whole ingest queue
  /// holds. 0 = unbounded (historical behaviour). Applied to the store
  /// after recovery in start().
  std::size_t ingest_queue_cap = 0;
  /// What enqueue() does at a full queue: block the producer, shed
  /// (counted, bounded by shed_budget), or spill to a WAL-backed overflow
  /// segment replayed by tick() when pressure clears.
  activeness::BackpressurePolicy backpressure =
      activeness::BackpressurePolicy::kBlock;
  std::size_t shed_budget = 0;
  /// Spill segment directory for backpressure = spill
  /// ("" = <state_dir>/spill).
  std::string spill_dir;

  /// Trigger watchdog + degradation ladder (DESIGN.md §14.2):
  /// watchdog.trigger_deadline_ms = 0 disables it. On breach the daemon
  /// reports degraded and, if breaches persist, defers new triggers with
  /// jittered backoff — it never dies.
  WatchdogConfig watchdog;

  /// Retry budget for the daemon's own artifact writes — checkpoint
  /// bundles, metrics exports, command replies (DESIGN.md §14.3).
  /// Transient faults (ENOSPC bursts, EINTR, short writes) are retried
  /// with jittered backoff; fatal errors and injected crashes surface
  /// immediately, keeping the crash-recovery path intact.
  /// max_attempts = 1 disables retry.
  util::BackoffPolicy io_retry{.max_attempts = 3,
                               .initial_delay_ms = 1.0,
                               .max_delay_ms = 50.0};
};

class Daemon {
 public:
  /// Registers the paper activity types on the service and forces victim
  /// recording (purge lists are the daemon's product).
  Daemon(trace::UserRegistry registry, DaemonOptions options);

  /// Recover state and position the tailer. Idempotent once succeeded.
  void start();

  /// One scheduler turn; returns false when a stop was requested.
  bool tick();

  /// start() + tick/sleep loop + graceful shutdown(). Returns the exit
  /// code (0 on graceful stop). util::CrashInjected propagates to the
  /// caller — a simulated kill -9 must not run any shutdown path.
  int run();

  /// Graceful shutdown: drain, optionally seal the WAL, final checkpoint
  /// and metrics export.
  void shutdown();

  /// Force a checkpoint now (also invoked by the `checkpoint` command).
  std::string save_checkpoint_now();

  core::Service& service() { return service_; }
  const DaemonOptions& options() const { return options_; }
  std::uint64_t events_applied() const { return events_applied_; }
  bool started() const { return started_; }
  const HealthMonitor& health() const { return health_; }

  std::string checkpoints_dir() const;
  std::string ctl_dir() const;

 private:
  std::size_t poll_wal();
  void process_commands();
  void handle_command(const std::string& cmd_path);
  void prune_checkpoints();
  void export_metrics();
  /// Feed a completed watched phase to the HealthMonitor and apply the
  /// resulting state: overloaded arms the trigger-deferral window.
  void observe_phase(const char* phase,
                     std::chrono::steady_clock::time_point begin);
  void apply_health();
  /// True when an overloaded daemon should leave this trigger command in
  /// place for a later tick (jittered exponential deferral).
  bool defer_trigger() const;
  /// Re-admit spilled events once the ingest queues have drained (spill
  /// backpressure only; a no-op while pressure persists).
  void replay_spill();

  DaemonOptions options_;
  core::Service service_;
  std::optional<trace::EventLogReader> reader_;
  HealthMonitor health_;
  std::unique_ptr<activeness::SpillLog> spill_;

  bool started_ = false;
  bool stopped_ = false;
  std::uint64_t events_applied_ = 0;
  std::uint64_t events_since_checkpoint_ = 0;
  std::uint64_t tick_count_ = 0;

  std::chrono::steady_clock::time_point defer_until_{};
  std::uint64_t checkpoint_retry_at_tick_ = 0;
  int checkpoint_failures_in_row_ = 0;
};

}  // namespace adr::serve
