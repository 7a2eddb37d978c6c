#pragma once
// core::Service — the shared trigger/evaluate/purge orchestration layer
// (DESIGN.md §13).
//
// Before this layer existed, three call sites each rebuilt the same wiring
// by hand: Engine (the library entry point), cli/commands.cpp (one-shot
// `evaluate`/`purge`), and sim/loadgen.cpp (the sustained-load harness).
// Service owns that wiring once — registry, activity catalog + store,
// IncrementalEvaluator pipeline, Vfs, exemptions — and everything above it
// is a thin adapter: Engine forwards its public API here, the CLI builds a
// Service per invocation, and `activedr serve` keeps one resident and feeds
// it from the WAL.
//
// Three capabilities are new at this layer (the daemon needs them, the
// one-shot paths get them for free):
//
//  * apply(Event): a WAL record mutates exactly the state the bulk loaders
//    would have built — kJob/kPublication stream into the ActivityStore
//    (same type ids and impacts as ingest_jobs/ingest_publications),
//    kCreate/kAccess/kRemove hit the Vfs. Replay is idempotent: records at
//    or below last_applied_seq() are skipped, so a tail replayed twice is
//    a no-op.
//  * save_checkpoint()/restore_checkpoint(): full activity streams + Vfs
//    snapshot + applied-seq meta, sealed as a §10.5 bundle (MANIFEST
//    committed last). Restore + WAL-tail replay reproduces cold-replay
//    state byte-identically: activities.csv preserves per-stream order and
//    a stable sort_all() keeps equal-timestamp arrival order, so streams,
//    ranks, scan plans, and victims all match.
//  * an evaluate() cache guard that also checks pending ingest, so a
//    repeated-`now` trigger with events still on the ingest queue is never
//    skipped.

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "activeness/rank_store.hpp"
#include "activeness/incremental.hpp"
#include "fs/vfs.hpp"
#include "retention/activedr_policy.hpp"
#include "retention/flt.hpp"
#include "trace/event_log.hpp"
#include "trace/user_registry.hpp"

namespace adr::core {

/// Everything a deployment configures once. The first block mirrors
/// Engine::Options (Eq. 7 knobs, retrospective policy, purge target, eval
/// mode); the second block carries the execution knobs the CLI used to
/// thread by hand into each policy run.
struct ServiceConfig {
  int lifetime_days = 90;
  double purge_target_utilization = 0.5;
  int retrospective_passes = 5;
  double retrospective_decay = 0.20;
  activeness::LifetimeMode lifetime_mode =
      activeness::LifetimeMode::kActiveCategoriesOnly;
  activeness::ExponentScheme scheme =
      activeness::ExponentScheme::kPaperExponent;
  int max_periods = 0;
  activeness::EvalMode eval_mode = activeness::EvalMode::kAuto;

  retention::ScanMode scan_mode = retention::ScanMode::kAuto;
  bool dry_run = false;
  bool record_victims = false;
};

/// WAL events carry no catalog ids, only kinds; these are the fixed type
/// ids kJob/kPublication map to — the paper_default() registration order
/// ("job_submission" first, "publication" second), which every trace-file
/// ingest path in the CLI also follows.
inline constexpr activeness::ActivityTypeId kJobActivityType = 0;
inline constexpr activeness::ActivityTypeId kPublicationActivityType = 1;

class Service {
 public:
  Service(trace::UserRegistry registry, ServiceConfig config);

  // -- one-time configuration -------------------------------------------
  activeness::ActivityTypeId register_operation_type(const std::string& name,
                                                     double weight = 1.0);
  activeness::ActivityTypeId register_outcome_type(const std::string& name,
                                                   double weight = 1.0);
  /// Register the paper's two types at their fixed ids (job_submission = 0,
  /// publication = 1) — required before apply() sees kJob/kPublication.
  /// Throws if types were already registered.
  void register_paper_types();

  /// Reserve a path (file or directory subtree) against purging.
  void reserve(const std::string& path);
  void set_exemptions(retention::ExemptionList exemptions);

  // -- activity tracing ---------------------------------------------------
  void record(trace::UserId user, activeness::ActivityTypeId type,
              util::TimePoint t, double impact);
  void ingest_jobs(const trace::JobLog& jobs, activeness::ActivityTypeId type,
                   double weight = 1.0);
  void ingest_publications(const trace::PublicationLog& pubs,
                           activeness::ActivityTypeId type,
                           double weight = 1.0);

  // -- WAL ingestion ------------------------------------------------------
  /// Apply one event log record. Returns false (and mutates nothing) when
  /// event.seq is non-zero and <= last_applied_seq() — the replay-
  /// idempotence guard. Events with seq 0 (direct, not from a log) always
  /// apply. kJob/kPublication impacts are applied as carried (the feed side
  /// already weighted them; see trace::make_job_event).
  bool apply(const trace::Event& event);
  std::uint64_t last_applied_seq() const { return last_applied_seq_; }

  /// Create the activity store before producer threads start, so their
  /// concurrent store() calls cannot race its lazy creation. Idempotent.
  void prepare_ingest() { ensure_store(); }

  // -- scratch state ------------------------------------------------------
  fs::Vfs& vfs() { return vfs_; }
  const fs::Vfs& vfs() const { return vfs_; }
  void load_snapshot(const trace::Snapshot& snapshot);

  // -- evaluation ---------------------------------------------------------
  /// Evaluate every registered user at `now` (Eqs. 1–6) and cache the
  /// result. The cache is bypassed whenever the store has dirty users *or*
  /// pending ingest-queue events, so a warm daemon trigger at an unchanged
  /// `now` still folds in everything fed since the last trigger.
  const activeness::RankStore& evaluate(util::TimePoint now);

  std::array<std::size_t, activeness::kGroupCount> group_counts() const;
  activeness::UserActiveness activeness_of(trace::UserId user) const;
  util::Duration effective_lifetime_of(trace::UserId user) const;
  const activeness::RankStore& ranks() const { return ranks_; }

  // -- retention ----------------------------------------------------------
  /// One ActiveDR purge trigger at `now` (evaluates first if needed). The
  /// no-target overload derives the byte target from
  /// config().purge_target_utilization and the Vfs capacity; the explicit
  /// overload takes the target in bytes (0 = no target, purge all expired)
  /// — the daemon computes cmd_purge-compatible retain-fraction targets
  /// through it.
  retention::PurgeReport purge(util::TimePoint now);
  retention::PurgeReport purge(util::TimePoint now,
                               std::uint64_t target_bytes);
  /// The FLT baseline on the same state (mutates the vfs just like purge).
  retention::PurgeReport purge_flt(util::TimePoint now);
  retention::PurgeReport purge_flt(util::TimePoint now,
                                   std::uint64_t target_bytes);

  // -- checkpointing ------------------------------------------------------
  /// Write a recovery checkpoint into `dir` (created if needed) and seal it
  /// as a bundle: activities.csv (every stream, in stream order),
  /// snapshot.csv (Vfs export), meta.conf (applied seq, shape), MANIFEST
  /// last. A crash at any point leaves `dir` unsealed or stale — recovery
  /// skips it and falls back to an older checkpoint plus a longer WAL tail.
  void save_checkpoint(const std::string& dir);

  struct RestoreStatus {
    bool ok = false;
    std::uint64_t applied_seq = 0;
    std::string error;
  };
  /// Load a checkpoint bundle into this (fresh) service: refuses unsealed
  /// or invalid bundles and shape mismatches via the returned status (the
  /// caller degrades to an older checkpoint or a full replay — damage is a
  /// result here, not an exception). On ok, last_applied_seq() is the
  /// checkpoint's applied seq; replay the WAL tail after it.
  RestoreStatus restore_checkpoint(const std::string& dir);

  // -- degradation (DESIGN.md §14.2) --------------------------------------
  /// Pin the evaluator pipeline to kIncremental (true) or restore the
  /// configured eval mode (false). Degraded evaluation bounds per-trigger
  /// work by the dirty set — no advance can decide to pay a full-rebuild
  /// latency spike — while computing byte-identical ranks, so a degraded
  /// daemon still answers triggers exactly. Idempotent.
  void set_degraded(bool degraded);
  bool degraded() const { return degraded_; }

  // -- introspection -------------------------------------------------------
  activeness::ActivityStore& store() { return ensure_store(); }
  const activeness::IncrementalEvaluator& pipeline() const {
    return pipeline_;
  }
  const trace::UserRegistry& registry() const { return registry_; }
  const activeness::ActivityCatalog& catalog() const { return catalog_; }
  const ServiceConfig& config() const { return config_; }

 private:
  activeness::ActivityStore& ensure_store();

  trace::UserRegistry registry_;
  ServiceConfig config_;
  activeness::ActivityCatalog catalog_;
  std::optional<activeness::ActivityStore> store_;
  activeness::IncrementalEvaluator pipeline_;

  fs::Vfs vfs_;
  retention::ExemptionList exemptions_;

  std::uint64_t last_applied_seq_ = 0;
  std::optional<util::TimePoint> last_eval_time_;
  activeness::RankStore ranks_;
  bool degraded_ = false;
};

}  // namespace adr::core
