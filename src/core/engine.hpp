#pragma once
// activedr::Engine — the library's public entry point.
//
// An Engine owns the pieces a deployment needs: the user registry, the
// activity catalog and recorded activities, the virtual file system (or, in
// a real deployment, the snapshot index of the scratch space), and the
// reservation list. Typical administrator flow (see examples/quickstart.cpp):
//
//   adr::core::Engine engine(registry, options);            // one-time setup
//   auto jobs = engine.register_operation_type("job", 1.0);
//   auto pubs = engine.register_outcome_type("publication", 1.0);
//   engine.record(user, jobs, t, core_hours);               // keep tracing
//   engine.load_snapshot(snapshot);                          // scratch state
//   engine.reserve("/scratch/u1/keep.dat");                  // exemptions
//   auto report = engine.purge(now);                         // per trigger
//
// Eq. 7's knobs, the retrospective-pass policy, and the purge target all sit
// in Engine::Options.
//
// Engine is a thin adapter over core::Service — the orchestration layer
// that the one-shot CLI and the `activedr serve` daemon also consume (see
// core/service.hpp). It keeps the historical API shape; new code that needs
// WAL apply or checkpointing should hold a Service directly.

#include <array>
#include <string>

#include "core/service.hpp"

namespace adr::core {

class Engine {
 public:
  struct Options {
    /// Initial file lifetime d (days); doubles as the activeness period
    /// length, as in the paper's evaluation.
    int lifetime_days = 90;
    /// Utilization the purge drives the scratch space down to (fraction of
    /// capacity). <= 0: no target — purge everything expired.
    double purge_target_utilization = 0.5;

    int retrospective_passes = 5;
    double retrospective_decay = 0.20;
    activeness::LifetimeMode lifetime_mode =
        activeness::LifetimeMode::kActiveCategoriesOnly;
    activeness::ExponentScheme scheme =
        activeness::ExponentScheme::kPaperExponent;
    int max_periods = 0;
    /// How evaluate() re-ranks at each trigger: delta-aware by default,
    /// kFull pins the re-evaluate-everyone baseline (see
    /// activeness/incremental.hpp).
    activeness::EvalMode eval_mode = activeness::EvalMode::kAuto;
  };

  Engine(trace::UserRegistry registry, Options options);

  // -- one-time configuration -------------------------------------------
  activeness::ActivityTypeId register_operation_type(const std::string& name,
                                                     double weight = 1.0) {
    return service_.register_operation_type(name, weight);
  }
  activeness::ActivityTypeId register_outcome_type(const std::string& name,
                                                   double weight = 1.0) {
    return service_.register_outcome_type(name, weight);
  }

  /// Reserve a path (file or directory subtree) against purging.
  void reserve(const std::string& path) { service_.reserve(path); }

  // -- activity tracing ---------------------------------------------------
  void record(trace::UserId user, activeness::ActivityTypeId type,
              util::TimePoint t, double impact) {
    service_.record(user, type, t, impact);
  }
  void ingest_jobs(const trace::JobLog& jobs, activeness::ActivityTypeId type,
                   double weight = 1.0) {
    service_.ingest_jobs(jobs, type, weight);
  }
  void ingest_publications(const trace::PublicationLog& pubs,
                           activeness::ActivityTypeId type,
                           double weight = 1.0) {
    service_.ingest_publications(pubs, type, weight);
  }

  // -- scratch state ------------------------------------------------------
  fs::Vfs& vfs() { return service_.vfs(); }
  const fs::Vfs& vfs() const { return service_.vfs(); }
  void load_snapshot(const trace::Snapshot& snapshot) {
    service_.load_snapshot(snapshot);
  }

  // -- evaluation ---------------------------------------------------------
  /// Evaluate every registered user at `now` (Eqs. 1–6) and cache the
  /// result; returns the rank store for inspection.
  const activeness::RankStore& evaluate(util::TimePoint now) {
    return service_.evaluate(now);
  }

  /// Classification counts G1..G4 from the latest evaluation.
  std::array<std::size_t, activeness::kGroupCount> group_counts() const {
    return service_.group_counts();
  }

  /// The activeness of one user per the latest evaluation (fresh defaults
  /// if the user was never evaluated).
  activeness::UserActiveness activeness_of(trace::UserId user) const {
    return service_.activeness_of(user);
  }

  /// The file lifetime this user's files currently enjoy (Eq. 7 with the
  /// engine's options), per the latest evaluation — the answer to the
  /// operator question "how long do user X's files live right now?".
  util::Duration effective_lifetime_of(trace::UserId user) const {
    return service_.effective_lifetime_of(user);
  }

  // -- retention ----------------------------------------------------------
  /// One ActiveDR purge trigger at `now` (evaluates first if needed).
  retention::PurgeReport purge(util::TimePoint now) {
    return service_.purge(now);
  }

  /// The FLT baseline on the same state (for operator A/B comparisons).
  /// Mutates the vfs just like purge().
  retention::PurgeReport purge_flt(util::TimePoint now) {
    return service_.purge_flt(now);
  }

  const trace::UserRegistry& registry() const { return service_.registry(); }
  const Options& options() const { return options_; }

  /// The underlying orchestration layer (checkpointing, WAL apply).
  Service& service() { return service_; }
  const Service& service() const { return service_; }

 private:
  static ServiceConfig to_service_config(const Options& options);

  Options options_;
  Service service_;
};

}  // namespace adr::core
