#include "sim/experiment.hpp"

namespace adr::sim {

namespace {

core::ServiceConfig service_config(const ExperimentConfig& config) {
  core::ServiceConfig service;
  service.lifetime_days = config.lifetime_days;
  service.purge_target_utilization = config.purge_target_utilization;
  service.retrospective_passes = config.retrospective_passes;
  service.retrospective_decay = config.retrospective_decay;
  service.lifetime_mode = config.lifetime_mode;
  service.scheme = config.scheme;
  service.max_periods = config.max_periods;
  return service;
}

/// `config` without a purge target: strict FLT.
ExperimentConfig strict(ExperimentConfig config) {
  config.purge_target_utilization = 0.0;
  return config;
}

/// Replay the year under `policy` on a fresh Service built for `config`.
EmulationResult run(const synth::TitanScenario& scenario,
                    const ExperimentConfig& config, core::Policy policy) {
  const std::unique_ptr<core::Service> service =
      make_service(scenario, config);
  EmulatorConfig emulator;
  emulator.purge_interval_days = config.purge_interval_days;
  return replay(scenario, *service, policy, emulator);
}

}  // namespace

std::unique_ptr<core::Service> make_service(
    const synth::TitanScenario& scenario, const ExperimentConfig& config) {
  auto service = std::make_unique<core::Service>(scenario.registry,
                                                 service_config(config));
  load_scenario(*service, scenario);
  for (const auto& path : config.exempt_paths) service->reserve(path);
  return service;
}

ComparisonResult run_comparison(const synth::TitanScenario& scenario,
                                const ExperimentConfig& config) {
  ComparisonResult result;
  result.flt = run(scenario, config.flt_strict ? strict(config) : config,
                   core::Policy::kFlt);
  result.activedr = run(scenario, config, core::Policy::kActiveDr);
  // Group populations at the final evaluation (identical for both runs).
  for (std::size_t g = 0; g < activeness::kGroupCount; ++g) {
    result.final_group_counts[g] = result.activedr.groups[g].users_in_group;
  }
  return result;
}

EmulationResult run_flt_strict(const synth::TitanScenario& scenario,
                               const ExperimentConfig& config) {
  return run(scenario, strict(config), core::Policy::kFlt);
}

fs::Vfs build_state_at(const synth::TitanScenario& scenario,
                       util::TimePoint as_of, int facility_lifetime_days,
                       int purge_interval_days) {
  fs::Vfs vfs;
  vfs.import_snapshot(scenario.snapshot);
  vfs.set_capacity_bytes(scenario.capacity_bytes);

  const retention::FltPolicy facility_flt(
      retention::FltConfig{facility_lifetime_days});
  const activeness::ScanPlan no_groups;  // the reports are not read
  const util::Duration interval = util::days(purge_interval_days);
  util::TimePoint next_trigger = scenario.sim_begin + interval;

  for (const auto& entry : scenario.replay.entries()) {
    if (entry.timestamp > as_of) break;
    while (entry.timestamp >= next_trigger && next_trigger <= as_of) {
      facility_flt.run(vfs, next_trigger, 0, no_groups);
      next_trigger += interval;
    }
    fs::FileMeta meta;
    meta.owner = entry.user;
    meta.stripe_count = entry.stripe_count;
    meta.size_bytes = entry.size_bytes;
    meta.atime = entry.timestamp;
    meta.ctime = entry.timestamp;
    if (entry.op == trace::FileOp::kCreate) {
      vfs.create(entry.path, meta);
    } else if (!vfs.access(entry.path, entry.timestamp)) {
      // The facility's users restore what the purge took (re-transmission);
      // the state at `as_of` reflects what they actually kept working with.
      vfs.create(entry.path, meta);
    }
  }
  while (next_trigger <= as_of) {
    facility_flt.run(vfs, next_trigger, 0, no_groups);
    next_trigger += interval;
  }
  return vfs;
}

namespace {

fs::Vfs clone_state(const fs::Vfs& vfs) {
  fs::Vfs copy;
  copy.import_snapshot(vfs.export_snapshot());
  copy.set_capacity_bytes(vfs.capacity_bytes());
  return copy;
}

}  // namespace

SnapshotRetentionResult run_snapshot_retention(
    const synth::TitanScenario& scenario, const ExperimentConfig& config,
    util::TimePoint as_of) {
  const fs::Vfs state = build_state_at(scenario, as_of);
  const std::unique_ptr<core::Service> service =
      make_service(scenario, config);
  service->evaluate(as_of);

  SnapshotRetentionResult result;
  result.group_counts = service->group_counts();

  // Both policies chase the same byte target from identical states. The
  // paper defines this experiment's "total capacity" as the synthesized
  // size of all files in the snapshot itself (§4.1.3), so a 50% target
  // means: purge half of what is currently there.
  const std::uint64_t target = static_cast<std::uint64_t>(
      static_cast<double>(state.total_bytes()) *
      (1.0 - config.purge_target_utilization));
  service->vfs() = clone_state(state);
  result.flt = service->purge(as_of, target, core::Policy::kFlt);
  service->vfs() = clone_state(state);
  result.activedr = service->purge(as_of, target, core::Policy::kActiveDr);
  return result;
}

EmulationResult run_activedr(const synth::TitanScenario& scenario,
                             const ExperimentConfig& config) {
  return run(scenario, config, core::Policy::kActiveDr);
}

}  // namespace adr::sim
