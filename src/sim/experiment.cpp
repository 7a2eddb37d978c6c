#include "sim/experiment.hpp"

namespace adr::sim {

activeness::EvaluationParams evaluation_params(const ExperimentConfig& config) {
  activeness::EvaluationParams params;
  params.period_length_days = config.lifetime_days;
  params.scheme = config.scheme;
  params.stale = config.stale;
  params.max_periods = config.max_periods;
  return params;
}

namespace {

retention::ActiveDrConfig activedr_config(const ExperimentConfig& config) {
  retention::ActiveDrConfig adr;
  adr.initial_lifetime_days = config.lifetime_days;
  adr.retrospective_passes = config.retrospective_passes;
  adr.retrospective_decay = config.retrospective_decay;
  adr.lifetime_mode = config.lifetime_mode;
  return adr;
}

EmulatorConfig emulator_config(const ExperimentConfig& config) {
  EmulatorConfig emu;
  emu.purge_interval_days = config.purge_interval_days;
  emu.purge_target_utilization = config.purge_target_utilization;
  return emu;
}

retention::ExemptionList build_exemptions(const ExperimentConfig& config) {
  retention::ExemptionList list;
  for (const auto& p : config.exempt_paths) list.reserve(p);
  return list;
}

}  // namespace

ComparisonResult run_comparison(const synth::TitanScenario& scenario,
                                const ExperimentConfig& config) {
  ActivenessTimeline timeline =
      ActivenessTimeline::for_scenario(scenario, evaluation_params(config),
                                       config.eval_mode);
  Emulator emulator(scenario, emulator_config(config), timeline);

  ComparisonResult result;
  {
    FltDriver flt(retention::FltConfig{config.lifetime_days}, timeline);
    result.flt = emulator.run(
        flt, config.flt_strict ? 0.0 : config.purge_target_utilization);
  }
  {
    ActiveDrDriver adr(activedr_config(config), scenario.registry, timeline);
    adr.set_exemptions(build_exemptions(config));
    result.activedr = emulator.run(adr);
  }
  // Group populations at the final evaluation (identical for both runs).
  for (std::size_t g = 0; g < activeness::kGroupCount; ++g) {
    result.final_group_counts[g] = result.activedr.groups[g].users_in_group;
  }
  return result;
}

EmulationResult run_flt_strict(const synth::TitanScenario& scenario,
                               const ExperimentConfig& config) {
  ActivenessTimeline timeline =
      ActivenessTimeline::for_scenario(scenario, evaluation_params(config),
                                       config.eval_mode);
  EmulatorConfig emu = emulator_config(config);
  emu.purge_target_utilization = 0.0;  // strict: purge every expired file
  Emulator emulator(scenario, emu, timeline);
  FltDriver flt(retention::FltConfig{config.lifetime_days}, timeline);
  return emulator.run(flt);
}

fs::Vfs build_state_at(const synth::TitanScenario& scenario,
                       util::TimePoint as_of, int facility_lifetime_days,
                       int purge_interval_days) {
  fs::Vfs vfs;
  vfs.import_snapshot(scenario.snapshot);
  vfs.set_capacity_bytes(scenario.capacity_bytes);

  const retention::FltPolicy facility_flt(
      retention::FltConfig{facility_lifetime_days});
  const util::Duration interval = util::days(purge_interval_days);
  util::TimePoint next_trigger = scenario.sim_begin + interval;

  for (const auto& entry : scenario.replay.entries()) {
    if (entry.timestamp > as_of) break;
    while (entry.timestamp >= next_trigger && next_trigger <= as_of) {
      facility_flt.run(vfs, next_trigger, 0);
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
    facility_flt.run(vfs, next_trigger, 0);
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

  ActivenessTimeline timeline =
      ActivenessTimeline::for_scenario(scenario, evaluation_params(config),
                                       config.eval_mode);
  const activeness::ScanPlan& plan = timeline.plan_at(as_of);

  SnapshotRetentionResult result;
  for (std::size_t g = 0; g < activeness::kGroupCount; ++g) {
    result.group_counts[g] =
        plan.group(static_cast<activeness::UserGroup>(g)).size();
  }
  const retention::GroupOf group_of = [&](trace::UserId user) {
    return timeline.group_at(user, as_of);
  };

  // Both policies chase the same byte target from identical states. The
  // paper defines this experiment's "total capacity" as the synthesized
  // size of all files in the snapshot itself (§4.1.3), so a 50% target
  // means: purge half of what is currently there.
  const std::uint64_t target = static_cast<std::uint64_t>(
      static_cast<double>(state.total_bytes()) *
      (1.0 - config.purge_target_utilization));
  {
    fs::Vfs vfs = clone_state(state);
    retention::FltPolicy flt(retention::FltConfig{config.lifetime_days});
    flt.set_group_of(group_of);
    result.flt = flt.run(vfs, as_of, target);
  }
  {
    fs::Vfs vfs = clone_state(state);
    retention::ActiveDrPolicy adr(activedr_config(config), scenario.registry);
    result.activedr = adr.run(vfs, as_of, target, plan);
  }
  return result;
}

EmulationResult run_activedr(const synth::TitanScenario& scenario,
                             const ExperimentConfig& config) {
  ActivenessTimeline timeline =
      ActivenessTimeline::for_scenario(scenario, evaluation_params(config),
                                       config.eval_mode);
  Emulator emulator(scenario, emulator_config(config), timeline);
  ActiveDrDriver adr(activedr_config(config), scenario.registry, timeline);
  adr.set_exemptions(build_exemptions(config));
  return emulator.run(adr);
}

}  // namespace adr::sim
