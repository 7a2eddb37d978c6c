#include "sim/emulator.hpp"

#include <unordered_map>
#include <unordered_set>

#include "obs/span.hpp"
#include "retention/policy.hpp"
#include "util/logging.hpp"

namespace adr::sim {

ActivenessTimeline::ActivenessTimeline(
    const activeness::ActivityCatalog& catalog,
    activeness::ActivityStore store, activeness::EvaluationParams base_params,
    activeness::EvalMode mode)
    : catalog_(&catalog),
      store_(std::move(store)),
      pipeline_(catalog, base_params, mode) {
  store_.sort_all();
}

ActivenessTimeline ActivenessTimeline::for_scenario(
    const synth::TitanScenario& scenario, activeness::EvaluationParams params,
    activeness::EvalMode mode) {
  static const activeness::ActivityCatalog catalog =
      activeness::ActivityCatalog::paper_default();
  activeness::ActivityStore store(scenario.registry.size(), catalog.size());
  activeness::ingest_jobs(store, 0, 1.0, scenario.jobs);
  activeness::ingest_publications(store, 1, 1.0, scenario.pubs);
  return ActivenessTimeline(catalog, std::move(store), params, mode);
}

const activeness::ScanPlan& ActivenessTimeline::plan_at(util::TimePoint t) {
  if (pipeline_.evaluated() && t == pipeline_.last_now()) {
    return pipeline_.plan();
  }
  last_advance_ = pipeline_.advance(store_, t);
  // Record the group table for attribution at later instants — unless the
  // latest table at or before t already says the same thing.
  const auto it = group_history_.upper_bound(t);
  const bool unchanged = it != group_history_.begin() &&
                         std::prev(it)->second == pipeline_.groups();
  if (!unchanged) group_history_[t] = pipeline_.groups();
  return pipeline_.plan();
}

const std::vector<activeness::UserGroup>* ActivenessTimeline::group_lookup_at(
    util::TimePoint t) const {
  auto it = group_history_.upper_bound(t);
  if (it == group_history_.begin()) return nullptr;
  --it;
  return &it->second;
}

activeness::UserGroup ActivenessTimeline::group_at(trace::UserId user,
                                                   util::TimePoint t) const {
  const auto* lookup = group_lookup_at(t);
  if (lookup == nullptr) return activeness::UserGroup::kBothInactive;
  return user < lookup->size() ? (*lookup)[user]
                               : activeness::UserGroup::kBothInactive;
}

FltDriver::FltDriver(retention::FltConfig config, ActivenessTimeline& timeline)
    : policy_(config), timeline_(&timeline) {}

std::string FltDriver::name() const { return policy_.name(); }

retention::PurgeReport FltDriver::trigger(fs::Vfs& vfs, util::TimePoint now,
                                          std::uint64_t target_bytes) {
  timeline_->plan_at(now);  // keep classifications in lockstep with ActiveDR
  policy_.set_group_of([this, now](trace::UserId user) {
    return timeline_->group_at(user, now);
  });
  return policy_.run(vfs, now, target_bytes);
}

ActiveDrDriver::ActiveDrDriver(retention::ActiveDrConfig config,
                               const trace::UserRegistry& registry,
                               ActivenessTimeline& timeline)
    : policy_(config, registry), timeline_(&timeline) {}

void ActiveDrDriver::set_exemptions(retention::ExemptionList exemptions) {
  policy_.set_exemptions(std::move(exemptions));
}

std::string ActiveDrDriver::name() const { return policy_.name(); }

retention::PurgeReport ActiveDrDriver::trigger(fs::Vfs& vfs,
                                               util::TimePoint now,
                                               std::uint64_t target_bytes) {
  const activeness::ScanPlan& plan = timeline_->plan_at(now);
  return policy_.run(vfs, now, target_bytes, plan);
}

ValueDriver::ValueDriver(retention::ValueConfig config,
                         ActivenessTimeline& timeline)
    : policy_(std::move(config)), timeline_(&timeline) {}

std::string ValueDriver::name() const { return policy_.name(); }

retention::PurgeReport ValueDriver::trigger(fs::Vfs& vfs, util::TimePoint now,
                                            std::uint64_t target_bytes) {
  timeline_->plan_at(now);
  policy_.set_group_of([this, now](trace::UserId user) {
    return timeline_->group_at(user, now);
  });
  return policy_.run(vfs, now, target_bytes);
}

ScratchCacheDriver::ScratchCacheDriver(retention::ScratchCacheConfig config,
                                       ActivenessTimeline& timeline)
    : policy_(config), timeline_(&timeline) {}

std::string ScratchCacheDriver::name() const { return policy_.name(); }

retention::PurgeReport ScratchCacheDriver::trigger(
    fs::Vfs& vfs, util::TimePoint now, std::uint64_t target_bytes) {
  timeline_->plan_at(now);
  policy_.set_group_of([this, now](trace::UserId user) {
    return timeline_->group_at(user, now);
  });
  return policy_.run(vfs, now, target_bytes);
}

Emulator::Emulator(const synth::TitanScenario& scenario, EmulatorConfig config,
                   ActivenessTimeline& timeline)
    : scenario_(&scenario), config_(config), timeline_(&timeline) {}

EmulationResult Emulator::run(RetentionDriver& driver,
                              double target_utilization_override) {
  const double target_utilization = target_utilization_override >= 0.0
                                        ? target_utilization_override
                                        : config_.purge_target_utilization;
  EmulationResult result;
  result.policy = driver.name();

  fs::Vfs vfs;
  vfs.import_snapshot(scenario_->snapshot);
  vfs.set_capacity_bytes(scenario_->capacity_bytes);

  // Every purge displaces the file into the archive tier; misses restore
  // from it (with cost accounting) when restore_on_miss is set.
  fs::ArchiveTier archive(config_.archive);
  vfs.set_removal_sink([&archive](const std::string& path,
                                  const fs::FileMeta& meta) {
    archive.archive(path, meta);
  });

  MetricsCollector metrics(scenario_->sim_begin, scenario_->sim_end);

  // Seed classifications so pre-first-trigger misses attribute correctly.
  timeline_->plan_at(scenario_->sim_begin);

  const util::Duration interval = util::days(config_.purge_interval_days);
  util::TimePoint next_trigger = scenario_->sim_begin + interval;

  // Wall-time attribution comes from the metrics registry: each trigger and
  // the whole replay loop run under timer spans, and the result fields are
  // the span-sum deltas across this run.
  obs::Histogram& trigger_span =
      obs::MetricsRegistry::global().span_histogram("emulator.purge_trigger");
  obs::Histogram& replay_span_hist =
      obs::MetricsRegistry::global().span_histogram("emulator.replay");
  const double trigger_baseline = trigger_span.sum_seconds();
  const double replay_baseline = replay_span_hist.sum_seconds();

  obs::Counter& audit_failures =
      obs::MetricsRegistry::global().counter("purge_index.audit_failures");
  auto fire_trigger = [&](util::TimePoint when) {
    obs::TimerSpan span("emulator.purge_trigger");
    std::uint64_t target = 0;
    if (target_utilization > 0.0) {
      target = retention::purge_target_bytes(vfs, target_utilization);
      if (target == 0) return;  // already at/below target utilization
    }
    retention::PurgeReport report = driver.trigger(vfs, when, target);
    result.purges.push_back(std::move(report));
    if (config_.audit_purge_index) {
      std::string error;
      if (!vfs.verify_purge_index(&error)) {
        audit_failures.add();
        ADR_ERROR << "purge-index audit failed after trigger at " << when
                  << ": " << error;
      }
    }
  };

  {
    obs::TimerSpan replay_span("emulator.replay");
    for (const auto& entry : scenario_->replay.entries()) {
      while (entry.timestamp >= next_trigger &&
             next_trigger < scenario_->sim_end) {
        fire_trigger(next_trigger);
        next_trigger += interval;
      }
      if (entry.op == trace::FileOp::kCreate) {
        fs::FileMeta meta;
        meta.owner = entry.user;
        meta.stripe_count = entry.stripe_count;
        meta.size_bytes = entry.size_bytes;
        meta.atime = entry.timestamp;
        meta.ctime = entry.timestamp;
        vfs.create(entry.path, meta);
      } else {
        const bool hit = vfs.access(entry.path, entry.timestamp);
        metrics.record_access(entry.timestamp,
                              timeline_->group_at(entry.user, entry.timestamp),
                              !hit);
        if (!hit && config_.restore_on_miss) {
          if (const fs::FileMeta* archived = archive.restore(entry.path)) {
            fs::FileMeta meta = *archived;
            meta.atime = entry.timestamp;
            vfs.create(entry.path, meta);
          }
        }
      }
    }
    while (next_trigger < scenario_->sim_end) {
      fire_trigger(next_trigger);
      next_trigger += interval;
    }
  }
  result.purge_seconds = trigger_span.sum_seconds() - trigger_baseline;
  result.replay_seconds =
      replay_span_hist.sum_seconds() - replay_baseline - result.purge_seconds;

  result.archive = archive.stats();
  result.daily = metrics.daily();
  result.total_accesses = metrics.total_accesses();
  result.total_misses = metrics.total_misses();
  result.final_bytes = vfs.total_bytes();
  result.final_files = vfs.file_count();

  // Per-group aggregates. Purged totals accumulate over triggers; retained
  // state and group populations come from the end of the year.
  const util::TimePoint end = scenario_->sim_end;
  for (const auto& report : result.purges) {
    for (std::size_t g = 0; g < activeness::kGroupCount; ++g) {
      result.groups[g].purged_bytes += report.by_group[g].purged_bytes;
      result.groups[g].purged_files += report.by_group[g].purged_files;
    }
  }
  // One timeline lookup covers all three attribution loops below — the
  // final evaluation is fixed at `end`, so per-user group_at calls (a map
  // search each) would redo the same search tens of thousands of times.
  const std::vector<activeness::UserGroup>* final_groups =
      timeline_->group_lookup_at(end);
  const auto group_index_of = [final_groups](trace::UserId user) {
    return static_cast<std::size_t>(
        final_groups != nullptr && user < final_groups->size()
            ? (*final_groups)[user]
            : activeness::UserGroup::kBothInactive);
  };
  std::unordered_set<trace::UserId> affected;
  for (const auto& report : result.purges) {
    for (const trace::UserId u : report.affected_users) affected.insert(u);
  }
  for (const trace::UserId u : affected) {
    ++result.groups[group_index_of(u)].unique_affected_users;
  }
  for (const auto& [user, usage] : vfs.usage_by_user()) {
    if (usage.files == 0) continue;
    auto& g = result.groups[group_index_of(user)];
    g.retained_bytes += usage.bytes;
    g.retained_files += usage.files;
  }
  for (trace::UserId u = 0; u < scenario_->registry.size(); ++u) {
    ++result.groups[group_index_of(u)].users_in_group;
  }

  ADR_INFO << result.policy << ": " << result.total_misses << "/"
           << result.total_accesses << " misses, final "
           << result.final_files << " files";
  return result;
}

}  // namespace adr::sim
