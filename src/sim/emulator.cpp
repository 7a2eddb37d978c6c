#include "sim/emulator.hpp"

#include <unordered_set>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "retention/policy.hpp"
#include "util/logging.hpp"

namespace adr::sim {

void load_scenario(core::Service& service,
                   const synth::TitanScenario& scenario) {
  service.register_paper_types();
  service.ingest_jobs(scenario.jobs, core::kJobActivityType);
  service.ingest_publications(scenario.pubs, core::kPublicationActivityType);
  service.load_snapshot(scenario.snapshot);
  service.vfs().set_capacity_bytes(scenario.capacity_bytes);
}

EmulationResult replay(const synth::TitanScenario& scenario,
                       core::Service& service, core::Policy policy,
                       const EmulatorConfig& config) {
  EmulationResult result;
  result.policy = service.policy_name(policy);
  fs::Vfs& vfs = service.vfs();
  const double target_utilization = service.config().purge_target_utilization;

  // Every purge displaces the file into the archive tier; misses restore
  // from it (with cost accounting) when restore_on_miss is set. The sink
  // points into this frame, so it is uninstalled on every way out.
  fs::ArchiveTier archive(config.archive);
  vfs.set_removal_sink([&archive](const std::string& path,
                                  const fs::FileMeta& meta) {
    archive.archive(path, meta);
  });
  struct SinkReset {
    fs::Vfs& vfs;
    ~SinkReset() { vfs.set_removal_sink(nullptr); }
  } sink_reset{vfs};

  MetricsCollector metrics(scenario.sim_begin, scenario.sim_end);
  // The group of `user` per the service's latest evaluation.
  const auto group_of = [&service](trace::UserId user) {
    return service.pipeline().plan().group_of(user);
  };

  // Seed classifications so pre-first-trigger misses attribute correctly.
  service.evaluate(scenario.sim_begin);

  const util::Duration interval = util::days(config.purge_interval_days);
  util::TimePoint next_trigger = scenario.sim_begin + interval;

  obs::Counter& audit_failures =
      obs::MetricsRegistry::global().counter("purge_index.audit_failures");
  auto fire_trigger = [&](util::TimePoint when) {
    obs::TimerSpan span("emulator.purge_trigger");
    service.evaluate(when);
    std::uint64_t target = 0;
    if (target_utilization > 0.0) {
      target = retention::purge_target_bytes(vfs, target_utilization);
      if (target == 0) return;  // already at/below target utilization
    }
    result.purges.push_back(service.purge(when, target, policy));
    if (config.audit_purge_index) {
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
    for (const auto& entry : scenario.replay.entries()) {
      while (entry.timestamp >= next_trigger &&
             next_trigger < scenario.sim_end) {
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
        metrics.record_access(entry.timestamp, group_of(entry.user), !hit);
        if (!hit && config.restore_on_miss) {
          if (const fs::FileMeta* archived = archive.restore(entry.path)) {
            fs::FileMeta meta = *archived;
            meta.atime = entry.timestamp;
            vfs.create(entry.path, meta);
          }
        }
      }
    }
    while (next_trigger < scenario.sim_end) {
      fire_trigger(next_trigger);
      next_trigger += interval;
    }
  }

  result.archive = archive.stats();
  result.daily = metrics.daily();
  result.total_accesses = metrics.total_accesses();
  result.total_misses = metrics.total_misses();
  result.final_bytes = vfs.total_bytes();
  result.final_files = vfs.file_count();

  // Per-group aggregates. Purged totals accumulate over triggers; retained
  // state and group populations come from the final evaluation.
  for (const auto& report : result.purges) {
    for (std::size_t g = 0; g < activeness::kGroupCount; ++g) {
      result.groups[g].purged_bytes += report.by_group[g].purged_bytes;
      result.groups[g].purged_files += report.by_group[g].purged_files;
    }
  }
  const auto group_index_of = [&group_of](trace::UserId user) {
    return static_cast<std::size_t>(group_of(user));
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
  for (trace::UserId u = 0; u < scenario.registry.size(); ++u) {
    ++result.groups[group_index_of(u)].users_in_group;
  }

  ADR_INFO << result.policy << ": " << result.total_misses << "/"
           << result.total_accesses << " misses, final "
           << result.final_files << " files";
  return result;
}

}  // namespace adr::sim
