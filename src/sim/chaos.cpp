#include "sim/chaos.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>

#include "activeness/activity.hpp"
#include "core/service.hpp"
#include "serve/daemon.hpp"
#include "trace/event_log.hpp"
#include "trace/user_registry.hpp"
#include "util/config.hpp"
#include "util/fault.hpp"
#include "util/io.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace adr::sim {

namespace {

namespace fsys = std::filesystem;

constexpr util::TimePoint kBase = 1'600'000'000;
constexpr double kRetain = 0.5;

const std::vector<std::string> kAllClasses = {"kill", "enospc", "torn",
                                              "flood", "stall"};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// One admitted-or-produced flood event: user + activity, with a globally
/// unique timestamp so stream order (and with it rank identity) is
/// independent of producer interleaving.
struct FloodEvent {
  trace::UserId user;
  activeness::Activity activity;
};

/// Everything an epoch needs to rebuild the daemon and the cold reference.
struct ChaosWorld {
  const ChaosConfig& config;
  std::string wal_dir;
  std::string state_dir;
  util::Rng rng;
  /// Global event counter: WAL events take even timestamp slots, flood
  /// events odd ones — every timestamp in the soak is distinct, so equal-
  /// timestamp arrival order can never make identity flaky.
  std::uint64_t clock = 0;
  /// Flood events that were admitted (not shed) — part of the reference
  /// state from their epoch on (they ride the §10.5 checkpoints).
  std::vector<FloodEvent> admitted_flood;

  explicit ChaosWorld(const ChaosConfig& c)
      : config(c),
        wal_dir(c.dir + "/wal"),
        state_dir(c.dir + "/state"),
        rng(c.seed) {}

  util::TimePoint wal_stamp() {
    return kBase + static_cast<util::TimePoint>(clock++) * 2;
  }
  util::TimePoint flood_stamp() {
    return kBase + static_cast<util::TimePoint>(clock++) * 2 + 1;
  }

  core::ServiceConfig service_config() const {
    core::ServiceConfig sc;
    sc.lifetime_days = 30;
    sc.dry_run = true;  // triggers select victims but never mutate -> the
                        // cold reference stays valid across every epoch
    sc.record_victims = true;
    return sc;
  }

  serve::DaemonOptions daemon_options() const {
    serve::DaemonOptions options;
    options.wal_dir = wal_dir;
    options.state_dir = state_dir;
    options.service = service_config();
    options.checkpoint_every_events = 64;
    options.metrics_every_ticks = 0;
    options.seal_wal_on_stop = false;  // the feeder owns the open segment
    options.io_retry = {.max_attempts = 3,
                        .initial_delay_ms = 0.0,
                        .max_delay_ms = 0.0};
    return options;
  }

  serve::Daemon make_daemon(serve::DaemonOptions options) {
    return serve::Daemon(
        trace::UserRegistry::with_synthetic_users(config.users),
        std::move(options));
  }

  /// Append one deterministic WAL batch (files in epoch 0, then job bursts).
  std::size_t feed_wal(int epoch) {
    trace::EventLogWriter writer(wal_dir);
    std::size_t appended = 0;
    if (epoch == 0) {
      for (std::size_t u = 0; u < config.users; ++u) {
        for (int f = 0; f < 2; ++f) {
          trace::Event e;
          e.kind = trace::EventKind::kCreate;
          e.user = static_cast<trace::UserId>(u);
          e.timestamp = wal_stamp();
          e.path = "/scratch/user_" + std::to_string(u) + "/f" +
                   std::to_string(f) + ".dat";
          e.size_bytes = 4096 + u * 512 + static_cast<std::uint64_t>(f);
          e.stripe_count = 4;
          writer.append(e);
          ++appended;
        }
      }
    }
    for (std::size_t i = 0; i < config.events_per_epoch; ++i) {
      trace::Event e;
      e.kind = trace::EventKind::kJob;
      e.user = static_cast<trace::UserId>(rng.bounded(config.users));
      e.timestamp = wal_stamp();
      e.impact = 40.0 + rng.uniform(0.0, 200.0);
      writer.append(e);
      ++appended;
    }
    return appended;
  }

  /// Drop a control command and tick until the reply lands (bounded; the
  /// overloaded daemon may defer it a few windows). Empty optional = the
  /// daemon never answered.
  void drop_cmd(
      serve::Daemon& daemon, const std::string& name,
      const std::vector<std::pair<std::string, std::string>>& entries) {
    const std::string cmd_path = daemon.ctl_dir() + "/" + name + ".cmd";
    util::io::AtomicWriter writer(cmd_path, {.fsync = false, .footer = false});
    for (const auto& [key, value] : entries) {
      writer.write_line(key + " = " + value);
    }
    writer.commit();
  }

  std::optional<util::Config> await_reply(serve::Daemon& daemon,
                                          const std::string& name,
                                          int max_ticks) {
    const std::string out_path = daemon.ctl_dir() + "/" + name + ".out";
    for (int i = 0; i < max_ticks; ++i) {
      daemon.tick();
      if (fsys::exists(out_path)) {
        util::Config reply = util::Config::from_file(out_path);
        fsys::remove(out_path);
        return reply;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return std::nullopt;
  }

  std::optional<util::Config> ctl(
      serve::Daemon& daemon, const std::string& name,
      const std::vector<std::pair<std::string, std::string>>& entries,
      int max_ticks = 200) {
    drop_cmd(daemon, name, entries);
    return await_reply(daemon, name, max_ticks);
  }

  /// The identity invariant: a warm trigger through the daemon must be
  /// byte-identical (ranks and victims) to a cold service replaying the
  /// full WAL plus every admitted flood event. Returns "" on success.
  std::string check_identity(serve::Daemon& daemon, util::TimePoint now,
                             int epoch) {
    const std::string tag = std::to_string(epoch);
    const std::string warm_ranks = config.dir + "/warm_ranks_" + tag + ".csv";
    const std::string warm_victims =
        config.dir + "/warm_victims_" + tag + ".txt";
    const auto reply = ctl(daemon, "identity_" + tag,
                           {{"cmd", "trigger"},
                            {"now", std::to_string(now)},
                            {"retain", std::to_string(kRetain)},
                            {"ranks_out", warm_ranks},
                            {"victims_out", warm_victims}});
    if (!reply) return "identity trigger never answered (epoch " + tag + ")";
    if (reply->get_string("ok", "") != "true") {
      return "identity trigger failed: " + reply->get_string("error", "?");
    }

    core::Service cold(trace::UserRegistry::with_synthetic_users(config.users),
                       service_config());
    cold.register_paper_types();
    trace::EventLogReader reader(wal_dir);
    for (const auto& event : reader.read_after(0)) cold.apply(event);
    for (const auto& flood : admitted_flood) {
      cold.store().append(flood.user, core::kJobActivityType, flood.activity);
    }
    const auto target = static_cast<std::uint64_t>(
        static_cast<double>(cold.vfs().total_bytes()) * (1.0 - kRetain));
    const auto report = cold.purge(now, target);
    const std::string cold_ranks = config.dir + "/cold_ranks.csv";
    cold.ranks().save_csv(cold_ranks);
    std::string cold_victims;
    for (const auto& path : report.victim_paths) cold_victims += path + "\n";

    if (slurp(warm_ranks) != slurp(cold_ranks)) {
      return "rank divergence after epoch " + tag;
    }
    if (slurp(warm_victims) != cold_victims) {
      return "victim divergence after epoch " + tag;
    }
    return "";
  }
};

}  // namespace

ChaosReport run_chaos(const ChaosConfig& config, std::ostream& out) {
  ChaosReport report;
  if (config.dir.empty()) {
    throw std::invalid_argument("run_chaos: dir is required");
  }
  std::vector<std::string> classes =
      config.classes.empty() ? kAllClasses : config.classes;
  for (const auto& cls : classes) {
    if (std::find(kAllClasses.begin(), kAllClasses.end(), cls) ==
        kAllClasses.end()) {
      throw std::invalid_argument("run_chaos: unknown fault class \"" + cls +
                                  "\"");
    }
  }

  fsys::remove_all(config.dir);
  fsys::create_directories(config.dir);
  util::FaultInjector::global().clear();
  ChaosWorld world(config);

  const auto soak_start = std::chrono::steady_clock::now();
  const auto elapsed_s = [&soak_start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         soak_start)
        .count();
  };
  const auto fail = [&report, &out](const std::string& why) {
    report.error = why;
    report.ok = false;
    out << "chaos: FAIL — " << why << "\n";
    util::FaultInjector::global().clear();
    return report;
  };

  for (int epoch = 0;; ++epoch) {
    const bool budget_open =
        config.duration_s > 0.0 && elapsed_s() < config.duration_s;
    if (epoch >= config.epochs && !budget_open) break;

    const std::string cls =
        classes[world.rng.bounded(classes.size())];
    const util::TimePoint now = kBase + util::days(70) + util::days(epoch);
    report.wal_events += world.feed_wal(epoch);
    ++report.faults_injected[cls];
    out << "chaos: epoch " << epoch << " class " << cls << "\n";

    serve::DaemonOptions options = world.daemon_options();
    if (cls == "flood") {
      options.ingest_queue_cap = 8;
      options.backpressure = activeness::BackpressurePolicy::kShed;
      options.shed_budget = config.events_per_epoch * 4;  // never block
    } else if (cls == "stall") {
      // Deadline 30 ms vs a 100 ms injected stall: breaches are always
      // deliberate, never scheduling noise on a loaded runner.
      options.watchdog.trigger_deadline_ms = 30;
      options.watchdog.degrade_after = 1;
      options.watchdog.overload_after = 1;
      options.watchdog.recover_after = 1;
      options.watchdog.defer_backoff = {.max_attempts = 1 << 20,
                                        .initial_delay_ms = 20.0,
                                        .multiplier = 1.0,
                                        .max_delay_ms = 20.0,
                                        .jitter = 0.0};
    }

    serve::Daemon daemon = world.make_daemon(options);

    if (cls == "kill") {
      // kill -9 mid-apply: the batch is in memory, nothing persisted.
      util::FaultInjector::global().configure("serve.post_apply:crash@1");
      bool crashed = false;
      try {
        daemon.start();
        daemon.tick();
      } catch (const util::CrashInjected&) {
        crashed = true;
      }
      util::FaultInjector::global().clear();
      if (!crashed) return fail("injected kill never fired");
      // Recovery: a fresh daemon restores checkpoint + WAL tail.
      serve::Daemon recovered = world.make_daemon(world.daemon_options());
      recovered.start();
      ++report.recoveries;
      if (const auto why = world.check_identity(recovered, now, epoch);
          !why.empty()) {
        return fail(why + " (post-kill recovery)");
      }
      ++report.identity_checks;
      recovered.shutdown();
    } else if (cls == "enospc") {
      daemon.start();
      daemon.tick();
      // The "disk" fills: every artifact write fails. Retries exhaust, the
      // command errors (or its reply is dropped) — but the loop survives.
      // Drop the command first: the injector is process-global and would
      // otherwise tear the harness's own command-file write.
      world.drop_cmd(daemon, "full_" + std::to_string(epoch),
                     {{"cmd", "checkpoint"}});
      util::FaultInjector::global().configure("io.atomic.write:enospc@1");
      const auto burst =
          world.await_reply(daemon, "full_" + std::to_string(epoch), 5);
      if (burst && burst->get_string("ok", "") == "true") {
        return fail("checkpoint reported ok during ENOSPC burst");
      }
      util::FaultInjector::global().clear();
      // Pressure cleared: the next checkpoint must succeed.
      const auto after = world.ctl(daemon, "clear_" + std::to_string(epoch),
                                   {{"cmd", "checkpoint"}});
      if (!after || after->get_string("ok", "") != "true") {
        return fail("checkpoint failed after ENOSPC cleared");
      }
      if (const auto why = world.check_identity(daemon, now, epoch);
          !why.empty()) {
        return fail(why + " (post-enospc)");
      }
      ++report.identity_checks;
      daemon.shutdown();
    } else if (cls == "torn") {
      daemon.start();
      // A half-written command drop must answer ok = false, never wedge.
      const std::string torn_path =
          daemon.ctl_dir() + "/torn_" + std::to_string(epoch) + ".cmd";
      {
        std::ofstream torn(torn_path, std::ios::binary);
        torn << "cmd = trig";  // torn mid-value: malformed verb
      }
      if (!daemon.tick()) return fail("torn command stopped the daemon");
      if (fsys::exists(torn_path)) return fail("torn command not consumed");
      if (const auto why = world.check_identity(daemon, now, epoch);
          !why.empty()) {
        return fail(why + " (post-torn-command)");
      }
      ++report.identity_checks;
      daemon.shutdown();
    } else if (cls == "flood") {
      daemon.start();
      daemon.tick();
      // Producers flood far past the 8-deep ingest queue; the shed budget
      // absorbs the overflow with exact accounting.
      const std::size_t flood_n = config.events_per_epoch * 2;
      std::vector<FloodEvent> produced;
      produced.reserve(flood_n);
      for (std::size_t i = 0; i < flood_n; ++i) {
        produced.push_back(
            {static_cast<trace::UserId>(world.rng.bounded(config.users)),
             activeness::Activity{world.flood_stamp(),
                                  20.0 + world.rng.uniform(0.0, 50.0)}});
      }
      auto& store = daemon.service().store();
      const std::size_t producers = 2;
      std::vector<std::thread> threads;
      for (std::size_t p = 0; p < producers; ++p) {
        threads.emplace_back([&store, &produced, p, producers] {
          for (std::size_t i = p; i < produced.size(); i += producers) {
            store.enqueue(produced[i].user, core::kJobActivityType,
                          produced[i].activity);
          }
        });
      }
      for (auto& t : threads) t.join();

      const auto shed = store.shed_events();
      if (store.shed_count() != shed.size()) {
        return fail("shed counter disagrees with shed log");
      }
      std::set<util::TimePoint> shed_stamps;
      for (const auto& entry : shed) {
        shed_stamps.insert(std::get<2>(entry).timestamp);
      }
      if (shed_stamps.size() != shed.size()) {
        return fail("duplicate events in shed log");
      }
      std::size_t admitted_now = 0;
      for (const auto& flood : produced) {
        if (shed_stamps.count(flood.activity.timestamp)) continue;
        world.admitted_flood.push_back(flood);
        ++admitted_now;
      }
      if (admitted_now + shed.size() != flood_n) {
        return fail("flood accounting: produced != admitted + shed");
      }
      report.flood_produced += flood_n;
      report.flood_shed += shed.size();
      // Drain, then the identity check proves the admitted set — and only
      // it — landed: one lost or duplicated event breaks byte identity.
      const auto drained =
          world.ctl(daemon, "drain_" + std::to_string(epoch),
                    {{"cmd", "evaluate"}, {"now", std::to_string(now - 1)}});
      if (!drained || drained->get_string("ok", "") != "true") {
        return fail("post-flood evaluate failed");
      }
      if (store.pending_ingest() != 0) {
        return fail("ingest queues not drained by evaluate");
      }
      if (const auto why = world.check_identity(daemon, now, epoch);
          !why.empty()) {
        return fail(why + " (post-flood)");
      }
      ++report.identity_checks;
      daemon.shutdown();
    } else {  // stall
      daemon.start();
      daemon.tick();
      // Two stalled evaluate phases: degraded, then overloaded.
      util::FaultInjector::global().configure("service.evaluate:stall@100");
      world.ctl(daemon, "stall_a_" + std::to_string(epoch),
                {{"cmd", "evaluate"}, {"now", std::to_string(now - 3)}});
      world.ctl(daemon, "stall_b_" + std::to_string(epoch),
                {{"cmd", "evaluate"}, {"now", std::to_string(now - 2)}});
      if (daemon.health().state() != serve::HealthState::kOverloaded) {
        return fail("stalled phases did not overload the daemon");
      }
      util::FaultInjector::global().clear();
      // The stall cleared: deferred work runs, quiet phases step the
      // ladder down, and health must return to ok before the epoch ends.
      const auto recovered =
          world.ctl(daemon, "recover_" + std::to_string(epoch),
                    {{"cmd", "evaluate"}, {"now", std::to_string(now - 1)}});
      if (!recovered || recovered->get_string("ok", "") != "true") {
        return fail("deferred evaluate never ran after stall cleared");
      }
      if (const auto why = world.check_identity(daemon, now, epoch);
          !why.empty()) {
        return fail(why + " (post-stall)");
      }
      ++report.identity_checks;
      if (daemon.health().state() != serve::HealthState::kOk) {
        return fail("health did not return to ok after stall epoch");
      }
      daemon.shutdown();
    }

    ++report.epochs_run;
  }

  // Final liveness probe: one more daemon, no faults, health ok, identity
  // still exact.
  serve::Daemon final_daemon = world.make_daemon(world.daemon_options());
  final_daemon.start();
  final_daemon.tick();
  const util::TimePoint final_now =
      kBase + util::days(70) + util::days(report.epochs_run + 1);
  if (const auto why =
          world.check_identity(final_daemon, final_now, report.epochs_run);
      !why.empty()) {
    return fail(why + " (final probe)");
  }
  ++report.identity_checks;
  report.final_health_ok =
      final_daemon.health().state() == serve::HealthState::kOk;
  if (!report.final_health_ok) return fail("final health not ok");
  final_daemon.shutdown();

  report.ok = true;
  out << "chaos: PASS seed=" << config.seed << " epochs=" << report.epochs_run
      << " wal_events=" << report.wal_events
      << " flood=" << report.flood_produced << "/" << report.flood_shed
      << " shed, identity_checks=" << report.identity_checks
      << " recoveries=" << report.recoveries << "\n";
  return report;
}

}  // namespace adr::sim
