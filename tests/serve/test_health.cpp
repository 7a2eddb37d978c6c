// Watchdog + degradation ladder tests (DESIGN.md §14.2): the HealthMonitor
// unit contract, and the Daemon-level behaviours — a slow phase degrades
// the daemon (which keeps answering with byte-identical output), persistent
// breaches defer triggers instead of killing the loop, recovery steps back
// down one rung per quiet streak, and `ctl status` exposes it all.

#include "serve/health.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "activeness/rank_store.hpp"
#include "core/service.hpp"
#include "serve/daemon.hpp"
#include "trace/event_log.hpp"
#include "util/config.hpp"
#include "util/fault.hpp"
#include "util/io.hpp"

namespace adr::serve {
namespace {

namespace fsys = std::filesystem;

constexpr util::TimePoint kBase = 1'600'000'000;
constexpr std::size_t kUsers = 6;

// ---- HealthMonitor unit contract ------------------------------------------

WatchdogConfig ladder_config() {
  WatchdogConfig config;
  config.trigger_deadline_ms = 10;
  config.degrade_after = 1;
  config.overload_after = 2;
  config.recover_after = 2;
  config.defer_backoff = {.max_attempts = 1 << 20,
                          .initial_delay_ms = 50.0,
                          .multiplier = 2.0,
                          .max_delay_ms = 2000.0,
                          .jitter = 0.0};
  return config;
}

TEST(HealthMonitorTest, LadderStepsUpUnderConsecutiveBreaches) {
  HealthMonitor health(ladder_config());
  EXPECT_EQ(health.state(), HealthState::kOk);

  EXPECT_TRUE(health.observe_phase("evaluate", 50.0));
  EXPECT_EQ(health.state(), HealthState::kDegraded);  // degrade_after = 1

  // overload_after = 2 *consecutive* breaches while degraded.
  EXPECT_TRUE(health.observe_phase("evaluate", 50.0));
  EXPECT_EQ(health.state(), HealthState::kDegraded);
  EXPECT_TRUE(health.observe_phase("purge", 50.0));
  EXPECT_EQ(health.state(), HealthState::kOverloaded);
  EXPECT_EQ(health.breaches(), 3u);
}

TEST(HealthMonitorTest, RecoversOneRungPerQuietStreak) {
  HealthMonitor health(ladder_config());
  for (int i = 0; i < 3; ++i) health.observe_phase("evaluate", 50.0);
  ASSERT_EQ(health.state(), HealthState::kOverloaded);

  // recover_after = 2 consecutive in-deadline phases per rung.
  health.observe_phase("evaluate", 1.0);
  EXPECT_EQ(health.state(), HealthState::kOverloaded);
  health.observe_phase("evaluate", 1.0);
  EXPECT_EQ(health.state(), HealthState::kDegraded);
  health.observe_phase("purge", 1.0);
  health.observe_phase("purge", 1.0);
  EXPECT_EQ(health.state(), HealthState::kOk);

  // A breach mid-streak resets the quiet counter.
  for (int i = 0; i < 1; ++i) health.observe_phase("evaluate", 50.0);
  ASSERT_EQ(health.state(), HealthState::kDegraded);
  health.observe_phase("evaluate", 1.0);
  health.observe_phase("evaluate", 50.0);  // breach resets the streak
  health.observe_phase("evaluate", 1.0);
  EXPECT_EQ(health.state(), HealthState::kDegraded);
  health.observe_phase("evaluate", 1.0);
  EXPECT_EQ(health.state(), HealthState::kOk);
}

TEST(HealthMonitorTest, DisabledDeadlineObservesWithoutTransitions) {
  WatchdogConfig config;  // trigger_deadline_ms = 0: watchdog off
  HealthMonitor health(config);
  EXPECT_FALSE(health.observe_phase("evaluate", 1e9));
  EXPECT_EQ(health.state(), HealthState::kOk);
  EXPECT_EQ(health.breaches(), 0u);
  EXPECT_EQ(health.transitions(), 0u);
}

TEST(HealthMonitorTest, DrainingIsTerminal) {
  HealthMonitor health(ladder_config());
  health.begin_drain();
  ASSERT_EQ(health.state(), HealthState::kDraining);
  // Breaches and quiet phases are still recorded, but the state is final.
  EXPECT_TRUE(health.observe_phase("checkpoint", 50.0));
  EXPECT_EQ(health.state(), HealthState::kDraining);
  for (int i = 0; i < 4; ++i) health.observe_phase("checkpoint", 1.0);
  EXPECT_EQ(health.state(), HealthState::kDraining);
}

TEST(HealthMonitorTest, DeferDelayGrowsExponentiallyAndResetsOnRecovery) {
  HealthMonitor health(ladder_config());  // jitter 0: exact schedule
  EXPECT_DOUBLE_EQ(health.defer_delay_ms(), 50.0);
  EXPECT_DOUBLE_EQ(health.defer_delay_ms(), 100.0);
  EXPECT_DOUBLE_EQ(health.defer_delay_ms(), 200.0);

  // A completed recovery streak resets the deferral run.
  for (int i = 0; i < 3; ++i) health.observe_phase("evaluate", 50.0);
  for (int i = 0; i < 6; ++i) health.observe_phase("evaluate", 1.0);
  ASSERT_EQ(health.state(), HealthState::kOk);
  EXPECT_DOUBLE_EQ(health.defer_delay_ms(), 50.0);
}

// ---- Daemon-level behaviour ------------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Small mixed history: per-user job bursts plus a few files so triggers
/// have something to rank and purge.
std::vector<trace::Event> make_history() {
  std::vector<trace::Event> events;
  const auto day = util::days(1);
  for (std::size_t u = 0; u < kUsers; ++u) {
    for (std::size_t f = 0; f < 2; ++f) {
      trace::Event e;
      e.kind = trace::EventKind::kCreate;
      e.user = static_cast<trace::UserId>(u);
      e.timestamp = kBase + static_cast<util::Duration>(u * 2 + f) * day / 4;
      e.path = "/scratch/user_" + std::to_string(u) + "/f" +
               std::to_string(f) + ".dat";
      e.size_bytes = 1000 + u * 100 + f;
      e.stripe_count = 4;
      events.push_back(e);
    }
    const int bursts = static_cast<int>(kUsers - u);
    for (int b = 0; b < bursts; ++b) {
      trace::Event job;
      job.kind = trace::EventKind::kJob;
      job.user = static_cast<trace::UserId>(u);
      job.timestamp = kBase + static_cast<util::Duration>(b * 9 + 1) * day +
                      static_cast<util::Duration>(u);
      job.impact = 120.0 * (b + 1) + static_cast<double>(u) * 0.25;
      events.push_back(job);
    }
  }
  return events;
}

core::ServiceConfig service_config() {
  core::ServiceConfig config;
  config.lifetime_days = 30;
  config.record_victims = true;
  return config;
}

class DaemonHealthTest : public ::testing::Test {
 protected:
  std::string dir_ = ::testing::TempDir() + "/adr_health_test_" +
                     std::to_string(::getpid());
  util::TimePoint now_ = kBase + util::days(70);

  void SetUp() override {
    util::FaultInjector::global().clear();
    fsys::remove_all(dir_);
    fsys::create_directories(dir_);
  }
  void TearDown() override {
    util::FaultInjector::global().clear();
    fsys::remove_all(dir_);
  }

  std::string wal(const std::string& tag) { return dir_ + "/" + tag + "/wal"; }
  std::string state(const std::string& tag) {
    return dir_ + "/" + tag + "/state";
  }

  void write_wal(const std::string& tag,
                 const std::vector<trace::Event>& events) {
    fsys::create_directories(wal(tag));
    trace::EventLogWriter writer(wal(tag));
    for (const auto& event : events) writer.append(event);
  }

  DaemonOptions daemon_options(const std::string& tag) {
    DaemonOptions options;
    options.wal_dir = wal(tag);
    options.state_dir = state(tag);
    options.service = service_config();
    options.checkpoint_every_events = 0;
    options.metrics_every_ticks = 0;
    return options;
  }

  /// Drop a .cmd, run one tick, return the reply (asserts it arrived).
  util::Config ctl(Daemon& daemon, const std::string& name,
                   const std::vector<std::pair<std::string, std::string>>&
                       entries) {
    drop_cmd(daemon, name, entries);
    daemon.tick();
    const std::string out_path = daemon.ctl_dir() + "/" + name + ".out";
    EXPECT_TRUE(fsys::exists(out_path)) << name << ": no reply";
    util::Config reply = util::Config::from_file(out_path);
    fsys::remove(out_path);
    return reply;
  }

  void drop_cmd(Daemon& daemon, const std::string& name,
                const std::vector<std::pair<std::string, std::string>>&
                    entries) {
    if (!daemon.started()) daemon.start();
    const std::string cmd_path = daemon.ctl_dir() + "/" + name + ".cmd";
    util::io::AtomicWriter writer(cmd_path, {.fsync = false, .footer = false});
    for (const auto& [key, value] : entries) {
      writer.write_line(key + " = " + value);
    }
    writer.commit();
  }
};

TEST_F(DaemonHealthTest, SlowPhaseDegradesDaemonButOutputStaysIdentical) {
  const std::string tag = "degrade";
  write_wal(tag, make_history());

  // Cold reference: same WAL, same trigger arithmetic, no watchdog.
  std::string cold_ranks, cold_victims;
  {
    core::Service service(trace::UserRegistry::with_synthetic_users(kUsers),
                          service_config());
    service.register_paper_types();
    trace::EventLogReader reader(wal(tag));
    for (const auto& event : reader.read_after(0)) service.apply(event);
    const auto target = static_cast<std::uint64_t>(
        static_cast<double>(service.vfs().total_bytes()) * 0.5);
    const auto report = service.purge(now_, target);
    const std::string path = dir_ + "/cold_ranks.csv";
    activeness::save_rank_file(service.pipeline().users(), path);
    cold_ranks = slurp(path);
    for (const auto& p : report.victim_paths) cold_victims += p + "\n";
    ASSERT_FALSE(cold_victims.empty());
  }

  DaemonOptions options = daemon_options(tag);
  options.watchdog.trigger_deadline_ms = 1;
  options.watchdog.degrade_after = 1;
  options.watchdog.overload_after = 1000;  // stay on the first rung
  options.watchdog.recover_after = 1000;
  Daemon daemon(trace::UserRegistry::with_synthetic_users(kUsers), options);
  daemon.start();

  // A stalled evaluate phase breaches the 1 ms deadline -> degraded.
  util::FaultInjector::global().configure("service.evaluate:stall@15");
  const util::Config eval = ctl(daemon, "slow_eval",
                                {{"cmd", "evaluate"},
                                 {"now", std::to_string(now_ - 1)}});
  EXPECT_EQ(eval.get_string("ok", ""), "true");
  EXPECT_EQ(daemon.health().state(), HealthState::kDegraded);
  util::FaultInjector::global().clear();

  const util::Config status = ctl(daemon, "st", {{"cmd", "status"}});
  EXPECT_EQ(status.get_string("health", ""), "degraded");
  EXPECT_GE(status.get_int("watchdog_breaches", 0), 1);

  // Degraded = incremental evaluation pinned; the trigger still answers
  // with byte-identical ranks and victims.
  const std::string ranks_path = dir_ + "/warm_ranks.csv";
  const std::string victims_path = dir_ + "/warm_victims.txt";
  const util::Config reply = ctl(daemon, "trig",
                                 {{"cmd", "trigger"},
                                  {"now", std::to_string(now_)},
                                  {"retain", "0.5"},
                                  {"ranks_out", ranks_path},
                                  {"victims_out", victims_path}});
  EXPECT_EQ(reply.get_string("ok", ""), "true");
  EXPECT_EQ(slurp(ranks_path), cold_ranks);
  EXPECT_EQ(slurp(victims_path), cold_victims);
}

TEST_F(DaemonHealthTest, OverloadedDaemonDefersTriggersThenRecovers) {
  const std::string tag = "defer";
  write_wal(tag, make_history());

  DaemonOptions options = daemon_options(tag);
  options.watchdog.trigger_deadline_ms = 1;
  options.watchdog.degrade_after = 1;
  options.watchdog.overload_after = 1;
  options.watchdog.recover_after = 1;
  options.watchdog.defer_backoff = {.max_attempts = 1 << 20,
                                    .initial_delay_ms = 30.0,
                                    .multiplier = 1.0,
                                    .max_delay_ms = 30.0,
                                    .jitter = 0.0};
  Daemon daemon(trace::UserRegistry::with_synthetic_users(kUsers), options);
  daemon.start();

  // Two stalled phases (distinct `now`s so the eval cache doesn't absorb
  // the second one): degraded, then overloaded.
  util::FaultInjector::global().configure("service.evaluate:stall@10");
  ctl(daemon, "s1", {{"cmd", "evaluate"}, {"now", std::to_string(now_ - 2)}});
  EXPECT_EQ(daemon.health().state(), HealthState::kDegraded);
  ctl(daemon, "s2", {{"cmd", "evaluate"}, {"now", std::to_string(now_ - 1)}});
  EXPECT_EQ(daemon.health().state(), HealthState::kOverloaded);
  util::FaultInjector::global().clear();

  // While the deferral window is armed, a trigger command is left in
  // place: no reply, no work, and the daemon keeps ticking.
  drop_cmd(daemon, "deferred",
           {{"cmd", "evaluate"}, {"now", std::to_string(now_)}});
  daemon.tick();
  const std::string cmd_path = daemon.ctl_dir() + "/deferred.cmd";
  const std::string out_path = daemon.ctl_dir() + "/deferred.out";
  EXPECT_TRUE(fsys::exists(cmd_path)) << "deferred command was consumed";
  EXPECT_FALSE(fsys::exists(out_path));

  // status/stop verbs are never deferred.
  const util::Config status = ctl(daemon, "st", {{"cmd", "status"}});
  EXPECT_EQ(status.get_string("health", ""), "overloaded");

  // Once the window passes (30 ms, jitter 0) the command runs; the phase
  // is fast now, so each quiet phase steps the ladder down one rung.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  daemon.tick();
  ASSERT_TRUE(fsys::exists(out_path)) << "deferred command never ran";
  const util::Config reply = util::Config::from_file(out_path);
  EXPECT_EQ(reply.get_string("ok", ""), "true");
  EXPECT_EQ(daemon.health().state(), HealthState::kDegraded);

  ctl(daemon, "s3", {{"cmd", "evaluate"}, {"now", std::to_string(now_ + 1)}});
  EXPECT_EQ(daemon.health().state(), HealthState::kOk);
}

TEST_F(DaemonHealthTest, StatusReportsQueueDepthAndSpillReplayLandsEverything) {
  const std::string tag = "spill";
  write_wal(tag, make_history());

  DaemonOptions options = daemon_options(tag);
  options.ingest_queue_cap = 2;
  options.backpressure = activeness::BackpressurePolicy::kSpill;
  Daemon daemon(trace::UserRegistry::with_synthetic_users(kUsers), options);
  daemon.start();

  // Flood past the cap: 2 queued, the rest spilled to the WAL-backed
  // overflow segment.
  auto& store = daemon.service().store();
  for (int i = 0; i < 6; ++i) {
    store.enqueue(static_cast<trace::UserId>(i % kUsers),
                  core::kJobActivityType,
                  activeness::Activity{now_ - 100 + i, 10.0 * (i + 1)});
  }
  EXPECT_EQ(store.pending_ingest(), 2u);
  EXPECT_EQ(store.spilled_count(), 4u);

  const util::Config status = ctl(daemon, "st", {{"cmd", "status"}});
  EXPECT_EQ(status.get_string("health", ""), "ok");
  EXPECT_GE(status.get_int("wal_segments", 0), 1);
  EXPECT_EQ(status.get_int("shed_events", -1), 0);
  EXPECT_GE(status.get_int("spilled_events", 0), 4);
  EXPECT_GE(status.get_int("ingest_depth_high_water", 0), 2);

  // Evaluate rounds drain the queue; tick() replays the spill segment
  // once pressure clears. A few rounds land every spilled event.
  for (int round = 0; round < 6; ++round) {
    ctl(daemon, "ev" + std::to_string(round),
        {{"cmd", "evaluate"}, {"now", std::to_string(now_ - 5 + round)}});
    daemon.tick();
  }
  EXPECT_EQ(store.pending_ingest(), 0u);

  // Identity check: a reference service fed the same six events directly
  // ranks identically — nothing was lost or duplicated in the spill loop.
  const std::string warm_path = dir_ + "/spill_ranks.csv";
  const util::Config reply = ctl(daemon, "final",
                                 {{"cmd", "evaluate"},
                                  {"now", std::to_string(now_)},
                                  {"ranks_out", warm_path}});
  EXPECT_EQ(reply.get_string("ok", ""), "true");

  core::Service reference(trace::UserRegistry::with_synthetic_users(kUsers),
                          service_config());
  reference.register_paper_types();
  trace::EventLogReader reader(wal(tag));
  for (const auto& event : reader.read_after(0)) reference.apply(event);
  for (int i = 0; i < 6; ++i) {
    reference.store().append(static_cast<trace::UserId>(i % kUsers),
                             core::kJobActivityType,
                             activeness::Activity{now_ - 100 + i,
                                                  10.0 * (i + 1)});
  }
  reference.evaluate(now_);
  const std::string ref_path = dir_ + "/ref_ranks.csv";
  activeness::save_rank_file(reference.pipeline().users(), ref_path);
  EXPECT_EQ(slurp(warm_path), slurp(ref_path));
}

TEST_F(DaemonHealthTest, TransientCheckpointFaultIsAbsorbedWithoutDowngrade) {
  const std::string tag = "retry";
  write_wal(tag, make_history());

  DaemonOptions options = daemon_options(tag);
  options.watchdog.trigger_deadline_ms = 5000;  // watchdog armed, generous
  options.io_retry = {.max_attempts = 3,
                      .initial_delay_ms = 0.0,
                      .max_delay_ms = 0.0};
  Daemon daemon(trace::UserRegistry::with_synthetic_users(kUsers), options);
  daemon.start();
  daemon.tick();

  // The first two temp-file opens fail (a transient burst), then clear:
  // the §14.3 retry wrapper absorbs it inside the checkpoint command. The
  // fault is armed only after the .cmd drop (the drop itself is IO too).
  drop_cmd(daemon, "ckpt", {{"cmd", "checkpoint"}});
  util::FaultInjector::global().configure("io.atomic.open:flaky@2");
  daemon.tick();
  util::FaultInjector::global().clear();
  const std::string out_path = daemon.ctl_dir() + "/ckpt.out";
  ASSERT_TRUE(fsys::exists(out_path));
  const util::Config reply = util::Config::from_file(out_path);
  EXPECT_EQ(reply.get_string("ok", ""), "true");
  EXPECT_FALSE(reply.get_string("dir", "").empty());
  EXPECT_EQ(daemon.health().state(), HealthState::kOk);

  // The retried checkpoint is a valid bundle: a fresh daemon restores it.
  Daemon restarted(trace::UserRegistry::with_synthetic_users(kUsers),
                   daemon_options(tag));
  restarted.start();
  EXPECT_EQ(restarted.service().last_applied_seq(),
            daemon.service().last_applied_seq());
}

TEST_F(DaemonHealthTest, TornCommandFileNeverAbortsTheServeLoop) {
  const std::string tag = "torn";
  write_wal(tag, make_history());
  Daemon daemon(trace::UserRegistry::with_synthetic_users(kUsers),
                daemon_options(tag));
  daemon.start();

  // A half-written command drop: no "cmd =" line, trailing garbage — the
  // daemon must answer ok = false and keep serving.
  const std::string cmd_path = daemon.ctl_dir() + "/halfwrite.cmd";
  {
    std::ofstream out(cmd_path, std::ios::binary);
    out << "cm";  // torn mid-key
  }
  EXPECT_TRUE(daemon.tick());
  const std::string out_path = daemon.ctl_dir() + "/halfwrite.out";
  ASSERT_TRUE(fsys::exists(out_path));
  EXPECT_FALSE(fsys::exists(cmd_path)) << "torn command not consumed";
  const util::Config reply = util::Config::from_file(out_path);
  EXPECT_EQ(reply.get_string("ok", ""), "false");
  fsys::remove(out_path);

  // An unknown verb likewise: error reply, loop alive.
  const util::Config unknown = ctl(daemon, "nope", {{"cmd", "frobnicate"}});
  EXPECT_EQ(unknown.get_string("ok", ""), "false");
  EXPECT_FALSE(unknown.get_string("error", "").empty());

  // And the next valid command still answers.
  const util::Config status = ctl(daemon, "after", {{"cmd", "status"}});
  EXPECT_EQ(status.get_string("ok", ""), "true");
}

TEST_F(DaemonHealthTest, StopFlagMidStreamFinishesPhaseSealsWalAndCheckpoints) {
  const std::string tag = "sigstop";
  write_wal(tag, make_history());

  std::atomic<bool> stop{false};
  DaemonOptions options = daemon_options(tag);
  options.stop_flag = &stop;
  options.checkpoint_every_events = 0;  // only the shutdown checkpoint
  Daemon daemon(trace::UserRegistry::with_synthetic_users(kUsers), options);
  daemon.start();
  daemon.tick();

  // The flag is raised mid-stream (as the SIGINT/SIGTERM handler would):
  // run() must finish the in-flight tick, seal the WAL, write the final
  // checkpoint, and exit 0 — never abandon in-flight work.
  stop.store(true);
  EXPECT_EQ(daemon.run(), 0);
  EXPECT_EQ(daemon.health().state(), HealthState::kDraining);

  // WAL sealed: no .open segment remains.
  std::size_t open_segments = 0, sealed_segments = 0;
  for (const auto& entry : fsys::directory_iterator(wal(tag))) {
    const std::string name = entry.path().filename().string();
    if (name.ends_with(".open")) ++open_segments;
    if (name.ends_with(".seg")) ++sealed_segments;
  }
  EXPECT_EQ(open_segments, 0u);
  EXPECT_GE(sealed_segments, 1u);

  // Final checkpoint restores to the exact same applied seq.
  Daemon restarted(trace::UserRegistry::with_synthetic_users(kUsers),
                   daemon_options(tag));
  restarted.start();
  EXPECT_EQ(restarted.service().last_applied_seq(),
            daemon.service().last_applied_seq());
  EXPECT_GT(restarted.service().last_applied_seq(), 0u);
}

}  // namespace
}  // namespace adr::serve
