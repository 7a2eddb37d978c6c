#include "cli/serve_commands.hpp"

#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "cli/flags.hpp"
#include "retention/exemption.hpp"
#include "serve/daemon.hpp"
#include "trace/app_log.hpp"
#include "trace/event_log.hpp"
#include "trace/job_log.hpp"
#include "trace/publication_log.hpp"
#include "trace/user_registry.hpp"
#include "util/io.hpp"

namespace adr::cli {

namespace {

namespace fsys = std::filesystem;

// SIGINT/SIGTERM request a graceful stop: the daemon finishes the tick,
// seals the WAL, writes a final checkpoint, and exits 0 (the satellite
// contract; a kill -9 is the crash-recovery path instead).
std::atomic<bool> g_stop_requested{false};

void request_stop(int) { g_stop_requested.store(true); }

}  // namespace

int cmd_serve(const util::Config& config, std::ostream& out) {
  auto registry = trace::UserRegistry::load_csv(require_str(config, "users"));

  serve::DaemonOptions opts;
  opts.wal_dir = require_str(config, "wal");
  opts.state_dir = require_str(config, "state");
  opts.service.lifetime_days =
      static_cast<int>(config.get_int("lifetime", 90));
  opts.checkpoint_every_events = static_cast<std::uint64_t>(config.get_int(
      "checkpoint-every",
      static_cast<std::int64_t>(opts.checkpoint_every_events)));
  opts.poll_interval_ms = static_cast<int>(
      config.get_int("poll-ms", opts.poll_interval_ms));
  opts.max_ticks =
      static_cast<std::uint64_t>(config.get_int("max-ticks", 0));
  opts.snapshot_path = config.get_string("snapshot", "");
  // --metrics-out interval mode: while the daemon runs, the registry is
  // re-exported (atomic rewrite) every --metrics-interval ticks instead of
  // only once at process exit.
  opts.metrics_out = config.get_string("metrics-out", "");
  opts.metrics_every_ticks = static_cast<std::uint64_t>(config.get_int(
      "metrics-interval",
      static_cast<std::int64_t>(opts.metrics_every_ticks)));
  opts.seal_wal_on_stop = !config.get_bool("no-seal-on-stop", false);

  // Overload-protection knobs (DESIGN.md §14): bounded ingest admission
  // and the trigger watchdog. All default off, preserving the historical
  // unbounded/undeadlined behaviour.
  const auto queue_cap = config.get_int("ingest-queue-cap", 0);
  if (queue_cap < 0) {
    throw std::runtime_error("--ingest-queue-cap must be >= 0 (0 = unbounded)");
  }
  opts.ingest_queue_cap = static_cast<std::size_t>(queue_cap);
  opts.backpressure = backpressure_flag(config);
  const auto shed_budget = config.get_int("shed-budget", 0);
  if (shed_budget < 0) throw std::runtime_error("--shed-budget must be >= 0");
  opts.shed_budget = static_cast<std::size_t>(shed_budget);
  opts.spill_dir = config.get_string("spill-dir", "");
  const auto deadline_ms = config.get_int("trigger-deadline-ms", 0);
  if (deadline_ms < 0) {
    throw std::runtime_error("--trigger-deadline-ms must be >= 0 (0 = off)");
  }
  opts.watchdog.trigger_deadline_ms = static_cast<std::uint64_t>(deadline_ms);

  g_stop_requested.store(false);
  opts.stop_flag = &g_stop_requested;

  serve::Daemon daemon(std::move(registry), opts);
  if (const auto exempt = config.get("exempt")) {
    daemon.service().set_exemptions(retention::ExemptionList::load(*exempt));
  }

  const auto prior_int = std::signal(SIGINT, request_stop);
  const auto prior_term = std::signal(SIGTERM, request_stop);

  out << "serve: wal " << opts.wal_dir << ", state " << opts.state_dir
      << ", ctl " << daemon.ctl_dir() << "\n"
      << std::flush;
  int rc;
  try {
    rc = daemon.run();
  } catch (...) {
    std::signal(SIGINT, prior_int);
    std::signal(SIGTERM, prior_term);
    throw;
  }
  std::signal(SIGINT, prior_int);
  std::signal(SIGTERM, prior_term);

  out << "serve: stopped gracefully; applied " << daemon.events_applied()
      << " events, last seq " << daemon.service().last_applied_seq() << "\n";
  return rc;
}

int cmd_feed(const util::Config& config, std::ostream& out) {
  const std::string wal_dir = require_str(config, "wal");
  trace::EventLogOptions log_opts;
  log_opts.rotate_events = static_cast<std::uint64_t>(config.get_int(
      "rotate", static_cast<std::int64_t>(log_opts.rotate_events)));
  log_opts.fsync = util::io::default_fsync();
  trace::EventLogWriter writer(wal_dir, log_opts);

  // Jobs, then publications, then app-log file operations — each in file
  // order, which is exactly the order the bulk ingest paths see, so a WAL
  // replay and a one-shot run over the same files agree byte-for-byte.
  std::size_t jobs_n = 0, pubs_n = 0, app_n = 0;
  if (const auto jobs_path = config.get("jobs")) {
    const auto jobs = trace::JobLog::load_csv(*jobs_path);
    for (const auto& job : jobs.records()) {
      writer.append(trace::make_job_event(job));
      ++jobs_n;
    }
  }
  if (const auto pubs_path = config.get("pubs")) {
    const auto pubs = trace::PublicationLog::load_csv(*pubs_path);
    for (const auto& pub : pubs.records()) {
      for (const auto& event : trace::make_publication_events(pub)) {
        writer.append(event);
        ++pubs_n;
      }
    }
  }
  if (const auto app_path = config.get("applog")) {
    const auto applog = trace::AppLog::load_csv(*app_path);
    for (const auto& entry : applog.entries()) {
      writer.append(trace::make_app_event(entry));
      ++app_n;
    }
  }
  if (config.get_bool("seal", false)) {
    writer.seal();
  } else {
    writer.flush();
  }

  out << "feed: appended " << jobs_n << " job, " << pubs_n
      << " publication, " << app_n << " file events to " << wal_dir
      << " (next seq " << writer.next_seq() << ")\n";
  return 0;
}

int cmd_ctl(const util::Config& config, std::ostream& out) {
  const std::string ctl_dir = require_str(config, "state") + "/ctl";
  const std::string verb = require_str(config, "cmd");
  fsys::create_directories(ctl_dir);

  std::vector<std::string> lines;
  lines.push_back("cmd = " + verb);
  if (verb == "trigger" || verb == "evaluate") {
    if (config.contains("now-unix")) {
      lines.push_back("now = " + std::to_string(config.get_int("now-unix", 0)));
    } else {
      lines.push_back("now = " + std::to_string(require_date(config, "now")));
    }
  }
  for (const char* key : {"ranks-out", "victims-out", "retain", "policy"}) {
    if (const auto value = config.get(key)) {
      std::string name = key;
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      lines.push_back(name + " = " + *value);
    }
  }

  // Unique-enough name per invocation; bump the suffix on collision.
  std::string stem =
      "ctl-" + std::to_string(static_cast<std::uint64_t>(
                   std::chrono::steady_clock::now().time_since_epoch().count()));
  while (fsys::exists(ctl_dir + "/" + stem + ".cmd") ||
         fsys::exists(ctl_dir + "/" + stem + ".out")) {
    stem += "x";
  }
  const std::string out_path = ctl_dir + "/" + stem + ".out";
  {
    // Committed via rename, so the daemon can never pick up a torn command.
    util::io::AtomicWriter writer(ctl_dir + "/" + stem + ".cmd",
                                  {.fsync = false, .footer = false});
    for (const auto& line : lines) writer.write_line(line);
    writer.commit();
  }

  const auto timeout =
      std::chrono::milliseconds(config.get_int("timeout-ms", 30000));
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!fsys::exists(out_path)) {
    if (std::chrono::steady_clock::now() >= deadline) {
      out << "ctl: timed out waiting for reply " << out_path << "\n";
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  const util::io::Artifact reply = util::io::read_artifact(out_path);
  out << reply.content;
  const util::Config parsed = util::Config::from_file(out_path);
  std::error_code ec;
  fsys::remove(out_path, ec);
  return parsed.get_bool("ok", false) ? 0 : 1;
}

}  // namespace adr::cli
