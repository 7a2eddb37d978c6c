#include "serve/daemon.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "activeness/rank_store.hpp"
#include "obs/metrics.hpp"
#include "retention/policy.hpp"
#include "trace/snapshot.hpp"
#include "util/backoff.hpp"
#include "util/config.hpp"
#include "util/fault.hpp"
#include "util/io.hpp"
#include "util/logging.hpp"

namespace adr::serve {

namespace {

namespace fsys = std::filesystem;

constexpr char kCheckpointPrefix[] = "checkpoint-";

std::string checkpoint_name(std::uint64_t seq) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%s%020llu", kCheckpointPrefix,
                static_cast<unsigned long long>(seq));
  return buf;
}

/// Checkpoint directories under `dir`, newest (highest seq) first.
std::vector<std::pair<std::uint64_t, std::string>> list_checkpoints(
    const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> found;
  if (!fsys::exists(dir)) return found;
  for (const auto& entry : fsys::directory_iterator(dir)) {
    if (!entry.is_directory()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind(kCheckpointPrefix, 0) != 0) continue;
    try {
      found.emplace_back(std::stoull(name.substr(sizeof(kCheckpointPrefix) - 1)),
                         entry.path().string());
    } catch (const std::exception&) {
      continue;  // not ours
    }
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return found;
}

/// WAL segments on disk (sealed .seg + the open tail) — the `ctl status`
/// wal_segments field.
std::size_t count_wal_segments(const std::string& dir) {
  std::size_t n = 0;
  if (!fsys::exists(dir)) return n;
  for (const auto& entry : fsys::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.ends_with(".seg") || name.ends_with(".open")) ++n;
  }
  return n;
}

double elapsed_ms_since(std::chrono::steady_clock::time_point begin) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - begin)
      .count();
}

}  // namespace

Daemon::Daemon(trace::UserRegistry registry, DaemonOptions options)
    : options_(std::move(options)),
      service_(
          std::move(registry),
          [](core::ServiceConfig config) {
            // Purge lists are the daemon's product; victim recording is what
            // lets clients (and the identity tests) read them back.
            config.record_victims = true;
            return config;
          }(options_.service)),
      health_(options_.watchdog) {
  if (options_.wal_dir.empty() || options_.state_dir.empty()) {
    throw std::invalid_argument("Daemon: wal_dir and state_dir are required");
  }
  if (options_.keep_checkpoints == 0) options_.keep_checkpoints = 1;
  service_.register_paper_types();
}

std::string Daemon::checkpoints_dir() const {
  return options_.state_dir + "/checkpoints";
}

std::string Daemon::ctl_dir() const { return options_.state_dir + "/ctl"; }

void Daemon::start() {
  if (started_) return;
  fsys::create_directories(checkpoints_dir());
  fsys::create_directories(ctl_dir());
  fsys::create_directories(options_.wal_dir);

  auto& metrics = obs::MetricsRegistry::global();
  bool restored = false;
  for (const auto& [seq, path] : list_checkpoints(checkpoints_dir())) {
    const auto status = service_.restore_checkpoint(path);
    if (status.ok) {
      restored = true;
      metrics.counter("serve.recoveries").add();
      break;
    }
    // A crash mid-checkpoint leaves an unsealed/invalid bundle: skip it and
    // fall back to the previous one plus a longer WAL tail.
    metrics.counter("serve.checkpoints_skipped").add();
  }
  if (!restored && !options_.snapshot_path.empty()) {
    service_.load_snapshot(trace::Snapshot::load_csv(options_.snapshot_path));
  }

  // Bounded ingest admission (§14.1) — configured after recovery so the
  // restored store carries it; the spill segment (and any pending events a
  // previous run left in it) lives under the daemon's state dir.
  if (options_.ingest_queue_cap > 0) {
    activeness::AdmissionConfig admission;
    admission.queue_cap = options_.ingest_queue_cap;
    admission.policy = options_.backpressure;
    admission.shed_budget = options_.shed_budget;
    if (admission.policy == activeness::BackpressurePolicy::kSpill) {
      spill_ = std::make_unique<activeness::SpillLog>(
          options_.spill_dir.empty() ? options_.state_dir + "/spill"
                                     : options_.spill_dir);
      admission.spill = spill_.get();
    }
    service_.prepare_ingest();
    service_.store().set_admission(admission);
  }

  reader_.emplace(options_.wal_dir);
  reader_->seek(service_.last_applied_seq());
  started_ = true;
}

void Daemon::replay_spill() {
  if (!spill_ || spill_->pending() == 0) return;
  // Only when the queues have fully drained — replaying into live pressure
  // would just bounce the events back into the next spill segment.
  auto& store = service_.store();
  if (store.pending_ingest() != 0) return;
  try {
    const std::size_t n = spill_->replay(
        [&store](trace::UserId user, activeness::ActivityTypeId type,
                 activeness::Activity activity) {
          store.enqueue(user, type, activity);
        });
    if (n > 0) {
      ADR_INFO << "serve: re-admitted " << n << " spilled events";
    }
  } catch (const util::CrashInjected&) {
    throw;
  } catch (const std::exception& e) {
    ADR_WARN << "serve: spill replay failed: " << e.what();
    obs::MetricsRegistry::global().counter("serve.spill_replay_failures").add();
  }
}

std::size_t Daemon::poll_wal() {
  std::size_t applied = 0;
  const std::size_t delivered = reader_->poll([&](const trace::Event& event) {
    if (service_.apply(event)) ++applied;
  });
  (void)delivered;
  if (applied > 0) {
    events_applied_ += applied;
    events_since_checkpoint_ += applied;
    util::FaultInjector::global().crash_point("serve.post_apply");
  }
  auto& metrics = obs::MetricsRegistry::global();
  // Backlog the tick found waiting — the observable WAL lag of a tailer
  // that drains to the tip on every poll.
  metrics.gauge("serve.wal_lag").set(static_cast<std::int64_t>(applied));
  metrics.gauge("serve.events_applied")
      .set(static_cast<std::int64_t>(events_applied_));
  metrics.gauge("serve.checkpoint_age_events")
      .set(static_cast<std::int64_t>(events_since_checkpoint_));
  return applied;
}

void Daemon::observe_phase(const char* phase,
                           std::chrono::steady_clock::time_point begin) {
  health_.observe_phase(phase, elapsed_ms_since(begin));
  apply_health();
}

void Daemon::apply_health() {
  // Overloaded defers new triggers with jittered exponential backoff (the
  // .cmd file stays in place; status/stop keep working). Degraded is a
  // reported rung only: the evaluator has one schedule, so there is nothing
  // to pin.
  if (health_.state() != HealthState::kOverloaded) return;
  defer_until_ = std::chrono::steady_clock::now() +
                 std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double, std::milli>(
                         health_.defer_delay_ms()));
}

bool Daemon::defer_trigger() const {
  return health_.state() == HealthState::kOverloaded &&
         std::chrono::steady_clock::now() < defer_until_;
}

std::string Daemon::save_checkpoint_now() {
  const std::string dir =
      checkpoints_dir() + "/" + checkpoint_name(service_.last_applied_seq());
  // Transient write faults retry in place; crashes and corruption surface
  // (the whole bundle re-commits atomically on a retried attempt).
  util::retry_io("serve.checkpoint", options_.io_retry,
                 [&] { service_.save_checkpoint(dir); });
  events_since_checkpoint_ = 0;
  obs::MetricsRegistry::global()
      .gauge("serve.checkpoint_seq")
      .set(static_cast<std::int64_t>(service_.last_applied_seq()));
  prune_checkpoints();
  return dir;
}

void Daemon::prune_checkpoints() {
  const auto checkpoints = list_checkpoints(checkpoints_dir());
  for (std::size_t i = options_.keep_checkpoints; i < checkpoints.size();
       ++i) {
    util::FaultInjector::global().crash_point("serve.checkpoint.prune");
    std::error_code ec;
    fsys::remove_all(checkpoints[i].second, ec);
  }
}

void Daemon::export_metrics() {
  if (options_.metrics_out.empty()) return;
  // Best-effort: a metrics file the disk refuses to take must never kill
  // the daemon. Injected crashes still propagate (simulated kill -9).
  try {
    util::retry_io("serve.metrics", options_.io_retry, [&] {
      util::io::AtomicWriter writer(options_.metrics_out,
                                    {.fsync = false, .footer = false});
      writer.write_line(obs::MetricsRegistry::global().to_json());
      writer.commit();
    });
  } catch (const util::CrashInjected&) {
    throw;
  } catch (const std::exception& e) {
    ADR_WARN << "metrics export failed (will retry next cadence): "
             << e.what();
    obs::MetricsRegistry::global()
        .counter("serve.metrics_export_failures")
        .add();
  }
}

void Daemon::handle_command(const std::string& cmd_path) {
  const std::string out_path =
      cmd_path.substr(0, cmd_path.size() - 4) + ".out";
  // Crash between reply and removal: the restart sees both files, removes
  // the command, and never re-runs it (purges are not idempotent).
  if (fsys::exists(out_path)) {
    std::error_code ec;
    fsys::remove(cmd_path, ec);
    return;
  }

  std::vector<std::pair<std::string, std::string>> reply;
  const auto put = [&reply](const std::string& key, std::string value) {
    reply.emplace_back(key, std::move(value));
  };

  try {
    const util::Config cmd = util::Config::from_file(cmd_path);
    const std::string verb = cmd.get_string("cmd", "");
    if (verb == "trigger" || verb == "evaluate") {
      if (defer_trigger()) {
        // Overloaded: leave the .cmd in place — a later tick retries it
        // once the jittered deferral window passes. No reply yet.
        return;
      }
      if (!cmd.contains("now")) throw std::runtime_error("missing now =");
      const auto now = static_cast<util::TimePoint>(cmd.get_int("now", 0));
      const auto begin = std::chrono::steady_clock::now();
      if (verb == "trigger") {
        // Retain this fraction of *current usage*, as one-shot `purge
        // --target` does (0 disables the byte target).
        const std::uint64_t target = retention::retain_target_bytes(
            service_.vfs(), cmd.get_double("retain", 0.5));
        const std::string policy = cmd.get_string("policy", "activedr");
        if (policy != "activedr" && policy != "flt") {
          throw std::runtime_error("unknown policy \"" + policy + "\"");
        }
        const retention::PurgeReport report = service_.purge(
            now, target,
            policy == "flt" ? core::Policy::kFlt : core::Policy::kActiveDr);
        put("ok", "true");
        put("policy", report.policy);
        put("purged_files", std::to_string(report.purged_files));
        put("purged_bytes", std::to_string(report.purged_bytes));
        put("target_reached", report.target_reached ? "true" : "false");
        if (const auto victims_out = cmd.get("victims_out")) {
          report.save_victims(*victims_out);
        }
      } else {
        service_.evaluate(now);
        const auto counts = service_.group_counts();
        put("ok", "true");
        for (std::size_t g = 0; g < counts.size(); ++g) {
          put("g" + std::to_string(g + 1), std::to_string(counts[g]));
        }
      }
      const auto ranks_out = cmd.get("ranks_out");
      if (ranks_out) {
        activeness::save_rank_file(service_.pipeline().users(), *ranks_out);
      }
      obs::MetricsRegistry::global()
          .histogram("serve.trigger_seconds")
          .observe(std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - begin)
                       .count());
      observe_phase(verb == "trigger" ? "purge" : "evaluate", begin);
    } else if (verb == "checkpoint") {
      const auto begin = std::chrono::steady_clock::now();
      put("ok", "true");
      put("dir", save_checkpoint_now());
      observe_phase("checkpoint", begin);
    } else if (verb == "status") {
      put("ok", "true");
      put("events_applied", std::to_string(events_applied_));
      put("checkpoint_age_events",
          std::to_string(events_since_checkpoint_));
      put("users", std::to_string(service_.registry().size()));
      put("ticks", std::to_string(tick_count_));
      put("health", to_string(health_.state()));
      put("wal_segments", std::to_string(count_wal_segments(options_.wal_dir)));
      const activeness::ActivityStore& store = service_.store();
      put("ingest_pending", std::to_string(store.pending_ingest()));
      put("ingest_depth_high_water",
          std::to_string(store.ingest_depth_high_water()));
      put("shed_events", std::to_string(store.shed_count()));
      put("spilled_events", std::to_string(store.spilled_count()));
      put("watchdog_breaches", std::to_string(health_.breaches()));
    } else if (verb == "stop") {
      put("ok", "true");
      stopped_ = true;
    } else {
      throw std::runtime_error("unknown cmd \"" + verb + "\"");
    }
    put("applied_seq", std::to_string(service_.last_applied_seq()));
  } catch (const util::CrashInjected&) {
    throw;  // a simulated kill -9 must not write a reply
  } catch (const std::exception& e) {
    // Unknown verbs, torn/partial command files, and failed work all land
    // here: warn, answer ok = false, move on. A malformed drop must never
    // abort the serve loop.
    ADR_WARN << "command " << cmd_path << " failed: " << e.what();
    reply.clear();
    put("ok", "false");
    put("error", e.what());
    obs::MetricsRegistry::global().counter("serve.command_errors").add();
  }

  try {
    util::retry_io("serve.reply", options_.io_retry, [&] {
      util::io::AtomicWriter writer(
          out_path, {.fsync = util::io::default_fsync(), .footer = false});
      for (const auto& [key, value] : reply) {
        writer.write_line(key + " = " + value);
      }
      writer.commit();
    });
  } catch (const util::CrashInjected&) {
    throw;
  } catch (const std::exception& e) {
    // Reply unwritable even after retries: drop the command anyway (the
    // client times out and may re-issue) — the daemon itself stays up.
    ADR_WARN << "reply " << out_path << " unwritable: " << e.what();
    obs::MetricsRegistry::global().counter("serve.reply_failures").add();
  }
  std::error_code ec;
  fsys::remove(cmd_path, ec);
  obs::MetricsRegistry::global().counter("serve.commands").add();
}

void Daemon::process_commands() {
  std::vector<std::string> commands;
  for (const auto& entry : fsys::directory_iterator(ctl_dir())) {
    if (!entry.is_regular_file()) continue;
    const std::string path = entry.path().string();
    if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".cmd") == 0) {
      commands.push_back(path);
    }
  }
  std::sort(commands.begin(), commands.end());
  for (const auto& path : commands) handle_command(path);
}

bool Daemon::tick() {
  if (!started_) start();
  poll_wal();
  replay_spill();
  process_commands();
  if (options_.checkpoint_every_events > 0 &&
      events_since_checkpoint_ >= options_.checkpoint_every_events &&
      tick_count_ >= checkpoint_retry_at_tick_) {
    const auto begin = std::chrono::steady_clock::now();
    try {
      save_checkpoint_now();
      checkpoint_failures_in_row_ = 0;
      observe_phase("checkpoint", begin);
    } catch (const util::CrashInjected&) {
      throw;  // simulated kill -9: no graceful handling
    } catch (const std::exception& e) {
      // Cadence checkpoints are retried on later ticks with exponential
      // spacing — a full disk must not hot-loop or kill the daemon. The
      // age gauge keeps growing, so the debt stays visible.
      ADR_WARN << "cadence checkpoint failed: " << e.what();
      obs::MetricsRegistry::global()
          .counter("serve.checkpoint_failures")
          .add();
      checkpoint_retry_at_tick_ =
          tick_count_ +
          (1ull << std::min(checkpoint_failures_in_row_, 8));
      ++checkpoint_failures_in_row_;
      observe_phase("checkpoint", begin);
    }
  }
  ++tick_count_;
  if (options_.metrics_every_ticks > 0 &&
      tick_count_ % options_.metrics_every_ticks == 0) {
    export_metrics();
  }
  if (options_.stop_flag &&
      options_.stop_flag->load(std::memory_order_relaxed)) {
    stopped_ = true;
  }
  return !stopped_;
}

int Daemon::run() {
  start();
  while (tick()) {
    if (options_.max_ticks > 0 && tick_count_ >= options_.max_ticks) break;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.poll_interval_ms));
  }
  shutdown();
  return 0;
}

void Daemon::shutdown() {
  if (!started_) return;
  health_.begin_drain();
  while (poll_wal() > 0) {
  }
  if (options_.seal_wal_on_stop) {
    // Single-writer log: graceful shutdown assumes feeders have quiesced.
    trace::EventLogWriter writer(options_.wal_dir);
    writer.seal();
  }
  save_checkpoint_now();
  obs::MetricsRegistry::global().counter("serve.graceful_stops").add();
  export_metrics();  // last, so the final export reflects the stop itself
}

}  // namespace adr::serve
