// wal_serve: `activedr serve` in-process, fed through its WAL.
//
// 10k users at a high event rate. The driver appends trace::Event records
// with EventLogWriter::append and a serve::Daemon ticks (WAL poll, then
// Service::apply). Before each purge trigger the driver waits for the WAL
// to drain, then drops a `trigger` ctl command and ticks until the reply
// is written. The daemon's checkpoint cadence is off; the driver calls
// save_checkpoint_now() at fixed points of the run. Setup is the daemon's
// cold start: start() over a seed snapshot, then ticks through a WAL
// history written before timing begins. This is the only workload that
// runs the WAL format and parse, Service::apply's string paths, checkpoint
// bundles and the daemon loop; WAL ingest, not triggers, takes most of the
// run.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "driver.hpp"
#include "serve/daemon.hpp"
#include "trace/event_log.hpp"
#include "trace/user_registry.hpp"
#include "util/config.hpp"
#include "util/stats.hpp"

namespace perfbench {

namespace {

namespace fsys = std::filesystem;
using adr::synth::StreamEventKind;

constexpr std::size_t kUsers = 10'000;
constexpr std::size_t kFilesPerUser = 10;
constexpr int kBackfillDays = 90;
constexpr int kLifetimeDays = 2;
constexpr int kHistoryDays = 1;
constexpr double kEventsPerUserDay = 20.0;
constexpr adr::util::Duration kTriggerEvery = 30 * 60;
/// Run-phase checkpoints, at these fractions of the trigger count.
constexpr int kCheckpointsPerRun = 2;

adr::trace::Event to_event(const adr::synth::StreamEvent& e,
                           const std::string& path) {
  adr::trace::Event event;
  event.user = e.user;
  event.timestamp = e.timestamp;
  switch (e.kind) {
    case StreamEventKind::kJobSubmit:
      event.kind = adr::trace::EventKind::kJob;
      event.impact = e.impact;
      break;
    case StreamEventKind::kPublication:
      event.kind = adr::trace::EventKind::kPublication;
      event.impact = e.impact;
      break;
    case StreamEventKind::kFileCreate:
      event.kind = adr::trace::EventKind::kCreate;
      event.path = path;
      event.size_bytes = e.size_bytes;
      event.stripe_count = 1;
      break;
    case StreamEventKind::kFileAccess:
      event.kind = adr::trace::EventKind::kAccess;
      event.path = path;
      break;
  }
  return event;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  for (const auto& entry : fsys::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

/// One daemon plus the bookkeeping the driver needs to talk to it.
class Served {
 public:
  Served(const std::string& wal_dir, const std::string& state_dir,
         const std::string& seed_csv) {
    adr::serve::DaemonOptions opts;
    opts.wal_dir = wal_dir;
    opts.state_dir = state_dir;
    opts.service.lifetime_days = kLifetimeDays;
    opts.checkpoint_every_events = 0;  // the driver checkpoints explicitly
    opts.snapshot_path = seed_csv;
    opts.metrics_every_ticks = 0;
    daemon_ = std::make_unique<adr::serve::Daemon>(
        adr::trace::UserRegistry::with_synthetic_users(kUsers), opts);
  }

  adr::serve::Daemon& daemon() { return *daemon_; }

  /// Tick until `expected` events have been applied since this daemon
  /// started. Throws if a tick makes no progress short of that.
  void drain(std::uint64_t expected) {
    while (daemon_->events_applied() < expected) {
      const std::uint64_t before = daemon_->events_applied();
      daemon_->tick();
      if (daemon_->events_applied() == before) {
        throw std::runtime_error(
            "daemon stalled at " + std::to_string(before) + " of " +
            std::to_string(expected) + " WAL events");
      }
    }
  }

  /// Drop a ctl command file and tick once; returns the parsed reply.
  adr::util::Config command(const std::string& name, const std::string& body) {
    const std::string ctl = daemon_->ctl_dir();
    const std::string tmp = ctl + "/" + name + ".tmp";
    {
      std::ofstream out(tmp);
      out << body;
      if (!out) throw std::runtime_error("cannot write " + tmp);
    }
    fsys::rename(tmp, ctl + "/" + name + ".cmd");
    daemon_->tick();
    return reply(name);
  }

  adr::util::Config reply(const std::string& name) {
    const std::string out = daemon_->ctl_dir() + "/" + name + ".out";
    if (!fsys::exists(out)) {
      throw std::runtime_error("no reply to ctl command " + name);
    }
    adr::util::Config config = adr::util::Config::from_file(out);
    fsys::remove(out);
    return config;
  }

 private:
  std::unique_ptr<adr::serve::Daemon> daemon_;
};

/// The trigger command for instant `at`. The daemon purges
/// total × (1 − retain); retain is chosen so that equals the bytes created
/// since the previous trigger (at least 4 KiB, never the "no target" 0).
std::string trigger_body(adr::util::TimePoint at, std::uint64_t created_bytes,
                         std::uint64_t total_bytes,
                         const std::string& victims_out) {
  const double bytes = static_cast<double>(std::max<std::uint64_t>(created_bytes, 4096));
  const double retain =
      total_bytes > 0 ? std::max(1e-9, 1.0 - bytes / static_cast<double>(total_bytes))
                      : 1.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", retain);
  return "cmd = trigger\nnow = " + std::to_string(at) + "\nretain = " + buf +
         "\nvictims_out = " + victims_out + "\n";
}

}  // namespace

PassResult run_wal_serve(const Options& options, int setups, Tracer& tracer) {
  const std::size_t triggers = trigger_count(options);
  adr::synth::StreamSynthConfig synth;
  synth.users = kUsers;
  synth.seed = options.seed;
  synth.initial_files_per_user = kFilesPerUser;
  synth.backfill_days = kBackfillDays;
  synth.events_per_user_day = kEventsPerUserDay;
  // One extra interval beyond the last trigger feeds the gate's WAL tail.
  synth.sim_span_days =
      kHistoryDays +
      static_cast<int>(std::ceil(
          static_cast<double>((triggers + 1) *
                              static_cast<std::size_t>(kTriggerEvery)) /
          static_cast<double>(adr::util::kSecondsPerDay))) +
      1;
  const adr::util::TimePoint run_begin =
      synth.sim_begin + adr::util::days(kHistoryDays);

  const std::string pass_dir =
      options.work_dir + "/pass-" + std::to_string(options.pass);
  fsys::remove_all(pass_dir);
  fsys::create_directories(pass_dir);
  const std::string wal_dir = pass_dir + "/wal";
  const std::string seed_csv = pass_dir + "/seed.csv";
  const std::string victims_path = pass_dir + "/victims.txt";

  PassResult result;
  Feed feed(synth);
  Batch batch;
  std::vector<adr::trace::Event> events;
  const auto synthesize = [&](adr::util::TimePoint until, std::size_t max) {
    const std::int64_t t0 = now_ns();
    bool more = false;
    {
      Scope s(tracer, "bench.synth", Layer::kBench);
      more = feed.fill(batch, until, max);
      events.clear();
      for (std::size_t i = 0; i < batch.events.size(); ++i) {
        events.push_back(to_event(batch.events[i], batch.paths[i]));
      }
    }
    result.synth_s += seconds_between(t0, now_ns());
    return more;
  };
  const auto created_in_batch = [&] {
    std::uint64_t bytes = 0;
    for (const auto& e : batch.events) {
      if (e.kind == StreamEventKind::kFileCreate) bytes += e.size_bytes;
    }
    return bytes;
  };

  // -- inputs written before timing: the seed snapshot (the backfill files
  // replayed into a Vfs and exported) and the WAL history.
  {
    Scope prep(tracer, "bench.prepare", Layer::kBench);
    adr::fs::Vfs vfs;
    std::vector<BatchTimer> timers = {BatchTimer(tracer, "fs.create", Layer::kFs)};
    while (synthesize(synth.sim_begin, kSynthBatch)) {
      apply_batch(
          tracer, batch.events.size(), timers,
          [](std::size_t) { return std::size_t{0}; },
          [&](std::size_t i) {
            vfs.create(batch.paths[i], create_meta(batch.events[i]));
          });
    }
    vfs.export_snapshot().save_csv(seed_csv);
  }
  adr::trace::EventLogWriter writer(wal_dir);
  std::vector<BatchTimer> append_timer = {
      BatchTimer(tracer, "trace.append", Layer::kTrace)};
  const auto append_all = [&] {
    const std::int64_t t0 = now_ns();
    for (auto& event : events) writer.append(std::move(event));
    const std::int64_t t1 = now_ns();
    append_timer[0].add(t1 - t0);
    append_timer[0].flush(t0, t1);
    return seconds_between(t0, t1);
  };
  std::uint64_t history = 0;
  {
    Scope prep(tracer, "bench.prepare", Layer::kBench);
    while (synthesize(run_begin, kSynthBatch)) {
      history += events.size();
      append_all();
    }
    writer.flush();
  }

  // -- setups: cold starts over the same seed snapshot and WAL history,
  // each in a fresh state directory; the last daemon serves the run.
  std::vector<double> start_s;
  std::unique_ptr<Served> served;
  for (int rep = 0; rep < setups; ++rep) {
    served.reset();
    Scope setup_span(tracer, "bench.setup", Layer::kBench);
    const std::int64_t t0 = now_ns();
    {
      Scope s(tracer, "serve.start", Layer::kServe);
      served = std::make_unique<Served>(
          wal_dir, pass_dir + "/state-" + std::to_string(rep), seed_csv);
      served->daemon().start();
    }
    start_s.push_back(seconds_between(t0, now_ns()));
    {
      Scope s(tracer, "serve.tick", Layer::kServe);
      served->drain(history);
    }
    {
      Scope s(tracer, "activeness.evaluate", Layer::kActiveness);
      served->daemon().service().evaluate(run_begin);
    }
    result.setup_s.push_back(seconds_between(t0, now_ns()));
  }
  adr::serve::Daemon* daemon = &served->daemon();

  // -- run phase.
  std::vector<double> checkpoint_s;
  double tick_s = 0.0;
  double append_s = 0.0;
  std::uint64_t expected = history;
  const auto counters_before = read_counters();
  const int run_span = tracer.open("bench.run", Layer::kBench);
  const std::int64_t run_start = now_ns();
  adr::util::TimePoint at = run_begin;
  for (std::size_t k = 1; k <= triggers; ++k) {
    at = run_begin + static_cast<adr::util::Duration>(k) * kTriggerEvery;
    synthesize(at, static_cast<std::size_t>(-1));
    const std::uint64_t created = created_in_batch();
    const double appended = append_all();
    append_s += appended;
    result.run_wall_s += appended;
    expected += events.size();
    result.run_events += events.size();
    result.attempted += events.size();
    std::int64_t t0 = now_ns();
    {
      Scope s(tracer, "serve.tick", Layer::kServe);
      try {
        served->drain(expected);
      } catch (const std::exception& e) {
        result.fail(e.what());
        break;
      }
    }
    const double ticked = seconds_between(t0, now_ns());
    tick_s += ticked;
    result.run_wall_s += ticked;

    const std::string body = trigger_body(
        at, created, daemon->service().vfs().total_bytes(), victims_path);
    const auto before = tracer.enabled() ? read_counters()
                                         : std::map<std::string, double>();
    adr::util::Config reply;
    const std::int64_t a = now_ns();
    std::int64_t b = a;
    {
      Scope trigger(tracer, "trigger", Layer::kBench);
      if (tracer.enabled()) {
        // Traced runs evaluate first so evaluate and purge get separate
        // spans; the ctl trigger then answers from cached ranks.
        Scope s(tracer, "activeness.evaluate", Layer::kActiveness);
        daemon->service().evaluate(at);
        b = now_ns();
      }
      Scope s(tracer, "serve.ctl_trigger", Layer::kServe);
      reply = served->command("trigger-" + std::to_string(k), body);
    }
    const std::int64_t c = now_ns();
    result.run_wall_s += seconds_between(a, c);
    result.trigger_ms.push_back(seconds_between(a, c) * 1e3);
    if (tracer.enabled()) {
      result.evaluate_ms.push_back(seconds_between(a, b) * 1e3);
      result.purge_ms.push_back(seconds_between(b, c) * 1e3);
      result.trigger_counters.push_back(counter_delta(before, read_counters()));
    }
    ++result.attempted;
    if (reply.get_string("ok", "") != "true") {
      result.fail("trigger " + std::to_string(k) + " failed: " +
                  reply.get_string("error", "?"));
      continue;
    }
    const auto victims = split_lines(read_file(victims_path));
    result.note_trigger(victims.size(), reply.get_string("target_reached", "") == "true");
    digest_victims(result.digest, k, victims);

    if (k % (triggers / (kCheckpointsPerRun + 1)) == 0 &&
        k / (triggers / (kCheckpointsPerRun + 1)) <= kCheckpointsPerRun) {
      t0 = now_ns();
      {
        Scope s(tracer, "serve.checkpoint", Layer::kServe);
        daemon->save_checkpoint_now();
      }
      checkpoint_s.push_back(seconds_between(t0, now_ns()));
      result.run_wall_s += checkpoint_s.back();
    }
  }
  result.run_span_s = seconds_between(run_start, now_ns());
  tracer.close(run_span);
  result.counters = counter_delta(counters_before, read_counters());
  const double bytes_per_event =
      static_cast<double>(dir_bytes(wal_dir)) /
      static_cast<double>(std::max<std::uint64_t>(1, writer.next_seq() - 1));
  const double files_end =
      static_cast<double>(daemon->service().vfs().file_count());
  const double index_entries = static_cast<double>(
      daemon->service().vfs().purge_index().entry_count());
  const double activities_end =
      static_cast<double>(daemon->service().store().total_activities());

  // -- correctness gate: final checkpoint, a WAL tail with no trigger in
  // it, one trigger on the live daemon, then a kill -9 (drop the daemon
  // without shutdown()) and a cold restart from the same state directory,
  // whose answer to the same trigger must have byte-identical victims.
  if (result.errors.empty()) {
    std::int64_t t0 = now_ns();
    daemon->save_checkpoint_now();
    checkpoint_s.push_back(seconds_between(t0, now_ns()));
    const adr::util::TimePoint gate_at = at + kTriggerEvery;
    synthesize(gate_at, static_cast<std::size_t>(-1));
    const std::uint64_t created = created_in_batch();
    const std::uint64_t tail = events.size();
    append_all();
    writer.flush();
    served->drain(expected + tail);
    const std::string body = trigger_body(
        gate_at, created, daemon->service().vfs().total_bytes(), victims_path);
    ++result.attempted;
    const adr::util::Config live = served->command("gate-live", body);
    const std::string live_victims =
        live.get_string("ok", "") == "true" ? read_file(victims_path) : "";
    Digest live_ranks;
    digest_ranks(live_ranks, daemon->service().pipeline().users());
    fsys::remove(victims_path);
    const std::string state_dir = daemon->options().state_dir;
    served.reset();  // kill -9: no shutdown(), no final checkpoint

    t0 = now_ns();
    {
      Scope s(tracer, "serve.restart", Layer::kServe);
      served = std::make_unique<Served>(wal_dir, state_dir, seed_csv);
      served->daemon().start();
      served->drain(tail);
    }
    result.layer["serve.restart_s"] = seconds_between(t0, now_ns());
    const adr::util::Config restarted = served->command("gate-restart", body);
    const std::string restart_victims =
        restarted.get_string("ok", "") == "true" ? read_file(victims_path) : "";
    Digest restart_ranks;
    digest_ranks(restart_ranks, served->daemon().service().pipeline().users());
    if (live.get_string("ok", "") != "true" || live_victims.empty()) {
      result.fail("live gate trigger failed: " + live.get_string("error", "no victims"));
    } else if (restart_victims != live_victims) {
      result.fail("victims after restart differ from the live daemon's");
    } else if (restart_ranks.value() != live_ranks.value()) {
      result.fail("ranks after restart differ from the live daemon's");
    }
    digest_victims(result.digest, triggers + 1, split_lines(live_victims));
    result.digest.add_u64(live_ranks.value());
  }

  result.layer["fs.files_end"] = files_end;
  result.layer["fs.purge_index_entries"] = index_entries;
  result.layer["activeness.activities_end"] = activities_end;
  result.layer["trace.bytes_per_event"] = bytes_per_event;
  result.layer["trace.append_us"] =
      append_s * 1e6 / static_cast<double>(std::max<std::uint64_t>(1, result.run_events));
  result.layer["serve.ingest_us"] =
      tick_s * 1e6 / static_cast<double>(std::max<std::uint64_t>(1, result.run_events));
  result.layer["serve.start_s"] = adr::util::quantile(start_s, 0.5);
  if (!checkpoint_s.empty()) {
    result.layer["serve.checkpoint_s"] = adr::util::quantile(checkpoint_s, 0.5);
  }
  served.reset();
  fsys::remove_all(pass_dir);
  return result;
}

}  // namespace perfbench
