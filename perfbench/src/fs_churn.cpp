// fs_churn: file churn under a large /scratch.
//
// 30k users with 10 backfill files each (created in time order during
// setup), then a multi-day StreamSynth run in which half of all events are
// file creates or accesses. Events go straight into Vfs::create /
// Vfs::access and the store's queued ingest path (ActivityStore::enqueue);
// an ActiveDR trigger fires every 48 simulated minutes with a byte target
// equal to the bytes created since the previous trigger, which keeps the
// file population roughly steady. Most setup and trigger time goes to fs:
// PathTrie inserts under a /scratch with 30k entries, PurgeIndex upkeep
// and victim removes.

#include <cmath>
#include <memory>

#include "driver.hpp"
#include "trace/user_registry.hpp"

namespace perfbench {

namespace {

using adr::synth::StreamEventKind;

constexpr std::size_t kUsers = 30'000;
constexpr std::size_t kFilesPerUser = 10;
constexpr int kBackfillDays = 90;
constexpr int kLifetimeDays = 30;
constexpr double kEventsPerUserDay = 8.0;
constexpr adr::util::Duration kTriggerEvery = 48 * 60;

enum Kind : std::size_t { kCreate, kAccess, kActivity };

}  // namespace

PassResult run_fs_churn(const Options& options, int setups, Tracer& tracer) {
  const std::size_t triggers = trigger_count(options);
  adr::synth::StreamSynthConfig synth;
  synth.users = kUsers;
  synth.seed = options.seed;
  synth.initial_files_per_user = kFilesPerUser;
  synth.backfill_days = kBackfillDays;
  synth.events_per_user_day = kEventsPerUserDay;
  synth.sim_span_days = static_cast<int>(std::ceil(
      static_cast<double>(triggers * static_cast<std::size_t>(kTriggerEvery)) /
      static_cast<double>(adr::util::kSecondsPerDay))) + 1;

  adr::core::ServiceConfig config;
  config.lifetime_days = kLifetimeDays;
  config.record_victims = true;

  PassResult result;
  std::vector<BatchTimer> timers = {
      BatchTimer(tracer, "fs.create", Layer::kFs),
      BatchTimer(tracer, "fs.access", Layer::kFs),
      BatchTimer(tracer, "activeness.enqueue", Layer::kActiveness)};
  std::unique_ptr<adr::core::Service> service;
  std::optional<Feed> feed;
  Batch batch;
  std::uint64_t created_bytes = 0;

  const auto kind_of = [&](std::size_t i) -> std::size_t {
    switch (batch.events[i].kind) {
      case StreamEventKind::kFileCreate: return kCreate;
      case StreamEventKind::kFileAccess: return kAccess;
      default: return kActivity;
    }
  };
  const auto apply = [&](std::size_t i) {
    const auto& e = batch.events[i];
    switch (e.kind) {
      case StreamEventKind::kFileCreate:
        service->vfs().create(batch.paths[i], create_meta(e));
        created_bytes += e.size_bytes;
        break;
      case StreamEventKind::kFileAccess:
        // A miss is expected when a purge already removed the ordinal.
        service->vfs().access(batch.paths[i], e.timestamp, e.user);
        break;
      case StreamEventKind::kJobSubmit:
        service->store().enqueue(e.user, adr::core::kJobActivityType,
                                 {e.timestamp, e.impact});
        break;
      case StreamEventKind::kPublication:
        service->store().enqueue(e.user, adr::core::kPublicationActivityType,
                                 {e.timestamp, e.impact});
        break;
    }
  };

  for (int rep = 0; rep < setups; ++rep) {
    service.reset();  // free the previous setup before building the next
    feed.emplace(synth);
    Scope setup_span(tracer, "bench.setup", Layer::kBench);
    std::int64_t t0 = now_ns();
    service = std::make_unique<adr::core::Service>(
        adr::trace::UserRegistry::with_synthetic_users(kUsers), config);
    service->register_paper_types();
    service->prepare_ingest();
    double timed = seconds_between(t0, now_ns());
    while (synthesize(*feed, batch, synth.sim_begin, kSynthBatch, tracer,
                      result)) {
      timed += apply_batch(tracer, batch.events.size(), timers, kind_of, apply);
    }
    t0 = now_ns();
    {
      Scope s(tracer, "activeness.evaluate", Layer::kActiveness);
      service->evaluate(synth.sim_begin);
    }
    result.setup_s.push_back(timed + seconds_between(t0, now_ns()));
  }

  const auto counters_before = read_counters();
  const int run_span = tracer.open("bench.run", Layer::kBench);
  const std::int64_t run_start = now_ns();
  adr::util::TimePoint at = synth.sim_begin;
  for (std::size_t k = 1; k <= triggers; ++k) {
    at = synth.sim_begin + static_cast<adr::util::Duration>(k) * kTriggerEvery;
    synthesize(*feed, batch, at, static_cast<std::size_t>(-1), tracer, result);
    created_bytes = 0;
    result.run_wall_s +=
        apply_batch(tracer, batch.events.size(), timers, kind_of, apply);
    result.run_events += batch.events.size();
    result.attempted += batch.events.size();

    trigger_service(*service, at, std::max<std::uint64_t>(1, created_bytes), k,
                    tracer, result);
  }
  result.run_span_s = seconds_between(run_start, now_ns());
  tracer.close(run_span);
  result.counters = counter_delta(counters_before, read_counters());

  gate_service(*service, at, result);
  return result;
}

}  // namespace perfbench
