// eval_dense: the evaluator under a dense job and publication feed.
//
// 30k users with 2 backfill files each; setup ingests two weeks of job and
// publication history. The run phase feeds jobs and publications only,
// through Service::record (the store's synchronous ActivityStore::append
// path), and fires an ActiveDR trigger every 2 simulated hours with a
// one-byte target: one victim per trigger, so the file population stays
// steady and trigger time goes to the evaluator and the policy's per-user
// scan. With 7-day periods every trigger moves every user's period window,
// so nearly every user is re-evaluated on every trigger. Almost no Vfs work
// happens here: this is the no-change control for fs optimisations.

#include <cmath>
#include <memory>

#include "driver.hpp"
#include "trace/user_registry.hpp"

namespace perfbench {

namespace {

using adr::synth::StreamEventKind;

constexpr std::size_t kUsers = 30'000;
constexpr std::size_t kFilesPerUser = 2;
constexpr int kBackfillDays = 60;
constexpr int kLifetimeDays = 7;
constexpr int kHistoryDays = 14;
constexpr double kEventsPerUserDay = 4.0;
constexpr adr::util::Duration kTriggerEvery = 2 * 3600;
constexpr std::uint64_t kTargetBytes = 1;

enum Kind : std::size_t { kCreate, kActivity };

bool is_activity(const adr::synth::StreamEvent& e) {
  return e.kind == StreamEventKind::kJobSubmit ||
         e.kind == StreamEventKind::kPublication;
}

/// Keep only job and publication events (file events are synthesized by
/// the stream but are not part of this workload's feed).
void keep_activities(Batch& batch) {
  std::size_t out = 0;
  for (std::size_t i = 0; i < batch.events.size(); ++i) {
    if (is_activity(batch.events[i])) batch.events[out++] = batch.events[i];
  }
  batch.events.resize(out);
  batch.paths.assign(out, std::string());
}

}  // namespace

PassResult run_eval_dense(const Options& options, int setups, Tracer& tracer) {
  const std::size_t triggers = trigger_count(options);
  adr::synth::StreamSynthConfig synth;
  synth.users = kUsers;
  synth.seed = options.seed;
  synth.initial_files_per_user = kFilesPerUser;
  synth.backfill_days = kBackfillDays;
  synth.events_per_user_day = kEventsPerUserDay;
  synth.sim_span_days =
      kHistoryDays +
      static_cast<int>(std::ceil(
          static_cast<double>(triggers *
                              static_cast<std::size_t>(kTriggerEvery)) /
          static_cast<double>(adr::util::kSecondsPerDay))) +
      1;
  const adr::util::TimePoint run_begin =
      synth.sim_begin + adr::util::days(kHistoryDays);

  adr::core::ServiceConfig config;
  config.lifetime_days = kLifetimeDays;
  config.record_victims = true;

  PassResult result;
  std::vector<BatchTimer> timers = {
      BatchTimer(tracer, "fs.create", Layer::kFs),
      BatchTimer(tracer, "activeness.record", Layer::kActiveness)};
  std::unique_ptr<adr::core::Service> service;
  std::optional<Feed> feed;
  Batch batch;

  const auto kind_of = [&](std::size_t i) -> std::size_t {
    return batch.events[i].kind == StreamEventKind::kFileCreate ? kCreate
                                                                : kActivity;
  };
  const auto apply = [&](std::size_t i) {
    const auto& e = batch.events[i];
    switch (e.kind) {
      case StreamEventKind::kFileCreate:
        service->vfs().create(batch.paths[i], create_meta(e));
        break;
      case StreamEventKind::kJobSubmit:
        service->record(e.user, adr::core::kJobActivityType, e.timestamp,
                        e.impact);
        break;
      case StreamEventKind::kPublication:
        service->record(e.user, adr::core::kPublicationActivityType,
                        e.timestamp, e.impact);
        break;
      case StreamEventKind::kFileAccess:
        break;  // filtered out by keep_activities
    }
  };
  // Synthesize the next batch; the run feed keeps jobs and publications.
  const auto next_batch = [&](adr::util::TimePoint until, std::size_t max,
                              bool backfill) {
    const bool more = synthesize(*feed, batch, until, max, tracer, result);
    if (!backfill) keep_activities(batch);
    return more;
  };

  for (int rep = 0; rep < setups; ++rep) {
    service.reset();  // free the previous setup before building the next
    feed.emplace(synth);
    Scope setup_span(tracer, "bench.setup", Layer::kBench);
    std::int64_t t0 = now_ns();
    service = std::make_unique<adr::core::Service>(
        adr::trace::UserRegistry::with_synthetic_users(kUsers), config);
    service->register_paper_types();
    double timed = seconds_between(t0, now_ns());
    while (next_batch(synth.sim_begin, kSynthBatch, true)) {
      timed += apply_batch(tracer, batch.events.size(), timers, kind_of, apply);
    }
    while (next_batch(run_begin, kSynthBatch, false)) {
      timed += apply_batch(tracer, batch.events.size(), timers, kind_of, apply);
    }
    t0 = now_ns();
    {
      Scope s(tracer, "activeness.evaluate", Layer::kActiveness);
      service->evaluate(run_begin);
    }
    result.setup_s.push_back(timed + seconds_between(t0, now_ns()));
  }

  const auto counters_before = read_counters();
  const int run_span = tracer.open("bench.run", Layer::kBench);
  const std::int64_t run_start = now_ns();
  adr::util::TimePoint at = run_begin;
  for (std::size_t k = 1; k <= triggers; ++k) {
    at = run_begin + static_cast<adr::util::Duration>(k) * kTriggerEvery;
    next_batch(at, static_cast<std::size_t>(-1), false);
    result.run_wall_s +=
        apply_batch(tracer, batch.events.size(), timers, kind_of, apply);
    result.run_events += batch.events.size();
    result.attempted += batch.events.size();

    trigger_service(*service, at, kTargetBytes, k, tracer, result);
  }
  result.run_span_s = seconds_between(run_start, now_ns());
  tracer.close(run_span);
  result.counters = counter_delta(counters_before, read_counters());

  gate_service(*service, at, result);
  return result;
}

}  // namespace perfbench
