#include "driver.hpp"

#include <algorithm>
#include <cstdio>

#include "activeness/sharded.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

std::size_t trigger_count(const Options& options) {
  return std::max<std::size_t>(100, 10 * static_cast<std::size_t>(options.seconds));
}

void Digest::add(std::string_view bytes) {
  for (const char c : bytes) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 1099511628211ULL;
  }
  h_ ^= 0xff;  // field separator
  h_ *= 1099511628211ULL;
}

void Digest::add_u64(std::uint64_t v) {
  char buf[24];
  const int n = std::snprintf(buf, sizeof(buf), "%llu",
                              static_cast<unsigned long long>(v));
  add(std::string_view(buf, static_cast<std::size_t>(n)));
}

std::string Digest::hex() const {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

void digest_victims(Digest& digest, std::size_t trigger,
                    const std::vector<std::string>& victims) {
  digest.add_u64(trigger);
  digest.add_u64(victims.size());
  for (const auto& path : victims) digest.add(path);
}

void digest_ranks(Digest& digest,
                  const std::vector<adr::activeness::UserActiveness>& users) {
  digest.add_u64(users.size());
  for (const auto& ua : users) {
    char buf[128];
    const int n = std::snprintf(buf, sizeof(buf), "%u:%.21Lg:%.21Lg:%lld",
                                ua.user, ua.op.sort_key(), ua.oc.sort_key(),
                                static_cast<long long>(ua.last_activity));
    digest.add(std::string_view(buf, static_cast<std::size_t>(n)));
  }
}

const std::vector<std::string>& tracked_counters() {
  static const std::vector<std::string> names = {
      "vfs.creates",
      "vfs.accesses",
      "vfs.misses",
      "vfs.removes",
      "activity_store.appends",
      "activity_store.ingest_enqueued",
      "incremental.advances",
      "incremental.full_rebuilds",
      "incremental.users_reevaluated",
      "incremental.users_skipped",
      "policy.index_candidates",
      "policy.victims_purged",
      "policy.retrospective_passes",
      "purge_index.compactions",
      "threadpool.parallel_for.calls",
      "threadpool.parallel_for.items",
      "wal.events_appended",
      "service.events_applied",
  };
  return names;
}

std::map<std::string, double> read_counters() {
  auto& registry = adr::obs::MetricsRegistry::global();
  std::map<std::string, double> values;
  for (const auto& name : tracked_counters()) {
    values[name] = static_cast<double>(registry.counter(name).value());
  }
  // Library spans: only their exact sums are used, never bucket quantiles.
  values["policy.scan_s"] = registry.span_histogram("policy.scan").sum_seconds();
  values["policy.apply_s"] =
      registry.span_histogram("policy.apply").sum_seconds();
  return values;
}

std::map<std::string, double> counter_delta(
    const std::map<std::string, double>& before,
    const std::map<std::string, double>& after) {
  std::map<std::string, double> delta;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    delta[name] = value - (it == before.end() ? 0.0 : it->second);
  }
  return delta;
}

Feed::Feed(const adr::synth::StreamSynthConfig& config) : synth_(config) {}

bool Feed::fill(Batch& batch, adr::util::TimePoint until,
                std::size_t max_events) {
  batch.clear();
  while (batch.events.size() < max_events) {
    if (!has_pending_) {
      if (!synth_.next(pending_)) break;
      has_pending_ = true;
    }
    if (pending_.timestamp >= until) break;
    const auto& e = pending_;
    batch.events.push_back(e);
    batch.paths.push_back(
        e.kind == adr::synth::StreamEventKind::kFileCreate ||
                e.kind == adr::synth::StreamEventKind::kFileAccess
            ? adr::synth::StreamSynth::path_of(e.user, e.ordinal)
            : std::string());
    has_pending_ = false;
  }
  return !batch.events.empty();
}

adr::activeness::EvaluationParams service_params(
    const adr::core::ServiceConfig& config) {
  adr::activeness::EvaluationParams params;
  params.period_length_days = config.lifetime_days;
  params.scheme = config.scheme;
  params.max_periods = config.max_periods;
  return params;
}

std::string check_full_eval(adr::core::Service& service,
                            adr::util::TimePoint now) {
  adr::activeness::ShardedEvaluator oracle(
      service.catalog(), service_params(service.config()),
      adr::activeness::EvalMode::kFull, 1);
  oracle.advance(service.store(), now);
  const auto& want = oracle.users();
  const auto& got = service.pipeline().users();
  if (want.size() != got.size()) {
    return "full evaluation has " + std::to_string(want.size()) +
           " users, the service " + std::to_string(got.size());
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    const auto& a = want[i];
    const auto& b = got[i];
    if (a.user != b.user || a.op.sort_key() != b.op.sort_key() ||
        a.oc.sort_key() != b.oc.sort_key() ||
        a.last_activity != b.last_activity) {
      return "rank of user " + std::to_string(a.user) +
             " differs from a full evaluation";
    }
  }
  return "";
}

adr::fs::FileMeta create_meta(const adr::synth::StreamEvent& event) {
  adr::fs::FileMeta meta;
  meta.owner = event.user;
  meta.size_bytes = event.size_bytes;
  meta.atime = event.timestamp;
  meta.ctime = event.timestamp;
  meta.stripe_count = 1;
  return meta;
}

double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

bool synthesize(Feed& feed, Batch& batch, adr::util::TimePoint until,
                std::size_t max, Tracer& tracer, PassResult& result) {
  const std::int64_t t0 = now_ns();
  bool more = false;
  {
    Scope s(tracer, "bench.synth", Layer::kBench);
    more = feed.fill(batch, until, max);
  }
  result.synth_s += seconds_between(t0, now_ns());
  return more;
}

void trigger_service(adr::core::Service& service, adr::util::TimePoint at,
                     std::uint64_t target_bytes, std::size_t trigger,
                     Tracer& tracer, PassResult& result) {
  const auto before =
      tracer.enabled() ? read_counters() : std::map<std::string, double>();
  adr::retention::PurgeReport report;
  const std::int64_t a = now_ns();
  std::int64_t b = 0;
  {
    Scope span(tracer, "trigger", Layer::kBench);
    {
      Scope s(tracer, "activeness.evaluate", Layer::kActiveness);
      service.evaluate(at);
    }
    b = now_ns();
    Scope s(tracer, "retention.purge", Layer::kRetention);
    report = service.purge(at, target_bytes);
  }
  const std::int64_t c = now_ns();
  result.run_wall_s += seconds_between(a, c);
  result.trigger_ms.push_back(seconds_between(a, c) * 1e3);
  result.evaluate_ms.push_back(seconds_between(a, b) * 1e3);
  result.purge_ms.push_back(seconds_between(b, c) * 1e3);
  ++result.attempted;
  if (tracer.enabled()) {
    result.trigger_counters.push_back(counter_delta(before, read_counters()));
  }
  result.note_trigger(report.victim_paths.size(), report.target_reached);
  digest_victims(result.digest, trigger, report.victim_paths);
}

void gate_service(adr::core::Service& service, adr::util::TimePoint at,
                  PassResult& result) {
  digest_ranks(result.digest, service.pipeline().users());
  std::string error;
  ++result.attempted;
  if (!service.vfs().verify_purge_index(&error)) {
    result.fail("purge index inconsistent: " + error);
  }
  ++result.attempted;
  const std::string mismatch = check_full_eval(service, at);
  if (!mismatch.empty()) result.fail(mismatch);

  result.layer["fs.files_end"] = static_cast<double>(service.vfs().file_count());
  result.layer["fs.purge_index_entries"] =
      static_cast<double>(service.vfs().purge_index().entry_count());
  result.layer["activeness.activities_end"] =
      static_cast<double>(service.store().total_activities());
}

}  // namespace perfbench
