#pragma once
// Shared pieces of the benchmark driver: options, the per-pass result every
// workload fills in, the victim/rank digest, batch synthesis over
// synth::StreamSynth, registry counter deltas, and the full-evaluation
// oracle of the correctness gate.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/service.hpp"
#include "synth/stream_synth.hpp"
#include "tracer.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Scratch directory for this run's state (WAL, checkpoints).
  std::string work_dir;
  /// Index of the pass within this run (names its state directory).
  int pass = 0;
};

/// Purge triggers per pass: ten per second of --seconds, and at least 100
/// so p90 has ten samples beyond it. The count, like every input, depends
/// only on the options — never on how fast the host is — so a seed always
/// yields the same events, triggers and victims.
std::size_t trigger_count(const Options& options);

/// Cold setups per untraced run; setup_s is their median. The run phase
/// and the gate continue from the last one. On a shared host the slowest
/// setup of one run can take 1.5x the fastest, so the median takes five.
inline constexpr int kSetups = 5;

/// FNV-1a over every trigger's victim list and the final rank keys.
class Digest {
 public:
  void add(std::string_view bytes);
  void add_u64(std::uint64_t v);
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// Hash one trigger's victims (in selection order).
void digest_victims(Digest& digest, std::size_t trigger,
                    const std::vector<std::string>& victims);
/// Hash the exact rank keys of every user.
void digest_ranks(Digest& digest,
                  const std::vector<adr::activeness::UserActiveness>& users);

/// What one pass (setups, run phase, correctness gate) measured.
struct PassResult {
  std::vector<double> setup_s;  // cold start until the first trigger, per setup
  double run_wall_s = 0.0;      // ingest + triggers; synthesis excluded
  double run_span_s = 0.0;      // the whole run phase, synthesis included
  double synth_s = 0.0;         // synthesis in setups and run phase
  std::uint64_t run_events = 0;
  std::vector<double> trigger_ms;
  std::vector<double> evaluate_ms;  // Service::evaluate, per trigger
  std::vector<double> purge_ms;     // purge with ranks cached, per trigger
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t victims = 0;        // files purged by run-phase triggers
  std::size_t short_triggers = 0;   // triggers that missed their byte target
  Digest digest;
  std::vector<std::string> errors;  // failed operations and gate checks
  /// Per-layer metrics only the workload itself can measure.
  std::map<std::string, double> layer;
  /// Registry counter deltas over the run phase.
  std::map<std::string, double> counters;
  /// Per-trigger registry counter deltas (traced pass only).
  std::vector<std::map<std::string, double>> trigger_counters;

  void note_trigger(std::size_t victim_count, bool target_reached) {
    victims += victim_count;
    if (!target_reached) ++short_triggers;
  }
  void fail(const std::string& what) {
    errors.push_back(what);
    ++failed;
  }
};

/// Registry counters the traced pass reports as deltas.
const std::vector<std::string>& tracked_counters();
std::map<std::string, double> read_counters();
std::map<std::string, double> counter_delta(
    const std::map<std::string, double>& before,
    const std::map<std::string, double>& after);

/// A batch of synthesized events with their file paths formatted ("" for
/// activity events) — all synthesis happens before a batch is applied.
struct Batch {
  std::vector<adr::synth::StreamEvent> events;
  std::vector<std::string> paths;
  void clear() {
    events.clear();
    paths.clear();
  }
};

/// Pull-based cursor over a StreamSynth stream with one event of lookahead.
class Feed {
 public:
  explicit Feed(const adr::synth::StreamSynthConfig& config);
  /// Refill `batch` with the next events strictly before `until`, at most
  /// `max_events` of them. Returns false when none were left.
  bool fill(Batch& batch, adr::util::TimePoint until, std::size_t max_events);

 private:
  adr::synth::StreamSynth synth_;
  adr::synth::StreamEvent pending_;
  bool has_pending_ = false;
};

/// Synthesis batch size for backfill and history replay.
inline constexpr std::size_t kSynthBatch = 16384;

/// Evaluation parameters a Service derives from its config.
adr::activeness::EvaluationParams service_params(
    const adr::core::ServiceConfig& config);

/// Correctness oracle: a fresh EvalMode::kFull evaluation of `service`'s
/// store at `now` must reproduce the service's cached ranks exactly.
/// Returns "" on a match, else a description of the first mismatch.
std::string check_full_eval(adr::core::Service& service,
                            adr::util::TimePoint now);

/// File metadata of a synthesized create event.
adr::fs::FileMeta create_meta(const adr::synth::StreamEvent& event);

double seconds_between(std::int64_t start_ns, std::int64_t end_ns);

/// Apply one batch: apply(i) for every event i. When tracing, each call's
/// time is charged to timers[kind_of(i)] (one clock read per call) and one
/// aggregate span per kind is recorded for the batch; untraced, the loop
/// reads no clock. Returns the batch's wall time in seconds.
template <typename KindFn, typename ApplyFn>
double apply_batch(Tracer& tracer, std::size_t n, std::vector<BatchTimer>& timers,
                   KindFn&& kind_of, ApplyFn&& apply) {
  const std::int64_t start = now_ns();
  if (!tracer.enabled()) {
    for (std::size_t i = 0; i < n; ++i) apply(i);
    return seconds_between(start, now_ns());
  }
  std::int64_t t = start;
  for (std::size_t i = 0; i < n; ++i) {
    apply(i);
    const std::int64_t t2 = now_ns();
    timers[kind_of(i)].add(t2 - t);
    t = t2;
  }
  for (auto& timer : timers) timer.flush(start, t);
  return seconds_between(start, t);
}

/// Synthesize the next batch of `feed` before `until` (at most `max`
/// events), charging the time to result.synth_s and a bench.synth span.
/// Returns false when the stream has nothing left before `until`.
bool synthesize(Feed& feed, Batch& batch, adr::util::TimePoint until,
                std::size_t max, Tracer& tracer, PassResult& result);

/// One purge trigger on a service: Service::evaluate, then Service::purge
/// with ranks cached, timed as one trigger with a child span each. Records
/// the timings, the victims (into the digest) and, when tracing, the
/// trigger's counter deltas.
void trigger_service(adr::core::Service& service, adr::util::TimePoint at,
                     std::uint64_t target_bytes, std::size_t trigger,
                     Tracer& tracer, PassResult& result);

/// The correctness gate of the Service-driven workloads, after the last
/// trigger at `at`: hash the final ranks, verify the purge index, compare
/// the ranks with a full evaluation; then record the end-state sizes.
void gate_service(adr::core::Service& service, adr::util::TimePoint at,
                  PassResult& result);

/// Workload entry points: run one pass — `setups` cold setups (each
/// replacing the previous one), then the run phase and the gate.
PassResult run_fs_churn(const Options& options, int setups, Tracer& tracer);
PassResult run_eval_dense(const Options& options, int setups, Tracer& tracer);
PassResult run_wal_serve(const Options& options, int setups, Tracer& tracer);

}  // namespace perfbench
