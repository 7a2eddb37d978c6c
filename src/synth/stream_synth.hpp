#pragma once
// Streaming workload synthesis for the million-user scale tier (DESIGN.md
// §15).
//
// The titan-model pipeline materializes every user's whole trace before
// replay — fine at 600 users, fatal at 10⁶ (the vectors alone would dwarf
// the structures being measured). StreamSynth instead emits one merged,
// time-ordered event stream from per-user forward-only cursors:
//
//   * each user's event sequence is a pure function of (seed, user_id) —
//     any user's history can be re-derived from 8 bytes;
//   * a binary min-heap over (next_event_time, user) yields the global
//     stream in nondecreasing (time, user) order with O(log U) per event
//     and O(U) resident state (one small cursor per user, no traces);
//   * file paths and sizes are pure functions of (user, ordinal) and
//     (seed, user, ordinal) — nothing about a file needs storing to be
//     recreated.
//
// Determinism anchor: materialize() produces the exact same events in the
// exact same order as draining next() — per-user times are strictly
// increasing and ties across users break by user id, so the global order
// (time, user) is total. bench_scale and the identity tests rely on this:
// streamed ingest and materialized replay must produce byte-identical ranks
// and purge victims.

#include <cstdint>
#include <string>
#include <vector>

#include "trace/types.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace adr::synth {

enum class StreamEventKind : std::uint8_t {
  kJobSubmit,     ///< operational activity (ActivityStore type 0)
  kPublication,   ///< occupational activity (ActivityStore type 1)
  kFileCreate,    ///< new file `ordinal` for `user`
  kFileAccess,    ///< atime bump on an existing ordinal
};

struct StreamEvent {
  util::TimePoint timestamp = 0;
  trace::UserId user = trace::kInvalidUser;
  StreamEventKind kind = StreamEventKind::kJobSubmit;
  std::uint32_t ordinal = 0;      ///< file ordinal (create/access)
  double impact = 0.0;            ///< activity weight (job/publication)
  std::uint64_t size_bytes = 0;   ///< file size (create)
};

struct StreamSynthConfig {
  std::size_t users = 600;
  std::uint64_t seed = 42;

  /// Simulated span: activity events land in [sim_begin, sim_begin + span].
  util::TimePoint sim_begin = 1'600'000'000;
  int sim_span_days = 30;

  /// Pre-existing files per user, created over the `backfill_days` before
  /// sim_begin (the purge population).
  std::size_t initial_files_per_user = 20;
  int backfill_days = 400;

  /// Mean activity events per user per simulated day; each user draws a
  /// personal rate around it (lognormal), so populations are heterogeneous.
  double events_per_user_day = 2.0;
};

class StreamSynth {
 public:
  explicit StreamSynth(const StreamSynthConfig& config);

  /// Produce the next event in global (time, user) order. Returns false
  /// when the stream is exhausted. O(log users); allocates nothing.
  bool next(StreamEvent& out);

  std::size_t emitted() const { return emitted_; }
  /// Total events this stream will yield (fixed at construction).
  std::size_t total_events() const { return total_events_; }

  /// Re-derive one user's entire sequence (in that user's time order) from
  /// (config.seed, user) alone — the regeneration contract: equals the
  /// `user`-owned subsequence of materialize(config).
  static std::vector<StreamEvent> user_sequence(const StreamSynthConfig& config,
                                                trace::UserId user);

  /// Materialized mode: the whole stream as one vector, in exactly the
  /// order next() yields. Small tiers only (the identity anchor).
  static std::vector<StreamEvent> materialize(const StreamSynthConfig& config);

  /// Canonical path of a user's ordinal-th file: under the synthetic
  /// registry's home dir ("/scratch/user_NNNNN/fK").
  static std::string path_of(trace::UserId user, std::uint32_t ordinal);

  /// File size as a pure function of (seed, user, ordinal): log-uniform in
  /// [4 KiB, 8 MiB].
  static std::uint64_t size_of(std::uint64_t seed, trace::UserId user,
                               std::uint32_t ordinal);

 private:
  /// Forward-only per-user generator; its whole life is a pure function of
  /// (seed, user). Holds the one pending (not yet emitted) event.
  struct Cursor {
    util::Rng rng{0};
    StreamEvent pending;
    std::uint32_t files = 0;          ///< ordinals created so far
    std::uint32_t backfill_left = 0;  ///< initial creates still to emit
    std::uint32_t activity_left = 0;  ///< in-span events still to emit
    double rate = 0.0;                ///< events per simulated second

    /// Generate the next pending event; false when the user is done.
    bool advance(const StreamSynthConfig& config, trace::UserId user);
  };

  static Cursor make_cursor(const StreamSynthConfig& config,
                            trace::UserId user);

  StreamSynthConfig config_;
  std::vector<Cursor> cursors_;  // dense by user id
  /// Min-heap of (pending timestamp, user), comparing (time, user).
  std::vector<std::pair<util::TimePoint, trace::UserId>> heap_;
  std::size_t emitted_ = 0;
  std::size_t total_events_ = 0;
};

}  // namespace adr::synth
