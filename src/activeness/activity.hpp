#pragma once
// The activity model of §3.1–3.2: every user activity reduces to a
// (timestamp, impact) pair; activity *types* are administrator-configured and
// belong to one of two categories — operations (things done on the system)
// or outcomes (things produced by using it). The catalog plus per-user,
// per-type activity streams are the only inputs the evaluator needs.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <tuple>
#include <utility>
#include <string>
#include <vector>

#include "trace/job_log.hpp"
#include "trace/publication_log.hpp"
#include "trace/types.hpp"
#include "util/parse.hpp"
#include "util/time.hpp"

namespace adr::activeness {

enum class ActivityCategory { kOperation, kOutcome };

/// One activity occurrence (Table 3: a_x with a timestamp and an impact D).
struct Activity {
  util::TimePoint timestamp = 0;
  double impact = 0.0;
};

using ActivityTypeId = std::size_t;

/// Administrator-declared activity type (Table 2 rows). `weight` scales each
/// occurrence's impact — the knob the paper describes as "configured ...
/// with weights to quantitatively measure the impact".
struct ActivityTypeSpec {
  std::string name;
  ActivityCategory category = ActivityCategory::kOperation;
  double weight = 1.0;
};

/// Registry of the activity types in play. A one-time setup object.
class ActivityCatalog {
 public:
  ActivityTypeId add(ActivityTypeSpec spec);

  const ActivityTypeSpec& spec(ActivityTypeId id) const;
  std::size_t size() const { return specs_.size(); }

  /// Ids of all types in a category, in registration order.
  std::vector<ActivityTypeId> types_in(ActivityCategory category) const;

  /// The paper's evaluation setup: "job_submission" (operation, impact =
  /// core-hours) and "publication" (outcome, impact = Eq. 8).
  static ActivityCatalog paper_default();

 private:
  std::vector<ActivityTypeSpec> specs_;
};

class SpillLog;

/// What a bounded ingest queue does with an event it cannot admit
/// (DESIGN.md §14.1). Every policy preserves the no-silent-loss invariant:
/// produced == admitted + shed, with shed exactly counted and bounded.
enum class BackpressurePolicy {
  kBlock,  // producer waits until a drain makes room (bounds memory)
  kShed,   // drop, record, and count — up to shed_budget, then block
  kSpill,  // divert to a WAL-backed SpillLog, replayed when pressure clears
};

/// Bounded-admission knobs for ActivityStore::enqueue(). The default
/// (queue_cap == 0) is the legacy unbounded queue.
struct AdmissionConfig {
  std::size_t queue_cap = 0;  // max queued events, whole queue; 0 = unbounded
  BackpressurePolicy policy = BackpressurePolicy::kBlock;
  std::size_t shed_budget = 0;  // max events kShed may drop before blocking
  SpillLog* spill = nullptr;    // required for kSpill (not owned)
};

/// What enqueue() did with the event.
enum class EnqueueResult { kQueued, kShed, kSpilled };

/// Per-user, per-type activity streams. Dense over users for cache-friendly
/// parallel evaluation.
///
/// Three ingestion styles:
///  * bulk: add() rows in any order, then sort_all() once — the load path
///    for whole trace files;
///  * streaming: append() events as they happen — each append keeps the
///    stream sorted, maintains the per-stream prefix-impact aggregate and
///    the chronological index, and marks the user dirty so an incremental
///    evaluator knows exactly whose rank can have changed;
///  * concurrent: enqueue() puts the event on the ingest queue (the only
///    locked structure in the store); drain_ingest() applies the queue via
///    append() at the start of each advance. Producers on any thread can
///    enqueue while drains and evaluations run.
///
/// The prefix aggregates let an evaluation at any t_c resolve per-period
/// impacts by binary-searching period boundaries (O(m log k)) instead of
/// walking the whole stream; the chronological index answers "which users
/// have activity inside a replay window" without touching every stream.
class ActivityStore {
 public:
  ActivityStore(std::size_t user_count, std::size_t type_count);

  void add(trace::UserId user, ActivityTypeId type, Activity activity);

  /// Sort every stream by timestamp (the evaluator requires sorted input),
  /// rebuild the prefix aggregates and the chronological index, and mark
  /// every user dirty (bulk loads invalidate any cached evaluation).
  void sort_all();

  /// Streaming insert: keeps the stream time-sorted (equal timestamps keep
  /// arrival order, matching add()+sort_all()'s stable sort), updates the
  /// aggregates in place, and marks `user` dirty. Finalizes the store first
  /// if bulk rows are pending.
  void append(trace::UserId user, ActivityTypeId type, Activity activity);

  /// Grow the type dimension (administrators may register activity types
  /// after tracing has started). Existing streams keep their data.
  void add_types(std::size_t extra);

  std::span<const Activity> stream(trace::UserId user,
                                   ActivityTypeId type) const;

  /// Prefix-impact aggregate of a stream: element i is the sum of the first
  /// i impacts (size = stream size + 1, element 0 = 0). Only valid while
  /// finalized().
  std::span<const double> prefix(trace::UserId user, ActivityTypeId type) const;

  /// True once sort_all() (or any append) has built the aggregates and no
  /// un-sorted bulk add() is pending.
  bool finalized() const { return finalized_; }

  // -- dirty tracking (single consumer: the incremental evaluator) --------
  //
  // Thread-safety: enqueue() and the pending/shed/spill readers are safe
  // from any thread. Everything else (appends, sort_all, drain_dirty,
  // drain_ingest) is single-threaded: the evaluator owns it.

  bool has_dirty() const { return !dirty_list_.empty(); }
  /// Flag every user touched by append()/add()/sort_all() since the last
  /// drain (flags[u] = 1; ids at or past flags.size() are dropped) and
  /// clear the dirty set in place. The set keeps its capacity, so a steady
  /// stream of appends does not regrow it after every drain. An empty span
  /// discards the set.
  void drain_dirty(std::span<std::uint8_t> flags);

  // -- concurrent ingest (producers: any thread; consumer: drain_ingest) --

  /// Bounded-admission policy for enqueue(). Must not race producers:
  /// configure before ingest threads start. The SpillLog, if any, is
  /// borrowed, not owned.
  void set_admission(AdmissionConfig config) { ingest_->config = config; }
  const AdmissionConfig& admission() const { return ingest_->config; }

  /// Thread-safe streaming insert: puts the event on the ingest queue. The
  /// store itself is mutated only when drain_ingest applies the queue, so
  /// producers may enqueue while drains or evaluations run. Events enqueued
  /// after a drain began are picked up by the next drain.
  ///
  /// When an AdmissionConfig caps the queue and it is full, the configured
  /// BackpressurePolicy decides: kBlock waits for a drain; kShed records
  /// the event in the shed log and drops it (until the budget is spent,
  /// then blocks); kSpill appends it to the SpillLog (falling back to
  /// blocking if the spill write itself fails). Blocking requires a live
  /// consumer calling drain_ingest — there is no timeout.
  EnqueueResult enqueue(trace::UserId user, ActivityTypeId type,
                        Activity activity);

  /// Queued-but-undrained depth (lock-free snapshot; exact under
  /// quiescence, momentarily stale against a racing producer).
  std::size_t pending_ingest() const {
    return ingest_->pending.load(std::memory_order_acquire);
  }
  bool has_pending_ingest() const { return pending_ingest() > 0; }

  /// Events dropped by the kShed policy so far (exact: every shed event is
  /// also recorded, so loss accounting can be audited event-by-event).
  std::size_t shed_count() const {
    return ingest_->shed_total.load(std::memory_order_acquire);
  }
  /// The recorded shed events, in drop order (bounded by shed_budget).
  std::vector<std::tuple<trace::UserId, ActivityTypeId, Activity>>
  shed_events() const;

  /// Events diverted to the SpillLog by the kSpill policy.
  std::size_t spilled_count() const {
    return ingest_->spilled_total.load(std::memory_order_acquire);
  }

  /// Deepest the ingest queue has ever been (the obs
  /// "activity_store.ingest_depth_high_water" gauge).
  std::size_t ingest_depth_high_water() const {
    return ingest_->depth_high_water.load(std::memory_order_acquire);
  }

  /// Apply the queued events via append(), in arrival order, and return
  /// how many were applied. Finalizes first if events are pending over
  /// un-sorted bulk rows.
  std::size_t drain_ingest();

  /// The chronological-index slice covering (begin, end]: time-sorted
  /// entries that may repeat a user. Callers dedupe into their own flag
  /// table, so the query allocates nothing.
  std::span<const std::pair<util::TimePoint, trace::UserId>> chrono_window(
      util::TimePoint begin, util::TimePoint end) const;

  std::size_t user_count() const { return users_; }
  std::size_t type_count() const { return types_; }

  /// Start loading `user`'s streams and prefix sums into L1, so that an
  /// evaluation issued a few users later finds them there
  /// (Evaluator::evaluate_users prefetches two users ahead). Per stream it
  /// touches the first cache line and up to kPrefetchTailLines lines from
  /// the newest end, where the newest periods' boundary searches land: a
  /// multi-year stream of thousands of activities does not flood L1. Only
  /// addresses inside the elements are touched, so an empty stream costs
  /// nothing. Read-only, like stream(); unlike stream() it does not check
  /// `user`, which must be below user_count().
  void prefetch(trace::UserId user) const {
    for (std::size_t s = user * types_; s < (user + 1) * types_; ++s) {
      prefetch_elements(streams_[s]);
      prefetch_elements(prefix_[s]);
    }
  }

  /// Total number of stored activities.
  std::size_t total_activities() const;

  /// Entries held by the prefix aggregates + chronological index (the obs
  /// "activity_store.aggregate_entries" gauge).
  std::size_t aggregate_entries() const;

 private:
  void mark_dirty(trace::UserId user);
  void rebuild_aggregates();

  /// Covers a typical live stream whole: perfbench's eval_dense holds about
  /// 25 activities per stream, 7 lines of activities and 4 of prefix sums.
  static constexpr std::size_t kPrefetchTailLines = 16;
  /// One prefetch into L1. On x86-64 an asm statement: GCC 12 at -O2
  /// deletes a loop whose body is only __builtin_prefetch, and a volatile
  /// asm cannot be dropped (tools/perfbench_smoke.sh checks the built
  /// benchmark holds prefetcht0 instructions).
  static void prefetch_line(const char* p) {
#if defined(__x86_64__)
    asm volatile("prefetcht0 %0" : : "m"(*p));
#else
    __builtin_prefetch(p, 0, 3);
#endif
  }
  template <typename T>
  static void prefetch_elements(const std::vector<T>& v) {
    constexpr std::size_t kLine = 64;
    if (v.empty()) return;
    const char* const base = reinterpret_cast<const char*>(v.data());
    const std::size_t last = v.size() * sizeof(T) - 1;  // last byte's offset
    prefetch_line(base);
    for (std::size_t k = 0; k < kPrefetchTailLines && k * kLine < last; ++k) {
      prefetch_line(base + (last - k * kLine));
    }
  }

  std::size_t users_;
  std::size_t types_;
  std::vector<std::vector<Activity>> streams_;  // [user * types_ + type]
  std::vector<std::vector<double>> prefix_;     // parallel to streams_
  /// Chronological index for windowed dirty-user queries, time-sorted.
  std::vector<std::pair<util::TimePoint, trace::UserId>> chrono_;
  bool finalized_ = false;

  std::vector<std::uint8_t> dirty_flags_;  // dense by user
  std::vector<trace::UserId> dirty_list_;  // users with dirty_flags_ set

  /// The producer-facing queue and its admission/backpressure state,
  /// heap-held so the store stays movable despite the mutex and atomics.
  /// The mutex guards queue and shed_events; pending mirrors queue.size()
  /// so lock-free readers see a consistent depth.
  struct IngestQueue {
    AdmissionConfig config;  // read by producers; set only at quiescence
    mutable std::mutex mutex;
    std::condition_variable drained;  // signaled when drain_ingest makes room
    std::vector<std::tuple<trace::UserId, ActivityTypeId, Activity>> queue;
    std::vector<std::tuple<trace::UserId, ActivityTypeId, Activity>>
        shed_events;
    std::atomic<std::size_t> pending{0};
    std::atomic<std::size_t> shed_total{0};
    std::atomic<std::size_t> spilled_total{0};
    std::atomic<std::size_t> depth_high_water{0};
  };
  std::unique_ptr<IngestQueue> ingest_;
};

/// Ingest a job log: each job submission becomes one operation activity with
/// impact = weight x core-hours (the paper's §4.1.3 choice).
void ingest_jobs(ActivityStore& store, ActivityTypeId type, double weight,
                 const trace::JobLog& jobs);

/// Ingest a publication list: each publication contributes one outcome
/// activity per author with impact = weight x (c+1)(n-i+1) (Eq. 8).
void ingest_publications(ActivityStore& store, ActivityTypeId type,
                         double weight, const trace::PublicationLog& pubs);

/// Ingest a generic activity CSV (header: user,timestamp,impact) — the §3.1
/// promise that *any* trackable activity with a timestamp and a quantifiable
/// impact can drive the evaluation (data transfers, shell logins, workflow
/// completions, ... exported by site tooling). Rows whose user is outside
/// the store are skipped. Returns the number of activities ingested. The
/// file's CRC footer is verified when present and the ParsePolicy governs
/// malformed-row handling, same as the trace loaders.
std::size_t ingest_activities_csv(ActivityStore& store, ActivityTypeId type,
                                  double weight, const std::string& path,
                                  const util::ParseOptions& opts = {});

/// Write activities back out in the same format (round-trip for tests and
/// for sites that post-process activity streams).
void save_activities_csv(const std::string& path,
                         const std::vector<std::pair<trace::UserId, Activity>>&
                             activities);

}  // namespace adr::activeness
