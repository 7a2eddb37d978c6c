#include "activeness/activity.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "activeness/spill.hpp"
#include "obs/metrics.hpp"
#include "util/csv.hpp"
#include "util/io.hpp"

namespace adr::activeness {

ActivityTypeId ActivityCatalog::add(ActivityTypeSpec spec) {
  specs_.push_back(std::move(spec));
  return specs_.size() - 1;
}

const ActivityTypeSpec& ActivityCatalog::spec(ActivityTypeId id) const {
  if (id >= specs_.size())
    throw std::out_of_range("ActivityCatalog: bad type id");
  return specs_[id];
}

std::vector<ActivityTypeId> ActivityCatalog::types_in(
    ActivityCategory category) const {
  std::vector<ActivityTypeId> out;
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    if (specs_[i].category == category) out.push_back(i);
  }
  return out;
}

ActivityCatalog ActivityCatalog::paper_default() {
  ActivityCatalog catalog;
  catalog.add({"job_submission", ActivityCategory::kOperation, 1.0});
  catalog.add({"publication", ActivityCategory::kOutcome, 1.0});
  return catalog;
}

ActivityStore::ActivityStore(std::size_t user_count, std::size_t type_count)
    : users_(user_count),
      types_(type_count),
      streams_(user_count * type_count),
      prefix_(user_count * type_count),
      dirty_flags_(user_count, 0),
      ingest_(std::make_unique<IngestQueue>()) {}

void ActivityStore::mark_dirty(trace::UserId user) {
  if (dirty_flags_[user]) return;
  dirty_flags_[user] = 1;
  dirty_list_.push_back(user);
}

void ActivityStore::add(trace::UserId user, ActivityTypeId type,
                        Activity activity) {
  if (user >= users_ || type >= types_)
    throw std::out_of_range("ActivityStore: bad user/type");
  streams_[user * types_ + type].push_back(activity);
  finalized_ = false;
  mark_dirty(user);
}

void ActivityStore::rebuild_aggregates() {
  chrono_.clear();
  for (std::size_t s = 0; s < streams_.size(); ++s) {
    const auto& stream = streams_[s];
    auto& prefix = prefix_[s];
    prefix.resize(stream.size() + 1);
    prefix[0] = 0.0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      prefix[i + 1] = prefix[i] + stream[i].impact;
    }
    const auto user = static_cast<trace::UserId>(s / types_);
    for (const auto& a : stream) chrono_.emplace_back(a.timestamp, user);
  }
  std::sort(chrono_.begin(), chrono_.end());
  obs::MetricsRegistry::global()
      .gauge("activity_store.aggregate_entries")
      .set(static_cast<std::int64_t>(aggregate_entries()));
}

void ActivityStore::sort_all() {
  for (auto& s : streams_) {
    std::stable_sort(s.begin(), s.end(),
                     [](const Activity& a, const Activity& b) {
                       return a.timestamp < b.timestamp;
                     });
  }
  rebuild_aggregates();
  // A bulk load can have touched anyone: every user is dirty until the next
  // evaluation drains them.
  for (trace::UserId u = 0; u < users_; ++u) mark_dirty(u);
  finalized_ = true;
}

void ActivityStore::append(trace::UserId user, ActivityTypeId type,
                           Activity activity) {
  if (user >= users_ || type >= types_)
    throw std::out_of_range("ActivityStore: bad user/type");
  if (!finalized_) {
    sort_all();  // flush pending bulk rows so the aggregates are consistent
  }
  auto& stream = streams_[user * types_ + type];
  auto& prefix = prefix_[user * types_ + type];
  // upper_bound keeps arrival order among equal timestamps — identical to
  // the stable sort a bulk load would have produced.
  const auto it = std::upper_bound(
      stream.begin(), stream.end(), activity.timestamp,
      [](util::TimePoint t, const Activity& a) { return t < a.timestamp; });
  const std::size_t pos = static_cast<std::size_t>(it - stream.begin());
  stream.insert(it, activity);
  prefix.resize(stream.size() + 1);
  for (std::size_t i = pos; i < stream.size(); ++i) {
    prefix[i + 1] = prefix[i] + stream[i].impact;
  }
  // A live feed appends the newest event almost always: that position is
  // the back, the same one upper_bound would pick (after every entry with
  // an equal timestamp), without searching the whole index.
  if (chrono_.empty() || chrono_.back().first <= activity.timestamp) {
    chrono_.emplace_back(activity.timestamp, user);
  } else {
    const auto cit = std::upper_bound(
        chrono_.begin(), chrono_.end(),
        std::make_pair(activity.timestamp,
                       std::numeric_limits<trace::UserId>::max()));
    chrono_.emplace(cit, activity.timestamp, user);
  }
  mark_dirty(user);
  static obs::Counter& appends =
      obs::MetricsRegistry::global().counter("activity_store.appends");
  appends.add();
  static obs::Gauge& entries =
      obs::MetricsRegistry::global().gauge("activity_store.aggregate_entries");
  entries.add(2);  // one prefix entry + one chrono entry
}

void ActivityStore::add_types(std::size_t extra) {
  if (extra == 0) return;
  const std::size_t new_types = types_ + extra;
  std::vector<std::vector<Activity>> streams(users_ * new_types);
  std::vector<std::vector<double>> prefix(users_ * new_types);
  for (trace::UserId u = 0; u < users_; ++u) {
    for (std::size_t t = 0; t < types_; ++t) {
      streams[u * new_types + t] = std::move(streams_[u * types_ + t]);
      prefix[u * new_types + t] = std::move(prefix_[u * types_ + t]);
    }
  }
  streams_ = std::move(streams);
  prefix_ = std::move(prefix);
  types_ = new_types;
  if (finalized_) {
    // New streams are empty; prefixes for them are built lazily on append,
    // but give them their canonical empty shape now.
    for (auto& p : prefix_) {
      if (p.empty()) p.assign(1, 0.0);
    }
  }
}

std::span<const Activity> ActivityStore::stream(trace::UserId user,
                                                ActivityTypeId type) const {
  if (user >= users_ || type >= types_)
    throw std::out_of_range("ActivityStore: bad user/type");
  return streams_[user * types_ + type];
}

std::span<const double> ActivityStore::prefix(trace::UserId user,
                                              ActivityTypeId type) const {
  if (user >= users_ || type >= types_)
    throw std::out_of_range("ActivityStore: bad user/type");
  return prefix_[user * types_ + type];
}

void ActivityStore::drain_dirty(std::span<std::uint8_t> flags) {
  for (const trace::UserId u : dirty_list_) {
    dirty_flags_[u] = 0;
    if (u < flags.size()) flags[u] = 1;
  }
  dirty_list_.clear();
}

std::span<const std::pair<util::TimePoint, trace::UserId>>
ActivityStore::chrono_window(util::TimePoint begin,
                             util::TimePoint end) const {
  if (end <= begin) return {};
  const auto lo = std::upper_bound(
      chrono_.begin(), chrono_.end(),
      std::make_pair(begin, std::numeric_limits<trace::UserId>::max()));
  const auto hi = std::upper_bound(
      chrono_.begin(), chrono_.end(),
      std::make_pair(end, std::numeric_limits<trace::UserId>::max()));
  return {chrono_.data() + (lo - chrono_.begin()),
          static_cast<std::size_t>(hi - lo)};
}

EnqueueResult ActivityStore::enqueue(trace::UserId user, ActivityTypeId type,
                                     Activity activity) {
  if (user >= users_ || type >= types_)
    throw std::out_of_range("ActivityStore: bad user/type");
  IngestQueue& iq = *ingest_;
  const std::size_t cap = iq.config.queue_cap;
  std::unique_lock<std::mutex> lock(iq.mutex);
  if (cap > 0 && iq.queue.size() >= cap) {
    // Over the cap: apply the backpressure policy. Every branch either
    // accounts for the event (shed log, spill segment) or ends up blocking,
    // so nothing is ever lost silently.
    switch (iq.config.policy) {
      case BackpressurePolicy::kShed:
        if (iq.shed_events.size() < iq.config.shed_budget) {
          iq.shed_events.emplace_back(user, type, activity);
          iq.shed_total.fetch_add(1, std::memory_order_acq_rel);
          obs::MetricsRegistry::global()
              .counter("activity_store.ingest_shed")
              .add();
          return EnqueueResult::kShed;
        }
        break;  // budget spent: degrade to blocking, never silent loss
      case BackpressurePolicy::kSpill: {
        if (iq.config.spill != nullptr) {
          lock.unlock();  // file IO must not hold the queue lock
          try {
            iq.config.spill->append(user, type, activity);
            iq.spilled_total.fetch_add(1, std::memory_order_acq_rel);
            obs::MetricsRegistry::global()
                .counter("activity_store.ingest_spilled")
                .add();
            return EnqueueResult::kSpilled;
          } catch (const std::exception&) {
            // Spill segment unwritable (disk full, torn write): fall back
            // to blocking admission so the event still is not dropped.
            lock.lock();
          }
        }
        break;
      }
      case BackpressurePolicy::kBlock:
        break;
    }
    if (iq.queue.size() >= cap) {
      obs::MetricsRegistry::global()
          .counter("activity_store.ingest_blocked")
          .add();
      iq.drained.wait(lock, [&] { return iq.queue.size() < cap; });
    }
  }
  iq.queue.emplace_back(user, type, activity);
  const std::size_t depth = iq.queue.size();
  iq.pending.store(depth, std::memory_order_release);
  if (depth > iq.depth_high_water.load(std::memory_order_relaxed)) {
    iq.depth_high_water.store(depth, std::memory_order_release);
  }
  lock.unlock();

  static obs::Counter& enqueued =
      obs::MetricsRegistry::global().counter("activity_store.ingest_enqueued");
  enqueued.add();
  return EnqueueResult::kQueued;
}

std::vector<std::tuple<trace::UserId, ActivityTypeId, Activity>>
ActivityStore::shed_events() const {
  std::lock_guard<std::mutex> lock(ingest_->mutex);
  return ingest_->shed_events;
}

std::size_t ActivityStore::drain_ingest() {
  if (!finalized_ && has_pending_ingest()) {
    sort_all();  // flush pending bulk rows before applying queued events
  }
  IngestQueue& iq = *ingest_;
  std::vector<std::tuple<trace::UserId, ActivityTypeId, Activity>> batch;
  {
    std::lock_guard<std::mutex> lock(iq.mutex);
    if (iq.queue.empty()) return 0;
    batch.swap(iq.queue);
    iq.pending.store(0, std::memory_order_release);
  }
  iq.drained.notify_all();  // wake producers blocked on a full queue
  for (const auto& [user, type, activity] : batch) {
    append(user, type, activity);
  }
  static obs::Counter& drained =
      obs::MetricsRegistry::global().counter("activity_store.ingest_drained");
  drained.add(batch.size());
  return batch.size();
}

std::size_t ActivityStore::total_activities() const {
  std::size_t n = 0;
  for (const auto& s : streams_) n += s.size();
  return n;
}

std::size_t ActivityStore::aggregate_entries() const {
  std::size_t n = chrono_.size();
  for (const auto& p : prefix_) n += p.size();
  return n;
}

void ingest_jobs(ActivityStore& store, ActivityTypeId type, double weight,
                 const trace::JobLog& jobs) {
  for (const auto& job : jobs.records()) {
    if (job.user == trace::kInvalidUser || job.user >= store.user_count())
      continue;
    store.add(job.user, type,
              Activity{job.submit_time, weight * job.core_hours()});
  }
}

void ingest_publications(ActivityStore& store, ActivityTypeId type,
                         double weight, const trace::PublicationLog& pubs) {
  for (const auto& pub : pubs.records()) {
    for (std::size_t i = 0; i < pub.authors.size(); ++i) {
      const trace::UserId author = pub.authors[i];
      if (author == trace::kInvalidUser || author >= store.user_count())
        continue;
      store.add(author, type,
                Activity{pub.published, weight * pub.impact_for_author(i + 1)});
    }
  }
}

std::size_t ingest_activities_csv(ActivityStore& store, ActivityTypeId type,
                                  double weight, const std::string& path,
                                  const util::ParseOptions& opts) {
  std::istringstream in(util::io::load_verified(path));
  util::CsvReader reader(in);
  if (!reader.read_header())
    throw std::runtime_error("ingest_activities_csv: empty file " + path);
  const bool permissive = opts.policy == util::ParsePolicy::kPermissive;
  util::RowQuarantine quarantine(path, opts.quarantine_path);
  std::size_t ingested = 0;
  while (auto row = reader.next()) {
    const util::RowContext ctx{&path, reader.line()};
    try {
      if (row->size() != 3) {
        throw util::ParseError("ingest_activities_csv: " + path + ":" +
                               std::to_string(reader.line()) +
                               ": expected 3 columns, got " +
                               std::to_string(row->size()));
      }
      const auto user =
          static_cast<trace::UserId>(util::parse_u32((*row)[0], ctx, "user"));
      const auto timestamp = util::parse_i64((*row)[1], ctx, "timestamp");
      const double impact = util::parse_f64((*row)[2], ctx, "impact");
      if (user >= store.user_count()) continue;
      store.add(user, type, Activity{timestamp, weight * impact});
      ++ingested;
      if (opts.stats) ++opts.stats->rows_ok;
    } catch (const util::ParseError& e) {
      if (!permissive) throw;
      quarantine.add(reader.line(), util::RowQuarantine::kMalformed, e.what(),
                     reader.raw());
    }
  }
  quarantine.finish(opts.stats);
  return ingested;
}

void save_activities_csv(const std::string& path,
                         const std::vector<std::pair<trace::UserId, Activity>>&
                             activities) {
  util::io::AtomicWriter writer(path,
                                {.fsync = util::io::default_fsync()});
  util::CsvWriter w(writer.stream());
  w.write_row({"user", "timestamp", "impact"});
  for (const auto& [user, activity] : activities) {
    w.write_row({std::to_string(user), std::to_string(activity.timestamp),
                 std::to_string(activity.impact)});
  }
  writer.commit();
}

}  // namespace adr::activeness
