#include "activeness/activity.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace adr::activeness {
namespace {

TEST(ActivityCatalog, RegistersAndQueries) {
  ActivityCatalog cat;
  const auto job = cat.add({"job", ActivityCategory::kOperation, 1.0});
  const auto xfer = cat.add({"transfer", ActivityCategory::kOperation, 0.5});
  const auto pub = cat.add({"pub", ActivityCategory::kOutcome, 2.0});
  EXPECT_EQ(cat.size(), 3u);
  EXPECT_EQ(cat.spec(job).name, "job");
  EXPECT_EQ(cat.spec(pub).weight, 2.0);
  EXPECT_EQ(cat.types_in(ActivityCategory::kOperation),
            (std::vector<ActivityTypeId>{job, xfer}));
  EXPECT_EQ(cat.types_in(ActivityCategory::kOutcome),
            (std::vector<ActivityTypeId>{pub}));
  EXPECT_THROW(cat.spec(99), std::out_of_range);
}

TEST(ActivityCatalog, PaperDefault) {
  const auto cat = ActivityCatalog::paper_default();
  ASSERT_EQ(cat.size(), 2u);
  EXPECT_EQ(cat.spec(0).category, ActivityCategory::kOperation);
  EXPECT_EQ(cat.spec(1).category, ActivityCategory::kOutcome);
}

TEST(ActivityStore, AddAndStream) {
  ActivityStore store(3, 2);
  store.add(1, 0, {100, 5.0});
  store.add(1, 0, {50, 3.0});
  store.add(2, 1, {70, 1.0});
  EXPECT_EQ(store.total_activities(), 3u);
  EXPECT_EQ(store.stream(1, 0).size(), 2u);
  EXPECT_EQ(store.stream(0, 0).size(), 0u);
  store.sort_all();
  EXPECT_EQ(store.stream(1, 0)[0].timestamp, 50);
  EXPECT_EQ(store.stream(1, 0)[1].timestamp, 100);
}

// append() puts a chronological-index entry at the back when the event is
// the newest, and searches only for an out-of-order one; either way the
// index, the streams and the aggregate_entries gauge must come out as a
// bulk add() + sort_all() of the same events builds them.
TEST(ActivityStore, AppendsMatchBulkLoadInChronoIndexAndGauge) {
  struct Event {
    trace::UserId user;
    ActivityTypeId type;
    Activity activity;
  };
  const std::vector<Event> events{
      {0, 0, {100, 1.0}}, {1, 1, {200, 2.0}},  // in order
      {2, 0, {200, 3.0}}, {1, 1, {200, 4.0}},  // equal timestamps
      {0, 1, {150, 5.0}}, {2, 1, {50, 6.0}},   // out of order
      {1, 0, {300, 7.0}}, {0, 0, {50, 8.0}},   // newest again, oldest tie
  };
  auto& gauge =
      obs::MetricsRegistry::global().gauge("activity_store.aggregate_entries");
  ActivityStore streamed(3, 2);
  for (const Event& e : events) streamed.append(e.user, e.type, e.activity);
  const std::int64_t streamed_gauge = gauge.value();
  EXPECT_EQ(streamed_gauge,
            static_cast<std::int64_t>(streamed.aggregate_entries()));

  ActivityStore bulk(3, 2);
  for (const Event& e : events) bulk.add(e.user, e.type, e.activity);
  bulk.sort_all();
  EXPECT_EQ(gauge.value(), streamed_gauge);
  EXPECT_EQ(bulk.aggregate_entries(), streamed.aggregate_entries());

  for (trace::UserId u = 0; u < 3; ++u) {
    for (ActivityTypeId t = 0; t < 2; ++t) {
      const auto a = streamed.stream(u, t);
      const auto b = bulk.stream(u, t);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].timestamp, b[i].timestamp);
        EXPECT_EQ(a[i].impact, b[i].impact);
      }
    }
  }
  // Entries with equal timestamps may differ in user order (appends keep
  // arrival order, the bulk sort orders by user); every window must hold
  // the same entries.
  const auto sorted = [](auto window) {
    std::vector<std::pair<util::TimePoint, trace::UserId>> out(window.begin(),
                                                               window.end());
    std::sort(out.begin(), out.end());
    return out;
  };
  for (const auto& [begin, end] :
       std::vector<std::pair<util::TimePoint, util::TimePoint>>{
           {0, 400}, {49, 50}, {50, 150}, {100, 200}, {199, 200}, {200, 300},
           {300, 400}}) {
    SCOPED_TRACE(std::to_string(begin) + ".." + std::to_string(end));
    const auto a = streamed.chrono_window(begin, end);
    const auto b = bulk.chrono_window(begin, end);
    EXPECT_EQ(sorted(a), sorted(b));
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end(),
                               [](const auto& x, const auto& y) {
                                 return x.first < y.first;
                               }));
  }
  EXPECT_EQ(streamed.chrono_window(0, 400).size(), events.size());
}

TEST(ActivityStore, BoundsChecked) {
  ActivityStore store(2, 1);
  EXPECT_THROW(store.add(2, 0, {0, 0}), std::out_of_range);
  EXPECT_THROW(store.add(0, 1, {0, 0}), std::out_of_range);
  EXPECT_THROW(store.stream(5, 0), std::out_of_range);
}

TEST(Ingest, JobsBecomeCoreHourActivities) {
  trace::JobLog jobs;
  trace::JobRecord j;
  j.user = 1;
  j.submit_time = 42;
  j.duration_seconds = 7200;
  j.cores = 10;  // 20 core-hours
  jobs.add(j);
  j.user = 99;  // out of range: skipped
  jobs.add(j);

  ActivityStore store(2, 1);
  ingest_jobs(store, 0, 2.0, jobs);
  ASSERT_EQ(store.stream(1, 0).size(), 1u);
  EXPECT_EQ(store.stream(1, 0)[0].timestamp, 42);
  EXPECT_DOUBLE_EQ(store.stream(1, 0)[0].impact, 40.0);  // weighted x2
  EXPECT_EQ(store.total_activities(), 1u);
}

TEST(Ingest, PublicationsFanOutPerAuthor) {
  trace::PublicationLog pubs;
  trace::PublicationRecord p;
  p.published = 7;
  p.citations = 4;     // phi = 5
  p.authors = {0, 1};  // theta: 2 for lead, 1 for second
  pubs.add(p);

  ActivityStore store(2, 1);
  ingest_publications(store, 0, 1.0, pubs);
  ASSERT_EQ(store.stream(0, 0).size(), 1u);
  ASSERT_EQ(store.stream(1, 0).size(), 1u);
  EXPECT_DOUBLE_EQ(store.stream(0, 0)[0].impact, 10.0);
  EXPECT_DOUBLE_EQ(store.stream(1, 0)[0].impact, 5.0);
}

TEST(IngestCsv, RoundTripAndSkipUnknownUsers) {
  const std::string path = ::testing::TempDir() + "/activities.csv";
  save_activities_csv(path, {{0, {100, 2.5}},
                             {1, {200, 1.0}},
                             {99, {300, 9.0}}});  // user 99 out of range
  ActivityStore store(2, 1);
  const std::size_t n = ingest_activities_csv(store, 0, 2.0, path);
  EXPECT_EQ(n, 2u);
  ASSERT_EQ(store.stream(0, 0).size(), 1u);
  EXPECT_EQ(store.stream(0, 0)[0].timestamp, 100);
  EXPECT_DOUBLE_EQ(store.stream(0, 0)[0].impact, 5.0);  // weighted x2
  EXPECT_EQ(store.stream(1, 0).size(), 1u);
  std::remove(path.c_str());
}

TEST(IngestCsv, MalformedRowThrows) {
  const std::string path = ::testing::TempDir() + "/bad_activities.csv";
  {
    std::ofstream out(path);
    out << "user,timestamp,impact\n1,2\n";
  }
  ActivityStore store(2, 1);
  EXPECT_THROW(ingest_activities_csv(store, 0, 1.0, path),
               std::runtime_error);
  std::remove(path.c_str());
}

TEST(IngestCsv, MissingFileThrows) {
  ActivityStore store(1, 1);
  EXPECT_THROW(ingest_activities_csv(store, 0, 1.0, "/nonexistent.csv"),
               std::runtime_error);
}

}  // namespace
}  // namespace adr::activeness
