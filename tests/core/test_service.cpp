#include "core/service.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "activeness/rank_store.hpp"
#include "obs/metrics.hpp"
#include "trace/event_log.hpp"
#include "util/bundle.hpp"
#include "util/fault.hpp"
#include "util/io.hpp"
#include "util/time.hpp"

namespace adr::core {
namespace {

namespace fsys = std::filesystem;

// The evaluation pipeline keeps a pointer to the Service's own catalog, so
// a moved Service would evaluate against its source's catalog, which
// dangles once the source is destroyed.
static_assert(!std::is_move_constructible_v<Service>);

constexpr util::TimePoint kBase = 1'600'000'000;
constexpr std::size_t kUsers = 8;
/// Evaluation instant of the single-service API cases.
constexpr util::TimePoint kNow = kBase;

fs::FileMeta meta(trace::UserId owner, std::uint64_t size, double age_days) {
  fs::FileMeta m;
  m.owner = owner;
  m.size_bytes = size;
  m.atime = kNow - static_cast<util::Duration>(age_days * 86400);
  m.ctime = m.atime;
  return m;
}

/// user0 rises across three periods: impacts 300/300/600 (old -> new),
/// ratios (0.75, 0.75, 1.5) -> Phi = 0.75 * 0.75^2 * 1.5^3 = 1.42 (active).
void record_rising_user0(Service& service, activeness::ActivityTypeId op) {
  for (int p = 0; p < 3; ++p) {
    for (int k = 0; k < 3; ++k) {
      service.record(0, op, kNow - util::days(90 * p + 10 + k * 20),
                     p == 0 ? 200.0 : 100.0);
    }
  }
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// A deterministic mixed event history: file creates with distinct atimes
/// (PurgeIndex tie-breaks equal atimes by interning order, which differs
/// between replay and snapshot-import paths — distinct atimes keep the
/// identity contract about *state*, not interning accidents), job and
/// publication activity spread over ~60 days, accesses refreshing some
/// files.
std::vector<trace::Event> make_history() {
  std::vector<trace::Event> events;
  const auto day = util::days(1);
  for (std::size_t u = 0; u < kUsers; ++u) {
    for (std::size_t f = 0; f < 3; ++f) {
      trace::Event e;
      e.kind = trace::EventKind::kCreate;
      e.user = static_cast<trace::UserId>(u);
      e.timestamp = kBase + static_cast<util::Duration>(u * 3 + f) * day / 4;
      e.path = "/scratch/user_" + std::to_string(u) + "/f" +
               std::to_string(f) + ".dat";
      e.size_bytes = 1000 + u * 100 + f;
      e.stripe_count = 4;
      events.push_back(e);
    }
  }
  for (std::size_t u = 0; u < kUsers; ++u) {
    // Activity density falls with user id: user 0 very active, the tail
    // dormant — spreads users across the G1..G4 groups.
    const int bursts = static_cast<int>(kUsers - u);
    for (int b = 0; b < bursts; ++b) {
      trace::Event job;
      job.kind = trace::EventKind::kJob;
      job.user = static_cast<trace::UserId>(u);
      job.timestamp = kBase + static_cast<util::Duration>(b * 9 + 1) * day +
                      static_cast<util::Duration>(u);
      job.impact = 120.0 * (b + 1) + static_cast<double>(u) * 0.25;
      events.push_back(job);
    }
    if (u % 3 == 0) {
      trace::Event pub;
      pub.kind = trace::EventKind::kPublication;
      pub.user = static_cast<trace::UserId>(u);
      pub.timestamp = kBase + 20 * day + static_cast<util::Duration>(u);
      pub.impact = 8.0 + static_cast<double>(u);
      events.push_back(pub);
    }
    if (u % 2 == 0) {
      trace::Event access;
      access.kind = trace::EventKind::kAccess;
      access.user = static_cast<trace::UserId>(u);
      access.timestamp = kBase + 55 * day + static_cast<util::Duration>(u);
      access.path = "/scratch/user_" + std::to_string(u) + "/f0.dat";
      events.push_back(access);
    }
  }
  return events;
}

ServiceConfig test_config() {
  ServiceConfig config;
  config.lifetime_days = 30;
  config.record_victims = true;
  return config;
}

std::unique_ptr<Service> make_service() {
  auto service = std::make_unique<Service>(
      trace::UserRegistry::with_synthetic_users(kUsers), test_config());
  service->register_paper_types();
  return service;
}

class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest() { service_.register_paper_types(); }

  /// The API cases drive one 4-user Service at the default config, with
  /// the paper's two activity types registered.
  Service service_{trace::UserRegistry::with_synthetic_users(4),
                   ServiceConfig{}};
  const activeness::ActivityTypeId op_ = kJobActivityType;
  const activeness::ActivityTypeId oc_ = kPublicationActivityType;

  std::string dir_ = ::testing::TempDir() + "/adr_service_test_" +
                     std::to_string(::getpid());
  std::string wal_ = dir_ + "/wal";
  util::TimePoint now_ = kBase + util::days(70);

  void SetUp() override {
    util::FaultInjector::global().clear();
    fsys::remove_all(dir_);
    fsys::create_directories(wal_);
    trace::EventLogWriter writer(wal_);
    for (const auto& event : make_history()) writer.append(event);
  }
  void TearDown() override {
    util::FaultInjector::global().clear();
    fsys::remove_all(dir_);
  }

  std::vector<trace::Event> all_events() {
    trace::EventLogReader reader(wal_);
    return reader.read_after(0);
  }

  /// Apply the whole WAL cold and purge; returns (ranks-file bytes,
  /// victims).
  std::pair<std::string, std::vector<std::string>> cold_run(
      const std::string& tag) {
    auto service = make_service();
    for (const auto& event : all_events()) service->apply(event);
    const auto report = service->purge(now_, 0);
    const std::string ranks_path = dir_ + "/ranks_" + tag + ".csv";
    activeness::save_rank_file(service->pipeline().users(), ranks_path);
    return {slurp(ranks_path), report.victim_paths};
  }
};

TEST_F(ServiceTest, ApplyIsSeqGuardedAndIdempotent) {
  auto service = make_service();
  const auto events = all_events();
  for (const auto& event : events) EXPECT_TRUE(service->apply(event));
  const std::uint64_t seq = service->last_applied_seq();
  EXPECT_EQ(seq, events.size());

  // Replaying the same tail is a strict no-op.
  for (const auto& event : events) EXPECT_FALSE(service->apply(event));
  EXPECT_EQ(service->last_applied_seq(), seq);

  const auto once = cold_run("once");
  auto twice_service = make_service();
  for (int round = 0; round < 2; ++round) {
    for (const auto& event : events) twice_service->apply(event);
  }
  const auto report = twice_service->purge(now_, 0);
  const std::string ranks_path = dir_ + "/ranks_twice.csv";
  activeness::save_rank_file(twice_service->pipeline().users(), ranks_path);
  EXPECT_EQ(slurp(ranks_path), once.first);
  EXPECT_EQ(report.victim_paths, once.second);
}

TEST_F(ServiceTest, WalReplayMatchesDirectRecordIngest) {
  // Feed the same history through record()/vfs calls directly (the bulk
  // path the examples take) and through WAL apply; ranks must match
  // byte-for-byte.
  auto direct = make_service();
  for (const auto& event : make_history()) {
    trace::Event copy = event;
    copy.seq = 0;  // direct events carry no WAL seq
    direct->apply(copy);
  }
  const auto direct_report = direct->purge(now_, 0);
  const std::string direct_ranks = dir_ + "/ranks_direct.csv";
  activeness::save_rank_file(direct->pipeline().users(), direct_ranks);

  const auto wal = cold_run("wal");
  EXPECT_EQ(slurp(direct_ranks), wal.first);
  EXPECT_EQ(direct_report.victim_paths, wal.second);
}

TEST_F(ServiceTest, EvaluateFoldsInPendingIngestAtRepeatedNow) {
  auto service = make_service();
  service->prepare_ingest();
  const auto events = all_events();
  for (const auto& event : events) service->apply(event);
  service->evaluate(now_);
  const auto before = service->activeness_of(kUsers - 1);

  // Enqueue (not append) a fresh burst for the most dormant user, then
  // re-evaluate at the *same* now: the pending-ingest guard must not serve
  // the cached result.
  auto& store = service->store();
  for (int i = 0; i < 5; ++i) {
    store.enqueue(kUsers - 1, kJobActivityType,
                  {now_ - util::days(2) + i, 50'000.0});
  }
  ASSERT_TRUE(store.has_pending_ingest());
  service->evaluate(now_);
  EXPECT_FALSE(store.has_pending_ingest());
  const auto after = service->activeness_of(kUsers - 1);
  EXPECT_GT(after.last_activity, before.last_activity);
}

TEST_F(ServiceTest, CheckpointPlusTailReplayMatchesColdRun) {
  const auto cold = cold_run("cold");

  // Warm path: apply half the history, checkpoint, restore into a fresh
  // service, replay the tail.
  const auto events = all_events();
  const std::size_t half = events.size() / 2;
  const std::string ckpt = dir_ + "/ckpt";
  {
    auto first = make_service();
    for (std::size_t i = 0; i < half; ++i) first->apply(events[i]);
    first->save_checkpoint(ckpt);
  }
  auto second = make_service();
  const auto status = second->restore_checkpoint(ckpt);
  ASSERT_TRUE(status.ok) << status.error;
  EXPECT_EQ(status.applied_seq, events[half - 1].seq);
  for (const auto& event : events) second->apply(event);  // idempotent tail
  const auto report = second->purge(now_, 0);
  const std::string ranks_path = dir_ + "/ranks_warm.csv";
  activeness::save_rank_file(second->pipeline().users(), ranks_path);

  EXPECT_EQ(slurp(ranks_path), cold.first);
  EXPECT_EQ(report.victim_paths, cold.second);
}

TEST_F(ServiceTest, NonCanonicalPathNamesOneVictimAcrossRestore) {
  // Regression: a path fed with a doubled '/' was reported verbatim by the
  // live service but canonicalized by the checkpoint's snapshot, so a
  // restarted daemon named the same victim differently.
  trace::Event create;
  create.kind = trace::EventKind::kCreate;
  create.user = 0;
  create.timestamp = kBase;
  create.path = "/scratch/user_00000//a";
  create.size_bytes = 100;
  const std::string ckpt = dir_ + "/ckpt_canonical";
  std::vector<std::string> live;
  {
    auto service = make_service();
    service->apply(create);
    service->save_checkpoint(ckpt);
    live = service->purge(now_, 0).victim_paths;
  }
  EXPECT_EQ(live, std::vector<std::string>{"/scratch/user_00000/a"});
  auto restored = make_service();
  const auto status = restored->restore_checkpoint(ckpt);
  ASSERT_TRUE(status.ok) << status.error;
  EXPECT_EQ(restored->purge(now_, 0).victim_paths, live);
}

TEST_F(ServiceTest, AdmissionCapBoundsTheWholeQueue) {
  // queue_cap bounds the whole ingest queue, whatever ACTIVEDR_THREADS is:
  // with a cap of 2, six events for six users queue two and shed four.
  Service service(trace::UserRegistry::with_synthetic_users(kUsers),
                  ServiceConfig{});
  service.register_paper_types();
  service.prepare_ingest();
  activeness::AdmissionConfig admission;
  admission.queue_cap = 2;
  admission.policy = activeness::BackpressurePolicy::kShed;
  admission.shed_budget = 100;
  auto& store = service.store();
  store.set_admission(admission);
  for (trace::UserId user = 0; user < 6; ++user) {
    store.enqueue(user, kJobActivityType, {kBase, 1.0});
  }
  EXPECT_EQ(store.pending_ingest(), 2u);
  EXPECT_EQ(store.shed_count(), 4u);
}

TEST_F(ServiceTest, RestoreRefusesDamagedCheckpoints) {
  const auto events = all_events();
  const std::string ckpt = dir_ + "/ckpt";
  {
    auto service = make_service();
    for (const auto& event : events) service->apply(event);
    service->save_checkpoint(ckpt);
  }
  // Valid as written.
  {
    auto service = make_service();
    EXPECT_TRUE(service->restore_checkpoint(ckpt).ok);
  }
  // Unsealed (manifest gone) is refused.
  fsys::rename(ckpt + "/MANIFEST", ckpt + "/MANIFEST.hidden");
  {
    auto service = make_service();
    const auto status = service->restore_checkpoint(ckpt);
    EXPECT_FALSE(status.ok);
    EXPECT_NE(status.error.find("unsealed"), std::string::npos);
    // The failed restore left the service clean and usable.
    for (const auto& event : events) service->apply(event);
    EXPECT_EQ(service->last_applied_seq(), events.size());
  }
  fsys::rename(ckpt + "/MANIFEST.hidden", ckpt + "/MANIFEST");
  // A member rewritten after sealing (half-bundle) is refused.
  {
    util::io::AtomicWriter writer(ckpt + "/activities.csv");
    writer.write_line("user,type,timestamp,impact");
    writer.commit();
  }
  {
    auto service = make_service();
    const auto status = service->restore_checkpoint(ckpt);
    EXPECT_FALSE(status.ok);
    EXPECT_NE(status.error.find("activities.csv"), std::string::npos);
  }
}

TEST_F(ServiceTest, CrashMidCheckpointNeverYieldsARestorableHalfBundle) {
  const auto events = all_events();
  const char* specs[] = {
      "io.atomic.pre_commit:crash@1", "io.atomic.pre_rename:crash@2",
      "csv.row:crash@5",              "bundle.member:crash@2",
      "bundle.pre_manifest:crash@1",
  };
  for (const char* spec : specs) {
    SCOPED_TRACE(spec);
    const std::string ckpt =
        dir_ + "/ckpt_crash_" + std::to_string(&spec - specs);
    {
      auto service = make_service();
      for (const auto& event : events) service->apply(event);
      util::FaultInjector::global().configure(spec);
      EXPECT_THROW(service->save_checkpoint(ckpt), util::CrashInjected);
      EXPECT_GE(util::FaultInjector::global().fired_count(), 1u);
      util::FaultInjector::global().clear();
    }
    // Old-or-new at bundle granularity: the torn checkpoint refuses to
    // restore, and a cold replay of the full WAL still reproduces state.
    auto service = make_service();
    EXPECT_FALSE(service->restore_checkpoint(ckpt).ok);
    for (const auto& event : events) service->apply(event);
    EXPECT_EQ(service->last_applied_seq(), events.size());
  }
}

TEST_F(ServiceTest, RecordAndEvaluate) {
  // user0: dense recent ops -> active; user1: nothing -> fresh/inactive.
  for (int p = 0; p < 4; ++p) {
    for (int k = 0; k < 3; ++k) {
      service_.record(0, op_,
                      kNow - util::days(90 * p + 10 + k * 20), 100.0);
    }
  }
  const auto& ranks = service_.evaluate(kNow);
  EXPECT_TRUE(ranks[0].op.has_data);
  EXPECT_TRUE(ranks[1].fresh());
  const auto counts = service_.group_counts();
  EXPECT_EQ(counts[0] + counts[1] + counts[2] + counts[3], 4u);
}

TEST_F(ServiceTest, RecordUnregisteredTypeThrows) {
  EXPECT_THROW(service_.record(0, 99, kNow, 1.0), std::out_of_range);
}

TEST_F(ServiceTest, WeightsScaleImpacts) {
  const auto heavy = service_.register_operation_type("transfer", 10.0);
  service_.record(0, heavy, kNow - util::days(1), 2.0);
  const auto& ranks = service_.evaluate(kNow);
  // Single activity: rank 1.0 regardless of weight, but data present.
  EXPECT_TRUE(ranks[0].op.active());
}

TEST_F(ServiceTest, PurgeUsesActiveness) {
  // user0 active (dense rising ops), user1 silent.
  record_rising_user0(service_, op_);
  service_.vfs().create("/scratch/user_00000/stale", meta(0, 100, 120));
  service_.vfs().create("/scratch/user_00001/stale", meta(1, 100, 120));
  service_.vfs().set_capacity_bytes(200);

  const auto report = service_.purge(kNow);
  EXPECT_EQ(report.policy, "ActiveDR-90d");
  // Target: reach 50% of 200 = 100 bytes -> purge 100 bytes, starting from
  // the inactive user.
  EXPECT_TRUE(report.target_reached);
  EXPECT_FALSE(service_.vfs().exists("/scratch/user_00001/stale"));
  EXPECT_TRUE(service_.vfs().exists("/scratch/user_00000/stale"));
}

TEST_F(ServiceTest, ReserveProtectsFiles) {
  // The reserved file is the only purge candidate: it must survive even
  // though that leaves the 50% target unmet.
  service_.vfs().create("/scratch/user_00001/keep.dat", meta(1, 100, 500));
  service_.reserve("/scratch/user_00001/keep.dat");
  service_.vfs().set_capacity_bytes(100);
  const auto report = service_.purge(kNow);
  EXPECT_TRUE(service_.vfs().exists("/scratch/user_00001/keep.dat"));
  EXPECT_FALSE(report.target_reached);
  EXPECT_GT(report.exempted_files, 0u);
}

TEST_F(ServiceTest, IngestLogsMatchesRecord) {
  trace::JobLog jobs;
  trace::JobRecord j;
  j.user = 2;
  j.submit_time = kNow - util::days(5);
  j.duration_seconds = 3600;
  j.cores = 10;
  jobs.add(j);
  service_.ingest_jobs(jobs, op_);

  trace::PublicationLog pubs;
  trace::PublicationRecord p;
  p.published = kNow - util::days(10);
  p.citations = 3;
  p.authors = {3};
  pubs.add(p);
  service_.ingest_publications(pubs, oc_);

  const auto& ranks = service_.evaluate(kNow);
  EXPECT_TRUE(ranks[2].op.active());   // single activity -> rank 1
  EXPECT_TRUE(ranks[3].oc.active());
  EXPECT_EQ(service_.group_counts()[1], 1u);  // op-active-only
  EXPECT_EQ(service_.group_counts()[2], 1u);  // oc-active-only
}

TEST_F(ServiceTest, PurgeFltBaseline) {
  record_rising_user0(service_, op_);
  service_.vfs().create("/scratch/user_00000/old", meta(0, 100, 120));
  service_.vfs().create("/scratch/user_00000/new", meta(0, 100, 5));
  service_.vfs().set_capacity_bytes(200);
  const auto report = service_.purge(kNow, Policy::kFlt);
  EXPECT_EQ(report.policy, "FLT-90d");
  EXPECT_FALSE(service_.vfs().exists("/scratch/user_00000/old"));
  EXPECT_TRUE(service_.vfs().exists("/scratch/user_00000/new"));
  // FLT picks victims by age alone but attributes them to the evaluation
  // at `now`: the active user's purged bytes land in that user's group.
  const auto group = static_cast<std::size_t>(
      activeness::classify(service_.activeness_of(0)));
  EXPECT_NE(group,
            static_cast<std::size_t>(activeness::UserGroup::kBothInactive));
  EXPECT_EQ(report.by_group[group].purged_bytes, 100u);
}

TEST_F(ServiceTest, DryRunDeletesNothingUnderAnyPolicy) {
  // dry_run and record_victims are every policy's apply options: each
  // selects and records its victims and leaves the Vfs as it was.
  ServiceConfig config;
  config.dry_run = true;
  config.record_victims = true;
  for (const Policy policy : {Policy::kActiveDr, Policy::kFlt, Policy::kValue,
                              Policy::kScratchCache}) {
    Service service(trace::UserRegistry::with_synthetic_users(4), config);
    service.register_paper_types();
    SCOPED_TRACE(service.policy_name(policy));
    std::vector<std::string> paths;
    for (trace::UserId u = 0; u < 4; ++u) {
      paths.push_back(service.registry().home_dir(u) + "/old.dat");
      service.vfs().create(paths.back(), meta(u, 100, 500));
    }
    const auto report = service.purge(kNow, 0, policy);
    EXPECT_TRUE(report.dry_run);
    EXPECT_EQ(report.purged_files, 4u);
    std::vector<std::string> victims = report.victim_paths;
    std::sort(victims.begin(), victims.end());
    EXPECT_EQ(victims, paths);
    EXPECT_EQ(service.vfs().file_count(), 4u);
    EXPECT_EQ(service.vfs().total_bytes(), 400u);
    for (const auto& path : paths) EXPECT_TRUE(service.vfs().exists(path));
  }
}

TEST_F(ServiceTest, SnapshotLoading) {
  trace::Snapshot snap;
  trace::SnapshotEntry e;
  e.path = "/scratch/user_00002/data.h5";
  e.owner = 2;
  e.size_bytes = 42;
  e.atime = kNow - util::days(1);
  snap.add(e);
  service_.load_snapshot(snap);
  EXPECT_EQ(service_.vfs().total_bytes(), 42u);
  EXPECT_TRUE(service_.vfs().exists("/scratch/user_00002/data.h5"));
}

TEST_F(ServiceTest, EffectiveLifetimeQueries) {
  // user0 active (the calibrated rising pattern: Phi = 1.42), user1 silent.
  record_rising_user0(service_, op_);
  service_.evaluate(kNow);

  const auto active = service_.activeness_of(0);
  EXPECT_TRUE(active.op.active());
  EXPECT_GT(service_.effective_lifetime_of(0), util::days(90));
  EXPECT_NEAR(static_cast<double>(service_.effective_lifetime_of(0)),
              static_cast<double>(util::days(90)) * active.op.value(), 1e6);

  // Silent users enjoy exactly the initial lifetime.
  EXPECT_TRUE(service_.activeness_of(1).fresh());
  EXPECT_EQ(service_.effective_lifetime_of(1), util::days(90));
}

TEST_F(ServiceTest, EvaluationCachedUntilNewActivity) {
  service_.record(0, op_, kNow - util::days(1), 1.0);
  const auto& r1 = service_.evaluate(kNow);
  const auto& r2 = service_.evaluate(kNow);
  EXPECT_EQ(&r1, &r2);
  service_.record(0, op_, kNow - util::days(2), 1.0);
  const auto& r3 = service_.evaluate(kNow);
  EXPECT_TRUE(r3[0].op.has_data);
}

TEST_F(ServiceTest, IncrementalEvaluationTouchesOnlyTheDirtyUser) {
  // user0: stale history whose rank is provably pinned at zero (empty
  // newest periods, pigeonhole); users 1-3 fresh.
  service_.record(0, op_, kNow - util::days(600), 5.0);
  service_.record(0, op_, kNow - util::days(580), 5.0);
  service_.evaluate(kNow);

  const auto before = obs::MetricsRegistry::global().snapshot();
  service_.record(2, oc_, kNow + util::days(1), 3.0);
  service_.evaluate(kNow + util::days(2));
  const auto after = obs::MetricsRegistry::global().snapshot();

  // Exactly one user re-ranked — the evaluator never even looked at the
  // other three (their streams were untouched and their cached evaluation
  // is provably unchanged).
  EXPECT_EQ(after.counters.at("incremental.users_reevaluated") -
                before.counters.at("incremental.users_reevaluated"),
            1u);
  EXPECT_EQ(after.counters.at("evaluator.users_evaluated") -
                before.counters.at("evaluator.users_evaluated"),
            1u);
  EXPECT_EQ(after.counters.at("incremental.users_skipped") -
                before.counters.at("incremental.users_skipped"),
            3u);
  EXPECT_TRUE(service_.activeness_of(2).oc.has_data);
}

TEST_F(ServiceTest, DeltaAdvancesReadTheOneCopyOfTheEvaluation) {
  // Evaluate after each slice of the history, then twice more with time
  // moving and nothing new: every advance after the first is a delta that
  // patches the pipeline's plan. evaluate() returns that plan's own record
  // table, and group_counts(), activeness_of() and the plan's group table
  // agree with it after every advance.
  auto service = make_service();
  const auto events = all_events();
  const std::size_t slices = 4;
  const auto apply_slice = [&](std::size_t k) {
    const std::size_t end =
        std::min(events.size(), (k + 1) * events.size() / slices);
    for (std::size_t i = k * events.size() / slices; i < end; ++i) {
      service->apply(events[i]);
    }
  };
  const auto expect_one_copy = [&](const auto& users) {
    EXPECT_EQ(&users, &service->pipeline().users());
    ASSERT_EQ(users.size(), kUsers);
    std::array<std::size_t, activeness::kGroupCount> counted{};
    for (trace::UserId u = 0; u < users.size(); ++u) {
      SCOPED_TRACE("user " + std::to_string(u));
      const activeness::UserGroup group = activeness::classify(users[u]);
      ++counted[static_cast<std::size_t>(group)];
      EXPECT_EQ(service->pipeline().plan().group_of(u), group);
      const activeness::UserActiveness got = service->activeness_of(u);
      EXPECT_EQ(got.user, u);
      EXPECT_EQ(got.op.sort_key(), users[u].op.sort_key());
      EXPECT_EQ(got.oc.sort_key(), users[u].oc.sort_key());
      EXPECT_EQ(got.last_activity, users[u].last_activity);
    }
    EXPECT_EQ(service->group_counts(), counted);
  };
  apply_slice(0);
  expect_one_copy(service->evaluate(now_));  // the first evaluation rebuilds
  const auto before = obs::MetricsRegistry::global().snapshot();
  std::size_t patched = 0;
  for (std::size_t k = 1; k < slices + 2; ++k) {
    if (k < slices) apply_slice(k);
    expect_one_copy(service->evaluate(
        now_ + static_cast<util::Duration>(k) * util::days(3)));
    patched += service->pipeline().reevaluated().size();
  }
  const auto after = obs::MetricsRegistry::global().snapshot();
  EXPECT_EQ(after.counters.at("incremental.full_rebuilds"),
            before.counters.at("incremental.full_rebuilds"));
  EXPECT_GT(patched, 0u);
  // An id past the registry reads as a fresh account carrying that id.
  const auto past_end = static_cast<trace::UserId>(kUsers);
  const activeness::UserActiveness outside = service->activeness_of(past_end);
  EXPECT_EQ(outside.user, past_end);
  EXPECT_TRUE(outside.fresh());
}

TEST_F(ServiceTest, FullEvalModeMatchesIncremental) {
  // The service's delta pipeline against the reference schedule: a kFull
  // evaluator advanced over the service's own store at the same instants.
  const ServiceConfig& config = service_.config();
  activeness::EvaluationParams params;
  params.period_length_days = config.lifetime_days;
  params.scheme = config.scheme;
  params.stale = config.stale;
  params.max_periods = config.max_periods;
  activeness::IncrementalEvaluator full(service_.catalog(), params,
                                        activeness::EvalMode::kFull);

  record_rising_user0(service_, op_);
  for (const util::TimePoint t : {kNow, kNow + util::days(7)}) {
    service_.evaluate(t);
    full.advance(service_.store(), t);
    const auto& want = full.users();
    const auto& got = service_.pipeline().users();
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t u = 0; u < want.size(); ++u) {
      EXPECT_EQ(got[u].user, want[u].user);
      EXPECT_EQ(got[u].op.sort_key(), want[u].op.sort_key());
      EXPECT_EQ(got[u].oc.sort_key(), want[u].oc.sort_key());
      EXPECT_EQ(got[u].last_activity, want[u].last_activity);
    }
  }
}

}  // namespace
}  // namespace adr::core
