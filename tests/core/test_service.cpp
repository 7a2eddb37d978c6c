#include "core/service.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "trace/event_log.hpp"
#include "util/bundle.hpp"
#include "util/fault.hpp"
#include "util/io.hpp"
#include "util/time.hpp"

namespace adr::core {
namespace {

namespace fsys = std::filesystem;

constexpr util::TimePoint kBase = 1'600'000'000;
constexpr std::size_t kUsers = 8;

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
    service->ranks().save_csv(ranks_path);
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
  twice_service->ranks().save_csv(ranks_path);
  EXPECT_EQ(slurp(ranks_path), once.first);
  EXPECT_EQ(report.victim_paths, once.second);
}

TEST_F(ServiceTest, WalReplayMatchesDirectRecordIngest) {
  // Feed the same history through record()/vfs calls directly (the bulk
  // path Engine users take) and through WAL apply; ranks must match
  // byte-for-byte.
  auto direct = make_service();
  for (const auto& event : make_history()) {
    trace::Event copy = event;
    copy.seq = 0;  // direct events carry no WAL seq
    direct->apply(copy);
  }
  const auto direct_report = direct->purge(now_, 0);
  const std::string direct_ranks = dir_ + "/ranks_direct.csv";
  direct->ranks().save_csv(direct_ranks);

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
  second->ranks().save_csv(ranks_path);

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

}  // namespace
}  // namespace adr::core
