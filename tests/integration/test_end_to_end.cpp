// End-to-end integration: synthesize a Titan scenario, persist every trace
// artifact, reload, run the full FLT-vs-ActiveDR comparison, and check the
// paper's qualitative claims hold at test scale.

#include <gtest/gtest.h>

#include <cstdio>

#include "core/service.hpp"
#include "sim/experiment.hpp"

namespace adr {
namespace {

synth::TitanParams params() {
  synth::TitanParams p;
  p.users = 200;
  p.seed = 1234;
  return p;
}

class EndToEnd : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scenario_ = new synth::TitanScenario(synth::build_titan_scenario(params()));
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }
  static const synth::TitanScenario* scenario_;
};

const synth::TitanScenario* EndToEnd::scenario_ = nullptr;

TEST_F(EndToEnd, TracePersistenceRoundTrip) {
  const std::string dir = ::testing::TempDir();
  const std::string jobs_csv = dir + "/e2e_jobs.csv";
  const std::string pubs_csv = dir + "/e2e_pubs.csv";
  const std::string app_csv = dir + "/e2e_app.csv";
  const std::string snap_csv = dir + "/e2e_snap.csv";
  const std::string users_csv = dir + "/e2e_users.csv";

  scenario_->jobs.save_csv(jobs_csv);
  scenario_->pubs.save_csv(pubs_csv);
  scenario_->replay.save_csv(app_csv);
  scenario_->snapshot.save_csv(snap_csv);
  scenario_->registry.save_csv(users_csv);

  EXPECT_EQ(trace::JobLog::load_csv(jobs_csv).size(), scenario_->jobs.size());
  EXPECT_EQ(trace::PublicationLog::load_csv(pubs_csv).size(),
            scenario_->pubs.size());
  EXPECT_EQ(trace::AppLog::load_csv(app_csv).size(), scenario_->replay.size());
  const auto snap = trace::Snapshot::load_csv(snap_csv);
  EXPECT_EQ(snap.size(), scenario_->snapshot.size());
  EXPECT_EQ(snap.total_bytes(), scenario_->snapshot.total_bytes());
  EXPECT_EQ(trace::UserRegistry::load_csv(users_csv).size(),
            scenario_->registry.size());

  for (const auto& f : {jobs_csv, pubs_csv, app_csv, snap_csv, users_csv}) {
    std::remove(f.c_str());
  }
}

TEST_F(EndToEnd, PaperQualitativeClaimsAtTestScale) {
  sim::ExperimentConfig config;  // paper defaults: 90d, 7d trigger, 50%
  const sim::ComparisonResult result = sim::run_comparison(*scenario_, config);

  // 1. Both runs replayed the same accesses.
  EXPECT_EQ(result.flt.total_accesses, result.activedr.total_accesses);
  EXPECT_GT(result.flt.total_accesses, 0u);

  // 2. ActiveDR reduces (or at worst matches) total file misses.
  EXPECT_LE(result.activedr.total_misses, result.flt.total_misses);

  // 3. The both-active group loses no more files under ActiveDR than FLT.
  const auto ba = static_cast<std::size_t>(activeness::UserGroup::kBothActive);
  EXPECT_LE(result.activedr.groups[ba].unique_affected_users,
            result.flt.groups[ba].unique_affected_users);

  // 4. ActiveDR retains at least as much data for both-active users.
  EXPECT_GE(result.activedr.groups[ba].retained_bytes,
            result.flt.groups[ba].retained_bytes);

  // 5. Population is heavily skewed toward inactivity (Fig. 5's shape).
  const auto bi =
      static_cast<std::size_t>(activeness::UserGroup::kBothInactive);
  EXPECT_GT(result.final_group_counts[bi] * 10,
            scenario_->registry.size() * 7);
}

TEST_F(EndToEnd, ServiceConsumesScenarioTraces) {
  // Drive the public Service API with the synthesized traces — the
  // quickstart path a site operator would follow.
  core::Service service(scenario_->registry, core::ServiceConfig{});
  const auto op = service.register_operation_type("job_submission");
  const auto oc = service.register_outcome_type("publication");
  service.ingest_jobs(scenario_->jobs, op);
  service.ingest_publications(scenario_->pubs, oc);
  service.load_snapshot(scenario_->snapshot);

  const auto& ranks = service.evaluate(scenario_->sim_begin);
  EXPECT_EQ(ranks.size(), scenario_->registry.size());

  const auto before = service.vfs().total_bytes();
  const auto report = service.purge(scenario_->sim_begin);
  EXPECT_TRUE(report.target_reached);
  EXPECT_LE(service.vfs().total_bytes(), before / 2 + 1);
  // Purge order honoured: if any files were purged, inactive users bear
  // the brunt.
  const auto& groups = report.by_group;
  const auto bi = static_cast<std::size_t>(activeness::UserGroup::kBothInactive);
  std::uint64_t total_purged = 0;
  for (const auto& g : groups) total_purged += g.purged_bytes;
  EXPECT_GT(groups[bi].purged_bytes * 2, total_purged)
      << "both-inactive users should dominate the purge volume";
}

}  // namespace
}  // namespace adr
