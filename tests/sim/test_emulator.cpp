#include "sim/emulator.hpp"

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "sim/experiment.hpp"

namespace adr::sim {
namespace {

synth::TitanParams tiny_params() {
  synth::TitanParams p;
  p.users = 120;
  p.seed = 21;
  return p;
}

class EmulatorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scenario_ = new synth::TitanScenario(
        synth::build_titan_scenario(tiny_params()));
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }
  static const synth::TitanScenario* scenario_;
};

const synth::TitanScenario* EmulatorTest::scenario_ = nullptr;

TEST_F(EmulatorTest, StrictFltReplayProducesMisses) {
  ExperimentConfig config;
  config.lifetime_days = 90;
  const EmulationResult r = run_flt_strict(*scenario_, config);
  EXPECT_GT(r.total_accesses, 0u);
  EXPECT_GT(r.total_misses, 0u);
  EXPECT_LT(r.total_misses, r.total_accesses);
  EXPECT_EQ(r.daily.size(), 366u);
  EXPECT_FALSE(r.purges.empty());
  // ~52 weekly triggers in a year.
  EXPECT_GE(r.purges.size(), 50u);
  EXPECT_LE(r.purges.size(), 53u);
}

TEST_F(EmulatorTest, ComparisonSharesClassifications) {
  ExperimentConfig config;
  const ComparisonResult result = run_comparison(*scenario_, config);
  std::size_t total = 0;
  for (const auto n : result.final_group_counts) total += n;
  EXPECT_EQ(total, scenario_->registry.size());
  // The inactive group dominates (Fig. 5's skew).
  EXPECT_GT(result.final_group_counts[static_cast<std::size_t>(
                activeness::UserGroup::kBothInactive)],
            scenario_->registry.size() / 2);
  EXPECT_EQ(result.flt.daily.size(), result.activedr.daily.size());
}

TEST_F(EmulatorTest, PurgeTargetHoldsUtilization) {
  ExperimentConfig config;
  config.purge_target_utilization = 0.5;
  const EmulationResult r = run_activedr(*scenario_, config);
  // After the year of weekly purges, usage must sit at/below ~50% of
  // capacity plus whatever was created since the last trigger.
  const double util =
      static_cast<double>(r.final_bytes) /
      static_cast<double>(scenario_->capacity_bytes);
  EXPECT_LT(util, 0.75);
  for (const auto& report : r.purges) {
    if (report.target_purge_bytes > 0 && report.target_reached) {
      EXPECT_GE(report.purged_bytes, report.target_purge_bytes);
    }
  }
}

TEST_F(EmulatorTest, AggregatesAreConsistent) {
  ExperimentConfig config;
  const EmulationResult r = run_activedr(*scenario_, config);
  std::uint64_t purged_from_groups = 0;
  std::uint64_t purged_from_reports = 0;
  for (const auto& g : r.groups) purged_from_groups += g.purged_bytes;
  for (const auto& report : r.purges) purged_from_reports += report.purged_bytes;
  EXPECT_EQ(purged_from_groups, purged_from_reports);

  std::uint64_t retained = 0;
  for (const auto& g : r.groups) retained += g.retained_bytes;
  EXPECT_EQ(retained, r.final_bytes);

  std::size_t users = 0;
  for (const auto& g : r.groups) users += g.users_in_group;
  EXPECT_EQ(users, scenario_->registry.size());
}

TEST_F(EmulatorTest, DeterministicAcrossRuns) {
  ExperimentConfig config;
  const EmulationResult a = run_activedr(*scenario_, config);
  const EmulationResult b = run_activedr(*scenario_, config);
  EXPECT_EQ(a.total_misses, b.total_misses);
  EXPECT_EQ(a.final_bytes, b.final_bytes);
  EXPECT_EQ(a.purges.size(), b.purges.size());
}

TEST_F(EmulatorTest, AuditModeFindsIndexConsistentAllYear) {
  // audit_purge_index cross-verifies the purge index against the file table
  // after every trigger; a year of replay with ~52 purges must log zero
  // failures.
  core::Service service(scenario_->registry, core::ServiceConfig{});
  load_scenario(service, *scenario_);
  EmulatorConfig config;
  config.audit_purge_index = true;
  obs::Counter& failures =
      obs::MetricsRegistry::global().counter("purge_index.audit_failures");
  const std::uint64_t before = failures.value();
  const EmulationResult r =
      replay(*scenario_, service, core::Policy::kActiveDr, config);
  EXPECT_FALSE(r.purges.empty());
  EXPECT_EQ(failures.value(), before);
}

TEST_F(EmulatorTest, ActiveDrAttributionDoesNotDependOnTheFltRun) {
  // This scenario skips 10 of ActiveDR's 52 triggers (usage already below
  // the target). Every trigger instant is still evaluated, so each access
  // lands in the same group whether ActiveDR runs alone or after FLT.
  ExperimentConfig config;
  const EmulationResult alone = run_activedr(*scenario_, config);
  ASSERT_LT(alone.purges.size(), 52u) << "the case needs skipped triggers";
  const ComparisonResult both = run_comparison(*scenario_, config);
  ASSERT_EQ(alone.daily.size(), both.activedr.daily.size());
  for (std::size_t d = 0; d < alone.daily.size(); ++d) {
    SCOPED_TRACE(d);
    EXPECT_EQ(alone.daily[d].misses_by_group,
              both.activedr.daily[d].misses_by_group);
    EXPECT_EQ(alone.daily[d].accesses_by_group,
              both.activedr.daily[d].accesses_by_group);
  }
}

TEST_F(EmulatorTest, ActiveDrReducesMissesForActiveUsers) {
  // The headline claim, at test scale: ActiveDR must not miss *more* than
  // FLT overall for the active groups combined.
  ExperimentConfig config;
  const ComparisonResult result = run_comparison(*scenario_, config);
  auto active_misses = [](const EmulationResult& r) {
    std::size_t n = 0;
    for (const auto& d : r.daily) {
      n += d.misses_by_group[0] + d.misses_by_group[1] + d.misses_by_group[2];
    }
    return n;
  };
  EXPECT_LE(active_misses(result.activedr), active_misses(result.flt));
}

}  // namespace
}  // namespace adr::sim
