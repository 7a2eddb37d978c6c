#include "retention/activedr_policy.hpp"

#include <gtest/gtest.h>

#include "retention/flt.hpp"
#include "retention/policy.hpp"
#include "trace/user_registry.hpp"

namespace adr::retention {
namespace {

using activeness::Rank;
using activeness::ScanPlan;
using activeness::UserActiveness;
using activeness::UserGroup;

constexpr util::TimePoint kNow = 1'600'000'000;

fs::FileMeta meta(trace::UserId owner, std::uint64_t size, double age_days) {
  fs::FileMeta m;
  m.owner = owner;
  m.size_bytes = size;
  m.atime = kNow - static_cast<util::Duration>(age_days * 86400);
  m.ctime = m.atime;
  return m;
}

UserActiveness ua(trace::UserId user, double op, double oc) {
  UserActiveness u;
  u.user = user;
  u.op = Rank::from_value(op);
  u.oc = Rank::from_value(oc);
  return u;
}

/// Fixture: 4 users, one per activeness group, each owning files of
/// controlled ages under /scratch/user_0000N.
class ActiveDrTest : public ::testing::Test {
 protected:
  ActiveDrTest() : registry_(trace::UserRegistry::with_synthetic_users(4)) {}

  ScanPlan plan(std::vector<UserActiveness> users) {
    return activeness::build_scan_plan(std::move(users));
  }

  std::string file(trace::UserId u, const std::string& leaf) {
    return registry_.home_dir(u) + "/" + leaf;
  }

  trace::UserRegistry registry_;
  fs::Vfs vfs_;
};

TEST_F(ActiveDrTest, NoTargetPurgesExpiredPerAdjustedLifetime) {
  // user0: both-active with rank 2 -> lifetime 180d; user3: inactive -> 90d.
  vfs_.create(file(0, "old_150d"), meta(0, 10, 150));   // kept (eps 180)
  vfs_.create(file(0, "old_200d"), meta(0, 10, 200));   // purged
  vfs_.create(file(3, "old_150d"), meta(3, 10, 150));   // purged (eps 90)
  vfs_.create(file(3, "old_80d"), meta(3, 10, 80));     // kept

  ActiveDrConfig config;
  config.initial_lifetime_days = 90;
  const ActiveDrPolicy policy(config);
  const PurgeReport report = policy.run(
      vfs_, kNow, 0, plan({ua(0, 2.0, 1.0), ua(3, 0.0, 0.0)}));

  EXPECT_TRUE(vfs_.exists(file(0, "old_150d")));
  EXPECT_FALSE(vfs_.exists(file(0, "old_200d")));
  EXPECT_FALSE(vfs_.exists(file(3, "old_150d")));
  EXPECT_TRUE(vfs_.exists(file(3, "old_80d")));
  EXPECT_EQ(report.purged_files, 2u);
  EXPECT_EQ(report.retrospective_passes_used, 0);  // no target, single pass
}

TEST_F(ActiveDrTest, ScansInactiveUsersFirst) {
  // All files same age/size; the byte target only covers one file, so the
  // inactive user's file must be the casualty.
  vfs_.create(file(0, "f"), meta(0, 100, 120));  // both-active
  vfs_.create(file(3, "f"), meta(3, 100, 120));  // both-inactive
  const ActiveDrPolicy policy(ActiveDrConfig{});
  const PurgeReport report =
      policy.run(vfs_, kNow, 100, plan({ua(0, 5.0, 5.0), ua(3, 0.0, 0.0)}));
  EXPECT_TRUE(report.target_reached);
  EXPECT_TRUE(vfs_.exists(file(0, "f")));
  EXPECT_FALSE(vfs_.exists(file(3, "f")));
  EXPECT_EQ(report.group(UserGroup::kBothInactive).purged_files, 1u);
  EXPECT_EQ(report.group(UserGroup::kBothActive).purged_files, 0u);
}

TEST_F(ActiveDrTest, AscendingRankWithinGroup) {
  // Two inactive users; the lower-ranked one is scanned (and purged) first.
  vfs_.create(file(2, "f"), meta(2, 100, 120));
  vfs_.create(file(3, "f"), meta(3, 100, 120));
  const ActiveDrPolicy policy(ActiveDrConfig{});
  // user3 rank 0 < user2 rank 0.5 -> user3 purged first.
  const PurgeReport report = policy.run(
      vfs_, kNow, 100, plan({ua(2, 0.5, 0.5), ua(3, 0.0, 0.0)}));
  EXPECT_TRUE(report.target_reached);
  EXPECT_FALSE(vfs_.exists(file(3, "f")));
  EXPECT_TRUE(vfs_.exists(file(2, "f")));
}

TEST_F(ActiveDrTest, RetrospectivePassesDecayLifetimes) {
  // Inactive user's file at 50 days: survives the normal 90d pass; decayed
  // passes (90 * 0.8^k) cross below 50d at k=3 (46.08d).
  vfs_.create(file(3, "f"), meta(3, 100, 50));
  const ActiveDrPolicy policy(ActiveDrConfig{});
  const PurgeReport report =
      policy.run(vfs_, kNow, 100, plan({ua(3, 0.0, 0.0)}));
  EXPECT_TRUE(report.target_reached);
  EXPECT_FALSE(vfs_.exists(file(3, "f")));
  EXPECT_GE(report.retrospective_passes_used, 3);
}

TEST_F(ActiveDrTest, RetrospectiveDecayContinuesPastBottomedOutUsers) {
  // Regression: the early-exit after a fruitless decayed pass must check
  // the whole group's lifetimes, not only the lowest-ranked user's. Here
  // user3 (rank 0 under literal Eq. 7 with no multiplier floor) bottoms
  // out at lifetime 0 immediately and sorts first in the group; user2's
  // 60d lifetime still has decay room and crosses the file's 35d age at
  // pass 3 (60 * 0.8^3 = 30.72d). Probing only the front user would stop
  // the whole group's decay after the first fruitless pass.
  vfs_.create(file(2, "f"), meta(2, 100, 35));
  ActiveDrConfig config;
  config.initial_lifetime_days = 100;
  config.lifetime_mode = activeness::LifetimeMode::kLiteralEq7;
  config.min_multiplier = 0.0;
  const ActiveDrPolicy policy(config);
  UserActiveness weak;  // op 0.6, oc no-data (neutral) -> multiplier 0.6
  weak.user = 2;
  weak.op = Rank::from_value(0.6);
  const PurgeReport report =
      policy.run(vfs_, kNow, 100, plan({ua(3, 0.0, 0.0), weak}));
  EXPECT_TRUE(report.target_reached);
  EXPECT_FALSE(vfs_.exists(file(2, "f")));
  EXPECT_GE(report.retrospective_passes_used, 3);
}

TEST_F(ActiveDrTest, PhaseTimingsAccumulatePerPass) {
  vfs_.create(file(3, "old"), meta(3, 100, 200));
  const ActiveDrPolicy policy(ActiveDrConfig{});
  const PurgeReport report =
      policy.run(vfs_, kNow, 0, plan({ua(3, 0.0, 0.0)}));
  EXPECT_EQ(report.purged_files, 1u);
  // Wall clocks are coarse but both phases ran, so both timers advanced.
  EXPECT_GT(report.phases.scan_seconds, 0.0);
  EXPECT_GT(report.phases.apply_seconds, 0.0);
  EXPECT_GT(report.phases.total_seconds(), 0.0);
}

TEST_F(ActiveDrTest, TargetUnreachableReported) {
  // A single very fresh file: even 5 decayed passes (min 90*0.33 = 29.5d)
  // cannot free it.
  vfs_.create(file(3, "f"), meta(3, 100, 10));
  const ActiveDrPolicy policy(ActiveDrConfig{});
  const PurgeReport report =
      policy.run(vfs_, kNow, 100, plan({ua(3, 0.0, 0.0)}));
  EXPECT_FALSE(report.target_reached);
  EXPECT_TRUE(vfs_.exists(file(3, "f")));
  EXPECT_EQ(report.purged_files, 0u);
}

TEST_F(ActiveDrTest, EffectiveLifetimeFormula) {
  ActiveDrConfig config;
  config.initial_lifetime_days = 100;
  config.retrospective_decay = 0.2;
  const ActiveDrPolicy policy(config);
  const UserActiveness active = ua(0, 3.0, 2.0);
  // Eq. 7: 100d * 3 * 2 = 600d.
  EXPECT_EQ(policy.effective_lifetime(active, 0), util::days(600));
  // Pass 1 decays by 20%.
  EXPECT_EQ(policy.effective_lifetime(active, 1),
            static_cast<util::Duration>(util::days(600) * 0.8));
  // Inactive user in default mode: initial lifetime.
  EXPECT_EQ(policy.effective_lifetime(ua(3, 0.0, 0.0), 0), util::days(100));
}

TEST_F(ActiveDrTest, LiteralEq7ModeShrinksInactiveLifetimes) {
  ActiveDrConfig config;
  config.lifetime_mode = activeness::LifetimeMode::kLiteralEq7;
  const ActiveDrPolicy policy(config);
  // op = 0.5 with outcome no-data (neutral 1.0): eps = 90 * 0.5 = 45 days.
  UserActiveness half;
  half.user = 3;
  half.op = Rank::from_value(0.5);
  EXPECT_EQ(policy.effective_lifetime(half, 0), util::days(45));
}

TEST_F(ActiveDrTest, ExemptFilesAreNeverPurged) {
  vfs_.create(file(3, "keep/precious.dat"), meta(3, 100, 500));
  vfs_.create(file(3, "junk.dat"), meta(3, 100, 500));
  ActiveDrConfig config;
  ActiveDrPolicy policy(config);
  ExemptionList exemptions;
  exemptions.reserve(file(3, "keep"));
  policy.set_exemptions(exemptions);
  const PurgeReport report =
      policy.run(vfs_, kNow, 0, plan({ua(3, 0.0, 0.0)}));
  EXPECT_TRUE(vfs_.exists(file(3, "keep/precious.dat")));
  EXPECT_FALSE(vfs_.exists(file(3, "junk.dat")));
  EXPECT_GE(report.exempted_files, 1u);
}

TEST_F(ActiveDrTest, StopsExactlyAtTargetAcrossUsers) {
  for (int i = 0; i < 5; ++i) {
    vfs_.create(file(3, "f" + std::to_string(i)), meta(3, 100, 200));
  }
  const ActiveDrPolicy policy(ActiveDrConfig{});
  const PurgeReport report =
      policy.run(vfs_, kNow, 250, plan({ua(3, 0.0, 0.0)}));
  EXPECT_TRUE(report.target_reached);
  EXPECT_EQ(report.purged_files, 3u);
  EXPECT_EQ(vfs_.file_count(), 2u);
}

TEST_F(ActiveDrTest, ActiveUserRewardedOverFlt) {
  // Head-to-head with FLT at the same target: the active user's stale file
  // survives under ActiveDR but dies under FLT's path-order scan.
  auto build = [&](fs::Vfs& v) {
    v.create(file(0, "stale_120d"), meta(0, 100, 120));  // active user
    v.create(file(3, "stale_120d"), meta(3, 100, 120));  // inactive user
  };
  fs::Vfs flt_vfs, adr_vfs;
  build(flt_vfs);
  build(adr_vfs);

  const ScanPlan both = plan({ua(0, 4.0, 4.0), ua(3, 0.0, 0.0)});
  const FltPolicy flt(FltConfig{90});
  flt.run(flt_vfs, kNow, 100, both);
  // FLT scans in path order: user_00000 comes first and is purged.
  EXPECT_FALSE(flt_vfs.exists(file(0, "stale_120d")));

  const ActiveDrPolicy adr(ActiveDrConfig{});
  adr.run(adr_vfs, kNow, 100, both);
  EXPECT_TRUE(adr_vfs.exists(file(0, "stale_120d")));
  EXPECT_FALSE(adr_vfs.exists(file(3, "stale_120d")));
}

TEST_F(ActiveDrTest, ReportAccounting) {
  vfs_.create(file(1, "a"), meta(1, 10, 200));
  vfs_.create(file(1, "b"), meta(1, 30, 200));
  vfs_.create(file(2, "c"), meta(2, 50, 10));
  const ActiveDrPolicy policy(ActiveDrConfig{});
  const PurgeReport report = policy.run(
      vfs_, kNow, 0, plan({ua(1, 2.0, 0.0), ua(2, 0.0, 2.0)}));
  // user1 (op rank 2): eps = 180d < 200d age -> both files purged.
  const auto& op_only = report.group(UserGroup::kOperationActiveOnly);
  EXPECT_EQ(op_only.purged_bytes, 40u);
  EXPECT_EQ(report.purged_files, 2u);
  EXPECT_EQ(op_only.purged_files, 2u);
  EXPECT_EQ(op_only.users_affected, 1u);
  EXPECT_EQ(report.group(UserGroup::kOutcomeActiveOnly).retained_bytes, 50u);
  EXPECT_EQ(report.policy, "ActiveDR-90d");
}

TEST_F(ActiveDrTest, DryRunSelectsWithoutDeleting) {
  vfs_.create(file(3, "old1"), meta(3, 100, 200));
  vfs_.create(file(3, "old2"), meta(3, 100, 200));
  vfs_.create(file(3, "fresh"), meta(3, 100, 1));
  const ActiveDrPolicy policy(ActiveDrConfig{});
  const PurgeReport report = policy.run(vfs_, kNow, 150,
                                        plan({ua(3, 0.0, 0.0)}),
                                        {.dry_run = true});

  EXPECT_TRUE(report.dry_run);
  EXPECT_TRUE(report.target_reached);
  EXPECT_EQ(report.purged_files, 2u);
  EXPECT_EQ(report.victim_paths.size(), 2u);
  // Nothing actually deleted.
  EXPECT_EQ(vfs_.file_count(), 3u);
  EXPECT_TRUE(vfs_.exists(file(3, "old1")));

  // A real run selects exactly the same victims.
  const PurgeReport real = policy.run(vfs_, kNow, 150, plan({ua(3, 0.0, 0.0)}),
                                      {.record_victims = true});
  EXPECT_EQ(real.victim_paths, report.victim_paths);
  EXPECT_EQ(vfs_.file_count(), 1u);
}

TEST_F(ActiveDrTest, DryRunRetrospectivePassesDoNotDoubleCount) {
  // A file eligible at pass 0 is re-seen by every decayed pass; the dry run
  // must count it once.
  vfs_.create(file(3, "old"), meta(3, 100, 500));
  const ActiveDrPolicy policy(ActiveDrConfig{});
  const PurgeReport report = policy.run(vfs_, kNow, 10'000,
                                        plan({ua(3, 0.0, 0.0)}),
                                        {.dry_run = true});
  EXPECT_EQ(report.purged_files, 1u);
  EXPECT_FALSE(report.target_reached);
}

}  // namespace
}  // namespace adr::retention
