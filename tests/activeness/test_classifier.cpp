#include "activeness/classifier.hpp"

#include <gtest/gtest.h>

#include <utility>

namespace adr::activeness {
namespace {

UserActiveness ua(trace::UserId user, double op, double oc) {
  UserActiveness u;
  u.user = user;
  u.op = Rank::from_value(op);
  u.oc = Rank::from_value(oc);
  return u;
}

TEST(Classify, FourQuadrants) {
  EXPECT_EQ(classify(ua(0, 2.0, 3.0)), UserGroup::kBothActive);
  EXPECT_EQ(classify(ua(0, 2.0, 0.5)), UserGroup::kOperationActiveOnly);
  EXPECT_EQ(classify(ua(0, 0.5, 2.0)), UserGroup::kOutcomeActiveOnly);
  EXPECT_EQ(classify(ua(0, 0.5, 0.5)), UserGroup::kBothInactive);
}

TEST(Classify, ThresholdIsExactlyOne) {
  EXPECT_EQ(classify(ua(0, 1.0, 1.0)), UserGroup::kBothActive);
  EXPECT_EQ(classify(ua(0, 0.999999, 1.0)), UserGroup::kOutcomeActiveOnly);
}

TEST(Classify, FreshUserIsBothInactive) {
  UserActiveness fresh;
  fresh.user = 3;
  EXPECT_TRUE(fresh.fresh());
  EXPECT_EQ(classify(fresh), UserGroup::kBothInactive);
}

TEST(Classify, ZeroRanksAreInactive) {
  EXPECT_EQ(classify(ua(0, 0.0, 0.0)), UserGroup::kBothInactive);
}

TEST(GroupName, AllNamed) {
  EXPECT_STREQ(group_name(UserGroup::kBothActive), "Both Active");
  EXPECT_STREQ(group_name(UserGroup::kBothInactive), "Both Inactive");
  EXPECT_STREQ(group_name(UserGroup::kOperationActiveOnly),
               "Operation Active Only");
  EXPECT_STREQ(group_name(UserGroup::kOutcomeActiveOnly),
               "Outcome Active Only");
}

TEST(ScanOrder, AscendingActiveness) {
  EXPECT_EQ(kScanOrder[0], UserGroup::kBothInactive);
  EXPECT_EQ(kScanOrder[1], UserGroup::kOutcomeActiveOnly);
  EXPECT_EQ(kScanOrder[2], UserGroup::kOperationActiveOnly);
  EXPECT_EQ(kScanOrder[3], UserGroup::kBothActive);
}

TEST(ScanPlan, BucketsAndCounts) {
  const std::vector<UserActiveness> users{
      ua(0, 2, 2), ua(1, 2, 0.5), ua(2, 0.5, 2), ua(3, 0.1, 0.1),
      ua(4, 0.2, 0.2),
  };
  const ScanPlan plan = build_scan_plan(users);
  EXPECT_EQ(plan.group(UserGroup::kBothActive).size(), 1u);
  EXPECT_EQ(plan.group(UserGroup::kOperationActiveOnly).size(), 1u);
  EXPECT_EQ(plan.group(UserGroup::kOutcomeActiveOnly).size(), 1u);
  EXPECT_EQ(plan.group(UserGroup::kBothInactive).size(), 2u);
  EXPECT_EQ(plan.total_users(), 5u);
}

TEST(ScanPlan, BothInactiveSortedByOpThenOc) {
  const std::vector<UserActiveness> users{
      ua(0, 0.5, 0.1), ua(1, 0.2, 0.9), ua(2, 0.2, 0.3),
  };
  const ScanPlan plan = build_scan_plan(users);
  const auto& g = plan.group(UserGroup::kBothInactive);
  ASSERT_EQ(g.size(), 3u);
  EXPECT_EQ(g[0].user, 2u);  // op 0.2, oc 0.3
  EXPECT_EQ(g[1].user, 1u);  // op 0.2, oc 0.9
  EXPECT_EQ(g[2].user, 0u);  // op 0.5
}

TEST(ScanPlan, OperationActiveSortedByOutcomeFirst) {
  // §3.4: the operation-active groups are visited in ascending *outcome*
  // activeness.
  const std::vector<UserActiveness> users{
      ua(0, 9.0, 0.8), ua(1, 2.0, 0.1), ua(2, 5.0, 0.5),
  };
  const ScanPlan plan = build_scan_plan(users);
  const auto& g = plan.group(UserGroup::kOperationActiveOnly);
  ASSERT_EQ(g.size(), 3u);
  EXPECT_EQ(g[0].user, 1u);
  EXPECT_EQ(g[1].user, 2u);
  EXPECT_EQ(g[2].user, 0u);
}

TEST(ScanPlan, TiesBrokenByUserId) {
  const std::vector<UserActiveness> users{
      ua(5, 0.5, 0.5), ua(1, 0.5, 0.5), ua(3, 0.5, 0.5),
  };
  const ScanPlan plan = build_scan_plan(users);
  const auto& g = plan.group(UserGroup::kBothInactive);
  EXPECT_EQ(g[0].user, 1u);
  EXPECT_EQ(g[1].user, 3u);
  EXPECT_EQ(g[2].user, 5u);
}

TEST(ScanPlan, OwnsItsRecords) {
  // The groups hold keys and at(key) reads the plan's own record table, so
  // a plan built from a temporary, and every copy or move of it, reads the
  // right record after its source is gone.
  const auto expect_reads = [](const ScanPlan& plan) {
    ASSERT_EQ(plan.total_users(), 3u);
    for (std::size_t g = 0; g < kGroupCount; ++g) {
      for (const ScanKey& k : plan.groups[g]) {
        EXPECT_EQ(plan.at(k).user, k.user);
        EXPECT_EQ(classify(plan.at(k)), static_cast<UserGroup>(g));
        EXPECT_EQ(scan_key(static_cast<UserGroup>(g), plan.at(k), k.index), k);
      }
    }
    EXPECT_EQ(plan.at(plan.group(UserGroup::kBothActive)[0]).user, 7u);
    EXPECT_EQ(plan.at(plan.group(UserGroup::kOperationActiveOnly)[0]).user,
              5u);
    EXPECT_EQ(plan.at(plan.group(UserGroup::kBothInactive)[0]).user, 3u);
  };
  ScanPlan copy;
  ScanPlan moved;
  {
    ScanPlan built =
        build_scan_plan({ua(7, 2, 2), ua(3, 0.1, 0.2), ua(5, 2, 0.5)});
    expect_reads(built);
    copy = built;
    moved = std::move(built);
  }
  expect_reads(copy);
  expect_reads(moved);
  copy.users[0].last_activity = 99;  // a copy's table is its own
  EXPECT_NE(moved.users[0].last_activity, 99);
}

TEST(ScanPlan, GroupOfReadsTheTableByUserId) {
  // Records with gaps in their ids, out of slot order: group_of answers by
  // user id, not by slot, and a fresh account's group for every id no
  // record carries, past the table's end included.
  const ScanPlan plan = build_scan_plan(
      {ua(9, 2, 2), ua(2, 2, 0.5), ua(6, 0.5, 2), ua(4, 0.1, 0.1)});
  EXPECT_EQ(plan.group_of(9), UserGroup::kBothActive);
  EXPECT_EQ(plan.group_of(2), UserGroup::kOperationActiveOnly);
  EXPECT_EQ(plan.group_of(6), UserGroup::kOutcomeActiveOnly);
  EXPECT_EQ(plan.group_of(4), UserGroup::kBothInactive);
  for (const trace::UserId absent : {0u, 1u, 3u, 5u, 7u, 8u}) {
    EXPECT_EQ(plan.group_of(absent), UserGroup::kBothInactive) << absent;
  }
  EXPECT_EQ(plan.group_of(10), UserGroup::kBothInactive);
  EXPECT_EQ(plan.group_of(trace::kInvalidUser), UserGroup::kBothInactive);
  EXPECT_EQ(ScanPlan{}.group_of(0), UserGroup::kBothInactive);
}

TEST(LifetimeMultiplier, ActiveCategoriesOnlyMode) {
  const auto mode = LifetimeMode::kActiveCategoriesOnly;
  // Both active: product of both ranks.
  EXPECT_NEAR(lifetime_multiplier(ua(0, 2.0, 3.0), mode), 6.0, 1e-9);
  // Inactive categories contribute a neutral 1.0.
  EXPECT_NEAR(lifetime_multiplier(ua(0, 2.0, 0.2), mode), 2.0, 1e-9);
  EXPECT_NEAR(lifetime_multiplier(ua(0, 0.0, 5.0), mode), 5.0, 1e-9);
  // Both inactive: the initial lifetime (multiplier 1).
  EXPECT_NEAR(lifetime_multiplier(ua(0, 0.3, 0.0), mode), 1.0, 1e-9);
}

TEST(LifetimeMultiplier, LiteralEq7Mode) {
  const auto mode = LifetimeMode::kLiteralEq7;
  EXPECT_NEAR(lifetime_multiplier(ua(0, 2.0, 3.0), mode), 6.0, 1e-9);
  // Sub-unit ranks shrink the lifetime.
  EXPECT_NEAR(lifetime_multiplier(ua(0, 2.0, 0.2), mode), 0.4, 1e-9);
  // Zero ranks bottom out at the floor.
  EXPECT_NEAR(lifetime_multiplier(ua(0, 0.0, 0.0), mode, 1e-3, 1e6), 1e-3,
              1e-12);
}

TEST(LifetimeMultiplier, FreshUserGetsInitialLifetimeInBothModes) {
  UserActiveness fresh;
  fresh.user = 0;
  for (auto mode :
       {LifetimeMode::kActiveCategoriesOnly, LifetimeMode::kLiteralEq7}) {
    EXPECT_NEAR(lifetime_multiplier(fresh, mode), 1.0, 1e-9);
  }
}

TEST(LifetimeMultiplier, ClampedToMax) {
  EXPECT_NEAR(lifetime_multiplier(ua(0, 1e9, 1e9),
                                  LifetimeMode::kActiveCategoriesOnly, 1e-3,
                                  1e6),
              1e6, 1e-3);
}

}  // namespace
}  // namespace adr::activeness
