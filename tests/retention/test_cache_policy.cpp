#include "retention/cache_policy.hpp"

#include <gtest/gtest.h>

#include "group_plan.hpp"

namespace adr::retention {
namespace {

constexpr util::TimePoint kNow = 1'600'000'000;
const activeness::ScanPlan kNoGroups;

fs::FileMeta meta(trace::UserId owner, std::uint64_t size, double age_days) {
  fs::FileMeta m;
  m.owner = owner;
  m.size_bytes = size;
  m.atime = kNow - static_cast<util::Duration>(age_days * 86400);
  m.ctime = m.atime;
  return m;
}

TEST(ScratchCache, EvictsEverythingBeyondHorizon) {
  fs::Vfs vfs;
  vfs.create("/s/u0/in_use", meta(0, 100, 1));
  vfs.create("/s/u0/idle_3d", meta(0, 100, 3));
  vfs.create("/s/u0/idle_90d", meta(0, 100, 90));
  const ScratchCachePolicy policy(ScratchCacheConfig{2});
  const PurgeReport report = policy.run(vfs, kNow, 0, kNoGroups);
  EXPECT_EQ(report.purged_files, 2u);
  EXPECT_TRUE(vfs.exists("/s/u0/in_use"));
  EXPECT_FALSE(vfs.exists("/s/u0/idle_3d"));
  EXPECT_FALSE(vfs.exists("/s/u0/idle_90d"));
}

TEST(ScratchCache, IgnoresByteTargets) {
  // A cache holds exactly the working set — a generous target changes
  // nothing.
  fs::Vfs vfs;
  vfs.create("/s/u0/idle", meta(0, 100, 10));
  vfs.create("/s/u0/fresh", meta(0, 100, 0));
  const ScratchCachePolicy policy(ScratchCacheConfig{2});
  const PurgeReport report =
      policy.run(vfs, kNow, /*target=*/1'000'000, kNoGroups);
  EXPECT_EQ(report.target_purge_bytes, 0u);
  EXPECT_TRUE(report.target_reached);
  EXPECT_EQ(report.purged_files, 1u);
  EXPECT_TRUE(vfs.exists("/s/u0/fresh"));
}

TEST(ScratchCache, NameEncodesHorizon) {
  EXPECT_EQ(ScratchCachePolicy(ScratchCacheConfig{1}).name(),
            "ScratchCache-1d");
}

TEST(ScratchCache, ReportGroupsAndAffectedUsers) {
  fs::Vfs vfs;
  vfs.create("/s/u0/a", meta(0, 10, 5));
  vfs.create("/s/u0/b", meta(0, 20, 7));
  vfs.create("/s/u1/c", meta(1, 30, 9));
  const ScratchCachePolicy policy(ScratchCacheConfig{2});
  const PurgeReport report = policy.run(
      vfs, kNow, 0,
      group_plan({{0, activeness::UserGroup::kOperationActiveOnly},
                  {1, activeness::UserGroup::kBothInactive}}));
  EXPECT_EQ(report.group(activeness::UserGroup::kOperationActiveOnly)
                .purged_bytes,
            30u);
  EXPECT_EQ(report.group(activeness::UserGroup::kOperationActiveOnly)
                .users_affected,
            1u);
  EXPECT_EQ(report.group(activeness::UserGroup::kBothInactive).purged_bytes,
            30u);
  EXPECT_EQ(report.total_users_affected(), 2u);
}

}  // namespace
}  // namespace adr::retention
