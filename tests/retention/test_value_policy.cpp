#include "retention/value_policy.hpp"

#include <gtest/gtest.h>

#include "group_plan.hpp"

namespace adr::retention {
namespace {

constexpr util::TimePoint kNow = 1'600'000'000;
const activeness::ScanPlan kNoGroups;

fs::FileMeta meta(trace::UserId owner, std::uint64_t size, double age_days,
                  std::uint32_t accesses = 0) {
  fs::FileMeta m;
  m.owner = owner;
  m.size_bytes = size;
  m.atime = kNow - static_cast<util::Duration>(age_days * 86400);
  m.ctime = m.atime;
  m.access_count = accesses;
  return m;
}

TEST(ValuePolicy, RecencyDominatesWithDefaultWeights) {
  const ValuePolicy policy(ValueConfig{});
  const double fresh = policy.value_of("/a/x.dat", meta(0, 100, 1), kNow);
  const double stale = policy.value_of("/a/y.dat", meta(0, 100, 300), kNow);
  EXPECT_GT(fresh, stale);
}

TEST(ValuePolicy, FrequencyRaisesValue) {
  const ValuePolicy policy(ValueConfig{});
  const double cold = policy.value_of("/a/x.dat", meta(0, 100, 50, 0), kNow);
  const double hot = policy.value_of("/a/x.dat", meta(0, 100, 50, 50), kNow);
  EXPECT_GT(hot, cold);
}

TEST(ValuePolicy, TypeScoresApply) {
  ValueConfig config;
  config.type_scores[".h5"] = 1.0;
  config.type_scores[".tmp"] = 0.0;
  const ValuePolicy policy(config);
  const double dataset = policy.value_of("/a/run.h5", meta(0, 1, 10), kNow);
  const double scratch = policy.value_of("/a/run.tmp", meta(0, 1, 10), kNow);
  const double unknown = policy.value_of("/a/run.xyz", meta(0, 1, 10), kNow);
  EXPECT_GT(dataset, unknown);
  EXPECT_GT(unknown, scratch);
}

TEST(ValuePolicy, ExtensionParsingIgnoresDirectoryDots) {
  ValueConfig config;
  config.type_scores[".dat"] = 1.0;
  config.default_type_score = 0.0;
  config.w_recency = config.w_size = config.w_freq = 0.0;
  config.w_type = 1.0;
  const ValuePolicy policy(config);
  EXPECT_DOUBLE_EQ(
      policy.value_of("/a.b/file.dat", meta(0, 1, 0), kNow), 1.0);
  EXPECT_DOUBLE_EQ(policy.value_of("/a.b/file", meta(0, 1, 0), kNow), 0.0);
}

TEST(ValuePolicy, SmallFilesOutValueHuge) {
  ValueConfig config;
  config.w_recency = config.w_freq = config.w_type = 0.0;
  config.w_size = 1.0;
  const ValuePolicy policy(config);
  const double small = policy.value_of("/a", meta(0, 1 << 20, 0), kNow);
  const double huge =
      policy.value_of("/b", meta(0, 2'000'000'000'000ull, 0), kNow);
  EXPECT_GT(small, huge);
  EXPECT_GE(huge, 0.0);  // clamped, never negative
}

TEST(ValuePolicy, PurgesAscendingValueUntilTarget) {
  fs::Vfs vfs;
  vfs.create("/s/u0/stale", meta(0, 100, 300));   // lowest value
  vfs.create("/s/u0/mid", meta(0, 100, 60));
  vfs.create("/s/u0/fresh", meta(0, 100, 1, 20));  // highest value
  const ValuePolicy policy(ValueConfig{});
  const PurgeReport report = policy.run(vfs, kNow, 150, kNoGroups);
  EXPECT_TRUE(report.target_reached);
  EXPECT_EQ(report.purged_files, 2u);
  EXPECT_FALSE(vfs.exists("/s/u0/stale"));
  EXPECT_FALSE(vfs.exists("/s/u0/mid"));
  EXPECT_TRUE(vfs.exists("/s/u0/fresh"));
}

TEST(ValuePolicy, NoTargetUsesValueFloor) {
  fs::Vfs vfs;
  vfs.create("/s/u0/worthless", meta(0, 100, 500, 0));
  vfs.create("/s/u0/precious", meta(0, 100, 1, 50));
  ValueConfig config;
  config.value_floor = 0.3;
  const ValuePolicy policy(config);
  const PurgeReport report = policy.run(vfs, kNow, 0, kNoGroups);
  EXPECT_TRUE(report.target_reached);
  EXPECT_FALSE(vfs.exists("/s/u0/worthless"));
  EXPECT_TRUE(vfs.exists("/s/u0/precious"));
  EXPECT_EQ(report.purged_files, 1u);
}

TEST(ValuePolicy, ReportAttribution) {
  fs::Vfs vfs;
  vfs.create("/s/u0/a", meta(0, 100, 400));
  vfs.create("/s/u1/b", meta(1, 100, 400));
  const ValuePolicy policy{ValueConfig{}};
  const PurgeReport report =
      policy.run(vfs, kNow, 0,
                 group_plan({{0, activeness::UserGroup::kBothActive},
                             {1, activeness::UserGroup::kBothInactive}}));
  EXPECT_EQ(report.group(activeness::UserGroup::kBothActive).purged_files, 1u);
  EXPECT_EQ(report.group(activeness::UserGroup::kBothInactive).purged_files,
            1u);
  EXPECT_EQ(report.affected_users.size(), 2u);
  EXPECT_EQ(report.policy, "ValueBased");
}

}  // namespace
}  // namespace adr::retention
