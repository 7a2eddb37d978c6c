#include "activeness/rank_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "activeness/classifier.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"

namespace adr::activeness {
namespace {

UserActiveness ua(trace::UserId user, double op, double oc) {
  UserActiveness u;
  u.user = user;
  u.op = Rank::from_value(op);
  u.oc = Rank::from_value(oc);
  return u;
}

std::string temp_path(const std::string& leaf) {
  return ::testing::TempDir() + "/" + leaf;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream(path) << content;
}

constexpr char kHeader[] =
    "user,op_has_data,op_zero,op_log_phi,oc_has_data,oc_zero,oc_log_phi,"
    "last_activity\n";

TEST(RankStore, GroupCounts) {
  // A saved evaluation reloads into the same group sizes (Fig. 5's
  // percentages), as the plan built from it counts them.
  const std::string path = temp_path("ranks_groups.csv");
  save_rank_file({ua(0, 2, 2), ua(1, 2, 0.1), ua(2, 0.1, 2), ua(3, 0, 0),
                  ua(4, 0, 0)},
                 path);
  const ScanPlan plan = build_scan_plan(load_rank_file(path));
  std::remove(path.c_str());
  EXPECT_EQ(plan.group(UserGroup::kBothActive).size(), 1u);           // G1
  EXPECT_EQ(plan.group(UserGroup::kOperationActiveOnly).size(), 1u);  // G2
  EXPECT_EQ(plan.group(UserGroup::kOutcomeActiveOnly).size(), 1u);    // G3
  EXPECT_EQ(plan.group(UserGroup::kBothInactive).size(), 2u);         // G4
}

TEST(RankStore, CsvRoundTripPreservesRankStructure) {
  UserActiveness nodata;
  nodata.user = 1;
  const std::string path = temp_path("ranks.csv");
  save_rank_file({ua(0, 123.456, 0.0), nodata}, path);
  const std::vector<UserActiveness> loaded = load_rank_file(path);
  std::remove(path.c_str());

  ASSERT_EQ(loaded.size(), 2u);
  const auto& u0 = loaded[0];
  EXPECT_EQ(u0.user, 0u);
  EXPECT_TRUE(u0.op.active());
  EXPECT_NEAR(u0.op.value(), 123.456, 1e-9);
  EXPECT_TRUE(u0.oc.has_data);
  EXPECT_TRUE(u0.oc.zero);
  EXPECT_EQ(loaded[1].user, 1u);
  EXPECT_TRUE(loaded[1].fresh());
}

/// Random records over every flag combination, with log Φ exactly zero,
/// tiny, moderate and large, each carrying bits a double cannot hold; ids
/// with gaps and out of order.
std::vector<UserActiveness> random_records(std::uint64_t seed) {
  util::Rng rng(seed);
  const long double scales[] = {0.0L, 1e-7L, 1e-300L, 3.0L, 1e6L};
  std::vector<UserActiveness> users;
  for (std::uint32_t i = 0; i < 16 * 5 * 4; ++i) {
    UserActiveness u;
    u.user = 3 * i + 1;
    u.op.has_data = (i & 1) != 0;
    u.op.zero = (i & 2) != 0;
    u.oc.has_data = (i & 4) != 0;
    u.oc.zero = (i & 8) != 0;
    const long double scale = scales[(i / 16) % 5];
    for (long double* lp : {&u.op.log_phi, &u.oc.log_phi}) {
      long double v = static_cast<long double>(rng.uniform(-1.0, 1.0)) * scale;
      v += v * static_cast<long double>(rng.uniform()) * 1e-17L;
      *lp = v;
    }
    u.last_activity =
        i % 7 == 0 ? std::numeric_limits<std::int64_t>::min()
                   : static_cast<std::int64_t>(rng.uniform_int(0, 2'000'000'000));
    users.push_back(u);
  }
  // The scan order and the Both Inactive / Operation Active Only boundary
  // at the precision 6 decimals lose: rounded, the first two tie and the
  // user id would put user 0 first; the third would read as log Φ = -0.
  UserActiveness close_a = ua(0, 0.1, 0.1);
  close_a.op.log_phi = -2.0000001L;
  UserActiveness close_b = ua(3, 0.1, 0.1);
  close_b.op.log_phi = -2.0000004L;
  UserActiveness just_below_one = ua(6, 0.1, 0.1);
  just_below_one.op.log_phi = -4e-7L;
  users.insert(users.end(), {close_a, close_b, just_below_one});
  util::Rng shuffle(seed ^ 0x5eed);
  for (std::size_t i = users.size(); i > 1; --i) {
    std::swap(users[i - 1],
              users[static_cast<std::size_t>(
                  shuffle.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  }
  return users;
}

TEST(RankFile, RoundTripIsExact) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<UserActiveness> users = random_records(seed);
    const std::string path = temp_path("ranks_exact.csv");
    save_rank_file(users, path);
    const std::vector<UserActiveness> loaded = load_rank_file(path);
    std::remove(path.c_str());

    ASSERT_EQ(loaded.size(), users.size());
    for (std::size_t i = 0; i < users.size(); ++i) {
      SCOPED_TRACE("user " + std::to_string(users[i].user));
      EXPECT_EQ(loaded[i].user, users[i].user);
      EXPECT_EQ(loaded[i].op.has_data, users[i].op.has_data);
      EXPECT_EQ(loaded[i].op.zero, users[i].op.zero);
      EXPECT_EQ(loaded[i].op.log_phi, users[i].op.log_phi);
      EXPECT_EQ(loaded[i].oc.has_data, users[i].oc.has_data);
      EXPECT_EQ(loaded[i].oc.zero, users[i].oc.zero);
      EXPECT_EQ(loaded[i].oc.log_phi, users[i].oc.log_phi);
      EXPECT_EQ(loaded[i].last_activity, users[i].last_activity);
      EXPECT_EQ(classify(loaded[i]), classify(users[i]));
    }
    // Same records in the same slots: the plans must match key for key,
    // so a purge ordered by the file scans as the evaluation would.
    const ScanPlan want = build_scan_plan(users);
    const ScanPlan got = build_scan_plan(loaded);
    for (std::size_t g = 0; g < kGroupCount; ++g) {
      EXPECT_EQ(got.groups[g], want.groups[g]) << "group " << g;
    }
  }
}

TEST(RankFile, SixDecimalFilesStillLoad) {
  const std::string path = temp_path("ranks_legacy.csv");
  write_file(path, std::string(kHeader) +
                       "0,1,0,0.405465,1,1,0.000000,1451606400\n"
                       "1,0,0,0.000000,0,0,0.000000,-9223372036854775808\n");
  const std::vector<UserActiveness> loaded = load_rank_file(path);
  std::remove(path.c_str());
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].op.log_phi, 0.405465L);
  EXPECT_EQ(classify(loaded[0]), UserGroup::kOperationActiveOnly);
  EXPECT_TRUE(loaded[1].fresh());
}

TEST(RankFile, DuplicateUserIsAParseError) {
  const std::string path = temp_path("ranks_duplicate.csv");
  write_file(path, std::string(kHeader) +
                       "3,1,0,0.5,0,0,0,100\n"
                       "4,0,0,0,0,0,0,100\n"
                       "3,1,0,0.5,0,0,0,100\n");
  EXPECT_THROW(load_rank_file(path), util::ParseError);

  const RankFileLoadResult result = try_load_rank_file(path);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("appears twice"), std::string::npos)
      << result.error;
  EXPECT_FALSE(result.quarantined_to.empty());
  EXPECT_FALSE(std::filesystem::exists(path));
  std::filesystem::remove(result.quarantined_to);
}

TEST(RankFile, FlagOtherThanZeroOrOneIsAParseError) {
  const std::string path = temp_path("ranks_flag.csv");
  for (const char* row : {"0,yes,0,0.5,0,0,0,100\n", "0,1,2,0.5,0,0,0,100\n",
                          "0,1,0,0.5,,0,0,100\n", "0,1,0,0.5,0,true,0,100\n"}) {
    SCOPED_TRACE(row);
    write_file(path, std::string(kHeader) + row);
    EXPECT_THROW(load_rank_file(path), util::ParseError);
  }
  std::remove(path.c_str());
}

TEST(RankFile, NonFiniteLogPhiIsAParseError) {
  const std::string path = temp_path("ranks_nan.csv");
  for (const char* row : {"0,1,0,nan,0,0,0,100\n", "0,1,0,0.5,0,0,inf,100\n",
                          "0,1,0,1e99999,0,0,0,100\n"}) {
    SCOPED_TRACE(row);
    write_file(path, std::string(kHeader) + row);
    EXPECT_THROW(load_rank_file(path), util::ParseError);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace adr::activeness
