// The indexed scan against a reference walk (DESIGN.md §8 "Purge index"):
// ActiveDrPolicy's scan-once cursor over the purge index must produce the
// PurgeReport a literal reading of §3.4 produces — walk each group's home
// directories pass by pass under the decayed lifetime, purge oldest first —
// with the same victims, in the same order, the same accounting, and the
// same exempted_files count (an exempt file counts once per scanned group,
// only when expired at the group's widest fully-decayed cutoff), across
// targets, retrospective passes, and randomized file populations. The only
// sanctioned difference is the phase wall times. FLT's strict scan reads
// the index too and must select exactly the expired set.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "activeness/classifier.hpp"
#include "obs/metrics.hpp"
#include "retention/activedr_policy.hpp"
#include "retention/flt.hpp"
#include "trace/user_registry.hpp"
#include "util/rng.hpp"

namespace adr::retention {
namespace {

using activeness::Rank;
using activeness::ScanKey;
using activeness::ScanPlan;
using activeness::UserActiveness;

constexpr util::TimePoint kNow = 1'600'000'000;
constexpr std::size_t kUsers = 12;

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

/// Randomized population: files of mixed ages/sizes per user, some users in
/// every activeness group, plus a stream of overwrites and removes so the
/// index has seen every maintenance path before the policies run.
void populate(fs::Vfs& vfs, const trace::UserRegistry& registry,
              util::Rng& rng, std::size_t users = kUsers) {
  vfs.set_removal_sink([](const std::string&, const fs::FileMeta&) {});
  for (trace::UserId u = 0; u < users; ++u) {
    const std::string home = registry.home_dir(u);
    const int files = static_cast<int>(rng.uniform_int(5, 40));
    for (int i = 0; i < files; ++i) {
      vfs.create(home + "/f" + std::to_string(i),
                 meta(u, static_cast<std::uint64_t>(rng.uniform_int(1, 500)),
                      rng.uniform(0.0, 400.0)));
    }
    // Overwrites (atime/size churn) and removes on a random sample.
    for (int i = 0; i < files / 4; ++i) {
      const std::string path =
          home + "/f" + std::to_string(rng.uniform_int(0, files - 1));
      if (rng.uniform() < 0.5) {
        vfs.create(path,
                   meta(u, static_cast<std::uint64_t>(rng.uniform_int(1, 500)),
                        rng.uniform(0.0, 400.0)));
      } else {
        vfs.remove(path);
      }
    }
  }
  ASSERT_TRUE(vfs.verify_purge_index());
}

ScanPlan make_plan(util::Rng& rng, std::size_t count = kUsers) {
  std::vector<UserActiveness> users;
  for (trace::UserId u = 0; u < count; ++u) {
    users.push_back(
        ua(u, rng.uniform() < 0.5 ? 0.0 : rng.uniform(0.5, 4.0),
           rng.uniform() < 0.5 ? 0.0 : rng.uniform(0.5, 4.0)));
  }
  return activeness::build_scan_plan(std::move(users));
}

/// §3.4 read literally, one group at a time in scan order and pass by
/// pass: every user's home directory is walked under the pass's decayed
/// lifetime and its expired files are purged oldest first (atime, then path
/// id) until the target is met. A dry run cannot remove, so a file selected
/// in an earlier pass is skipped by path. No index, cursor or scan-once
/// candidate list is involved. Exempt files are counted when a group is
/// entered, over all of its users, including those the apply never reaches
/// because the target is met first.
PurgeReport reference_walk(fs::Vfs& vfs, const ActiveDrPolicy& policy,
                           const trace::UserRegistry& registry,
                           const ScanPlan& plan, std::uint64_t target,
                           bool dry_run) {
  const auto group_of = [&plan](trace::UserId user) {
    for (std::size_t gi = 0; gi < activeness::kGroupCount; ++gi) {
      for (const auto& u : plan.groups[gi]) {
        if (u.user == user) return static_cast<activeness::UserGroup>(gi);
      }
    }
    return activeness::UserGroup::kBothInactive;
  };
  PurgeReport report;
  report.target_purge_bytes = target;
  report.dry_run = dry_run;
  for (const auto& [user, usage] : vfs.usage_by_user()) {
    if (usage.files > 0) ++report.group(group_of(user)).users_total;
  }

  struct Victim {
    std::string path;
    util::TimePoint atime;
    fs::PathId id;
    std::uint64_t size;
  };
  const bool no_target = target == 0;
  std::uint64_t remaining = target;
  std::set<std::string> selected;  // dry runs: earlier passes' victims
  std::set<trace::UserId> affected;
  bool done = false;
  for (const activeness::UserGroup group : activeness::kScanOrder) {
    const auto& users = plan.group(group);
    if (done || users.empty()) continue;
    const int max_pass =
        no_target ? 0 : policy.config().retrospective_passes;
    for (const ScanKey& user : users) {
      const util::Duration widest =
          policy.effective_lifetime(plan.at(user), max_pass);
      vfs.for_each_under(
          registry.home_dir(user.user),
          [&](const std::string& path, const fs::FileMeta& meta) {
            if (policy.exemptions().is_exempt(path) &&
                kNow - meta.atime > widest) {
              ++report.exempted_files;
            }
          });
    }
    for (int pass = 0; pass <= max_pass && !done; ++pass) {
      if (pass > 0) ++report.retrospective_passes_used;
      bool purged_any = false;
      for (const ScanKey& user : users) {
        if (done) break;
        const util::Duration lifetime =
            policy.effective_lifetime(plan.at(user), pass);
        std::vector<Victim> victims;
        vfs.for_each_under(
            registry.home_dir(user.user),
            [&](const std::string& path, const fs::FileMeta& meta) {
              if (policy.exemptions().is_exempt(path)) return;
              if (kNow - meta.atime > lifetime) {
                victims.push_back(
                    {path, meta.atime, meta.path_id, meta.size_bytes});
              }
            });
        std::sort(victims.begin(), victims.end(),
                  [](const Victim& a, const Victim& b) {
                    return a.atime != b.atime ? a.atime < b.atime
                                              : a.id < b.id;
                  });
        for (const Victim& v : victims) {
          if (dry_run ? !selected.insert(v.path).second
                      : !vfs.remove(v.path)) {
            continue;
          }
          purged_any = true;
          report.victim_paths.push_back(v.path);
          report.purged_bytes += v.size;
          ++report.purged_files;
          report.group(group).purged_bytes += v.size;
          ++report.group(group).purged_files;
          if (affected.insert(user.user).second) {
            ++report.group(group).users_affected;
            report.affected_users.push_back(user.user);
          }
          if (!no_target) {
            remaining -= std::min(remaining, v.size);
            if (remaining == 0) {
              done = true;
              break;
            }
          }
        }
      }
      if (!purged_any && pass > 0) {
        // Stop decaying once every lifetime in the group has bottomed out.
        bool bottomed_out = true;
        for (const ScanKey& user : users) {
          if (policy.effective_lifetime(plan.at(user), pass) > 0) {
            bottomed_out = false;
          }
        }
        if (bottomed_out) break;
      }
    }
  }
  report.target_reached = no_target || remaining == 0;
  for (const auto& [user, usage] : vfs.usage_by_user()) {
    if (usage.files == 0) continue;
    report.group(group_of(user)).retained_bytes += usage.bytes;
    report.group(group_of(user)).retained_files += usage.files;
  }
  return report;
}

/// Byte-identical modulo wall times (see header comment).
void expect_reports_equal(const PurgeReport& want, const PurgeReport& got,
                          const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(want.target_purge_bytes, got.target_purge_bytes);
  EXPECT_EQ(want.exempted_files, got.exempted_files);
  EXPECT_EQ(want.purged_bytes, got.purged_bytes);
  EXPECT_EQ(want.purged_files, got.purged_files);
  EXPECT_EQ(want.target_reached, got.target_reached);
  EXPECT_EQ(want.retrospective_passes_used, got.retrospective_passes_used);
  EXPECT_EQ(want.victim_paths, got.victim_paths);  // order included
  EXPECT_EQ(want.affected_users, got.affected_users);
  for (std::size_t g = 0; g < activeness::kGroupCount; ++g) {
    SCOPED_TRACE("group " + std::to_string(g));
    EXPECT_EQ(want.by_group[g].purged_bytes, got.by_group[g].purged_bytes);
    EXPECT_EQ(want.by_group[g].purged_files, got.by_group[g].purged_files);
    EXPECT_EQ(want.by_group[g].retained_bytes, got.by_group[g].retained_bytes);
    EXPECT_EQ(want.by_group[g].retained_files, got.by_group[g].retained_files);
    EXPECT_EQ(want.by_group[g].users_affected, got.by_group[g].users_affected);
    EXPECT_EQ(want.by_group[g].users_total, got.by_group[g].users_total);
  }
}

/// Runs ActiveDR and the reference walk on two copies of `initial`, checks
/// that the reports and the surviving file tables agree, and returns
/// ActiveDR's report.
PurgeReport expect_matches_reference(const fs::Vfs& initial,
                                     const trace::UserRegistry& registry,
                                     const ScanPlan& plan,
                                     std::uint64_t target, bool dry_run,
                                     const std::string& label,
                                     const std::vector<std::string>& reserved =
                                         {}) {
  ActiveDrPolicy policy(ActiveDrConfig{});
  ExemptionList exemptions;
  for (const auto& path : reserved) exemptions.reserve(path);
  policy.set_exemptions(exemptions);
  fs::Vfs indexed_vfs, walked_vfs;
  indexed_vfs.import_snapshot(initial.export_snapshot());
  walked_vfs.import_snapshot(initial.export_snapshot());
  const PurgeReport indexed =
      policy.run(indexed_vfs, kNow, target, plan,
                 {.dry_run = dry_run, .record_victims = true});
  const PurgeReport walked =
      reference_walk(walked_vfs, policy, registry, plan, target, dry_run);
  expect_reports_equal(walked, indexed, label);
  EXPECT_TRUE(indexed_vfs.verify_purge_index()) << label;
  EXPECT_EQ(walked_vfs.total_bytes(), indexed_vfs.total_bytes()) << label;
  EXPECT_EQ(walked_vfs.file_count(), indexed_vfs.file_count()) << label;
  return indexed;
}

TEST(IndexedScan, WetRunsMatchTheReferenceWalkAcrossTargets) {
  util::Rng rng(42);
  const auto registry = trace::UserRegistry::with_synthetic_users(kUsers);
  fs::Vfs vfs;
  populate(vfs, registry, rng);
  const ScanPlan plan = make_plan(rng);
  const std::uint64_t total = vfs.total_bytes();

  // From trivially-reachable through pass-exhausting to unreachable.
  for (const std::uint64_t target :
       {std::uint64_t{0}, total / 100, total / 10, total / 2, total}) {
    expect_matches_reference(vfs, registry, plan, target, /*dry_run=*/false,
                             "wet target=" + std::to_string(target));
  }
}

TEST(IndexedScan, DryRunsMatchTheReferenceWalkAcrossTargets) {
  util::Rng rng(1337);
  const auto registry = trace::UserRegistry::with_synthetic_users(kUsers);
  fs::Vfs vfs;
  populate(vfs, registry, rng);
  const ScanPlan plan = make_plan(rng);
  const std::uint64_t total = vfs.total_bytes();

  for (const std::uint64_t target :
       {std::uint64_t{0}, total / 100, total / 10, total / 2, total}) {
    expect_matches_reference(vfs, registry, plan, target, /*dry_run=*/true,
                             "dry target=" + std::to_string(target));
  }
}

TEST(IndexedScan, RandomizedPopulationsAgreeOverManySeeds) {
  const auto registry = trace::UserRegistry::with_synthetic_users(kUsers);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed);
    fs::Vfs vfs;
    populate(vfs, registry, rng);
    const ScanPlan plan = make_plan(rng);
    const std::uint64_t target = static_cast<std::uint64_t>(
        static_cast<double>(vfs.total_bytes()) * rng.uniform(0.05, 0.9));
    expect_matches_reference(vfs, registry, plan, target, /*dry_run=*/false,
                             "seed " + std::to_string(seed));
  }
}

TEST(IndexedScan, ExemptionsRespected) {
  // Enough users that the first scanned group outgrows the scan's first
  // collection blocks, so small targets stop the apply before the scan
  // reaches the group's last user.
  constexpr std::size_t kMany = 96;
  util::Rng rng(7);
  const auto registry = trace::UserRegistry::with_synthetic_users(kMany);
  fs::Vfs vfs;
  populate(vfs, registry, rng, kMany);
  const ScanPlan plan = make_plan(rng, kMany);
  const auto& first = plan.group(activeness::kScanOrder[0]);
  ASSERT_GE(first.size(), 16u);

  // User 0 and the first group's last user are fully reserved.
  const std::vector<std::string> homes = {
      registry.home_dir(0), registry.home_dir(first.back().user)};
  const std::uint64_t total = vfs.total_bytes();
  for (const bool dry_run : {false, true}) {
    for (const std::uint64_t target :
         {total / 100, total / 10, total / 2, total}) {
      const PurgeReport report = expect_matches_reference(
          vfs, registry, plan, target, dry_run,
          std::string(dry_run ? "dry" : "wet") +
              " target=" + std::to_string(target),
          homes);
      for (const auto& path : report.victim_paths) {
        for (const auto& home : homes) {
          EXPECT_EQ(path.rfind(home + "/", 0), std::string::npos)
              << "exempt file purged: " << path;
        }
      }
      EXPECT_GT(report.exempted_files, 0u);
    }
  }
}

TEST(IndexedScan, SmallTargetCollectsOnlyReachedUsers) {
  // One group of 1,000 inactive users, 5 expired files each. A 1-byte
  // target is met by the first user's oldest file, so the scan must not
  // collect the other users' candidates.
  constexpr std::size_t kGroup = 1000;
  constexpr std::size_t kFilesPerUser = 5;
  const auto registry = trace::UserRegistry::with_synthetic_users(kGroup);
  fs::Vfs vfs;
  std::vector<UserActiveness> users;
  for (trace::UserId u = 0; u < kGroup; ++u) {
    for (std::size_t i = 0; i < kFilesPerUser; ++i) {
      vfs.create(registry.home_dir(u) + "/f" + std::to_string(i),
                 meta(u, 100, 200.0 + static_cast<double>(i)));
    }
    users.push_back(ua(u, 0.0, 0.0));
  }
  const ScanPlan plan = activeness::build_scan_plan(std::move(users));
  ASSERT_EQ(plan.group(activeness::UserGroup::kBothInactive).size(), kGroup);

  const obs::Counter& candidates =
      obs::MetricsRegistry::global().counter("policy.index_candidates");
  const std::uint64_t before = candidates.value();
  const PurgeReport report = expect_matches_reference(
      vfs, registry, plan, /*target=*/1, /*dry_run=*/false, "1-byte target");
  EXPECT_EQ(report.purged_files, 1u);
  EXPECT_TRUE(report.target_reached);
  // An eager scan collects all kGroup * kFilesPerUser candidates.
  EXPECT_LT(candidates.value() - before, kGroup * kFilesPerUser / 10);
}

TEST(IndexedScan, FltStrictSelectsTheExpiredSet) {
  util::Rng rng(99);
  const auto registry = trace::UserRegistry::with_synthetic_users(kUsers);
  fs::Vfs vfs;
  populate(vfs, registry, rng);

  const FltPolicy policy(FltConfig{});
  const util::Duration lifetime = util::days(policy.config().lifetime_days);
  std::vector<std::string> want;
  std::uint64_t want_bytes = 0;
  vfs.for_each([&](const std::string& path, const fs::FileMeta& meta) {
    if (kNow - meta.atime > lifetime) {
      want.push_back(path);
      want_bytes += meta.size_bytes;
    }
  });
  std::sort(want.begin(), want.end());
  EXPECT_FALSE(want.empty());

  fs::Vfs run;
  run.import_snapshot(vfs.export_snapshot());
  const PurgeReport report = policy.run(run, kNow, /*target=*/0, ScanPlan{},
                                        {.record_victims = true});
  std::vector<std::string> got = report.victim_paths;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want);
  EXPECT_EQ(report.purged_bytes, want_bytes);
  EXPECT_EQ(run.file_count() + want.size(), vfs.file_count());
  EXPECT_TRUE(run.verify_purge_index());
}

}  // namespace
}  // namespace adr::retention
