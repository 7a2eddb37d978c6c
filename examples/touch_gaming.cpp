// Touch gaming: why FLT is exploitable and ActiveDR is not (§1, §2).
//
// Two users, same amount of stale data:
//  * the "toucher" runs no jobs but touches every file every 80 days, so a
//    90-day FLT keeps renewing the files forever;
//  * the "worker" runs jobs steadily but paused for 4 months mid-project,
//    so FLT purges the paused project's files right before they're needed.
//
// ActiveDR inverts the outcome: the toucher has no operation/outcome
// activeness, so their hoarded files are first in the purge order, while the
// worker's rank extends the paused files' lifetime.

#include <iostream>

#include "retention/activedr_policy.hpp"
#include "retention/flt.hpp"
#include "trace/user_registry.hpp"
#include "util/table.hpp"

using namespace adr;

namespace {

constexpr std::uint64_t kGiB = 1ull << 30;

void fill_scratch(fs::Vfs& vfs, const trace::UserRegistry& registry,
                  util::TimePoint now) {
  // Toucher (user0): 10 files, "touched" 40 days ago by a crontab, not used
  // by any job for over a year.
  for (int i = 0; i < 10; ++i) {
    fs::FileMeta meta;
    meta.owner = 0;
    meta.size_bytes = kGiB;
    meta.atime = now - util::days(40);
    meta.ctime = now - util::days(500);
    vfs.create(registry.home_dir(0) + "/hoard/file" + std::to_string(i) +
                   ".dat",
               meta);
  }
  // Worker (user1): 10 files from a project paused 120 days ago.
  for (int i = 0; i < 10; ++i) {
    fs::FileMeta meta;
    meta.owner = 1;
    meta.size_bytes = kGiB;
    meta.atime = now - util::days(120);
    meta.ctime = now - util::days(400);
    vfs.create(registry.home_dir(1) + "/paused_project/part" +
                   std::to_string(i) + ".h5",
               meta);
  }
}

}  // namespace

int main() {
  const util::TimePoint now = util::from_civil(2026, 7, 1);
  const auto registry = trace::UserRegistry::with_synthetic_users(2, "user");

  // Activeness: user0 (toucher) has no job/publication record. user1
  // (worker) has a healthy, recently-rising job record.
  activeness::UserActiveness toucher;
  toucher.user = 0;
  toucher.op = activeness::Rank::from_value(0.0);
  toucher.oc = activeness::Rank::no_data();
  activeness::UserActiveness worker;
  worker.user = 1;
  worker.op = activeness::Rank::from_value(2.0);  // lifetime x2 = 180 days
  worker.oc = activeness::Rank::no_data();
  const auto plan = activeness::build_scan_plan({toucher, worker});

  // Both policies must free 10 GiB (half the scratch space).
  const std::uint64_t target = 10 * kGiB;

  // --- FLT: only expired files are candidates. The toucher's hoard was
  // "accessed" 40 days ago, so the worker's paused project is sacrificed.
  fs::Vfs flt_vfs;
  fill_scratch(flt_vfs, registry, now);
  const retention::FltPolicy flt(retention::FltConfig{90});
  flt.run(flt_vfs, now, target, plan);

  // --- ActiveDR: the toucher sits in Both-Inactive and is scanned first;
  // the retrospective passes decay their lifetime (90d * 0.8^4 = 36.9d)
  // until the 40-day-old hoard qualifies. The worker is never reached.
  fs::Vfs adr_vfs;
  fill_scratch(adr_vfs, registry, now);
  const retention::ActiveDrPolicy adr(retention::ActiveDrConfig{});
  adr.run(adr_vfs, now, target, plan);

  util::Table table("Surviving files after one purge (10 each initially)");
  table.set_headers({"User", "Behaviour", "FLT keeps", "ActiveDR keeps"});
  auto count = [&](const fs::Vfs& vfs, trace::UserId u) {
    return std::to_string(vfs.usage(u).files);
  };
  table.add_row({"user00000", "touches files every 80d, never computes",
                 count(flt_vfs, 0), count(adr_vfs, 0)});
  table.add_row({"user00001", "active worker, project paused 120d",
                 count(flt_vfs, 1), count(adr_vfs, 1)});
  table.print(std::cout);

  std::cout
      << "FLT rewards the touch trick and punishes the paused project;\n"
         "ActiveDR extends the worker's lifetime (90d x rank 2 = 180d) and\n"
         "purges the toucher's unused hoard.\n";
  return 0;
}
