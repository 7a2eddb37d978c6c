// Quickstart: the administrator's five-minute tour of the ActiveDR API.
//
//   1. Create a Service over the site's user registry.
//   2. Register the activity types you already track (one-time setup).
//   3. Feed activities and the scratch-space snapshot.
//   4. Evaluate activeness, inspect the classification.
//   5. Trigger a purge and read the report.
//
// Build & run:  ./quickstart

#include <iostream>

#include "core/service.hpp"

using namespace adr;

int main() {
  const util::TimePoint now = util::from_civil(2026, 7, 1);

  // 1. A small site with five users.
  auto registry = trace::UserRegistry::with_synthetic_users(5, "user");
  core::ServiceConfig config;
  config.lifetime_days = 90;             // initial file lifetime d (Eq. 7)
  config.purge_target_utilization = 0.5; // purge down to 50% of capacity
  core::Service service(std::move(registry), config);

  // 2. Activity types: operations happen *on* the system, outcomes are what
  //    users produce by using it (§3.1).
  const auto jobs = service.register_operation_type("job_submission");
  const auto pubs = service.register_outcome_type("publication");

  // 3a. Activities. user0 has a rising job record (recent periods beat the
  //     historical average -> operation-active); user1 published recently;
  //     users 2-4 are silent.
  for (int period = 0; period < 3; ++period) {
    for (int k = 0; k < 3; ++k) {
      const double core_hours = period == 0 ? 200.0 : 100.0;
      service.record(0, jobs, now - util::days(90 * period + 10 + 20 * k),
                    core_hours);
    }
  }
  service.record(1, pubs, now - util::days(30), /*impact=*/12.0);  // Eq. 8

  // 3b. Scratch contents: everyone owns one 1 GiB file last touched 100
  //     days ago — older than the 90-day lifetime.
  const std::uint64_t gib = 1ull << 30;
  for (trace::UserId u = 0; u < 5; ++u) {
    fs::FileMeta meta;
    meta.owner = u;
    meta.size_bytes = gib;
    meta.atime = now - util::days(100);
    meta.ctime = meta.atime;
    service.vfs().create(service.registry().home_dir(u) + "/results.h5", meta);
  }
  service.vfs().set_capacity_bytes(5 * gib);

  // 4. Evaluate and classify.
  service.evaluate(now);
  std::cout << "User activeness at " << util::format_date(now) << ":\n";
  for (trace::UserId u = 0; u < 5; ++u) {
    const auto ua = service.activeness_of(u);
    std::cout << "  " << service.registry().name(u) << ": "
              << activeness::group_name(activeness::classify(ua))
              << " (op rank " << ua.op.value() << ", outcome rank "
              << ua.oc.value() << ")\n";
  }

  // 5. Purge. Target: drop from 5 GiB to 2.5 GiB. ActiveDR visits inactive
  //    users first, so the three silent users lose their stale files while
  //    the active users keep theirs.
  const auto report = service.purge(now);
  report.print(std::cout);

  std::cout << "Active users' files survived: "
            << service.vfs().exists(service.registry().home_dir(0) +
                                   "/results.h5")
            << service.vfs().exists(service.registry().home_dir(1) +
                                   "/results.h5")
            << " (1 = yes)\n";
  return 0;
}
