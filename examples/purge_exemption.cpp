// Purge exemption: the reservation-list workflow of §3.4.
//
// The administrator keeps a plain-text list of reserved paths; ActiveDR
// loads it into a compact prefix tree and skips those files during scans.
// Renaming a reserved file silently cancels the reservation — the paths are
// the contract.

#include <fstream>
#include <iostream>

#include "core/service.hpp"

using namespace adr;

int main() {
  const util::TimePoint now = util::from_civil(2026, 7, 1);

  core::ServiceConfig config;
  config.purge_target_utilization = 0.0;  // no byte target: purge all expired
  core::Service service(trace::UserRegistry::with_synthetic_users(2, "user"),
                        config);
  service.register_operation_type("job_submission");
  service.register_outcome_type("publication");

  // user0's scratch: three stale files (200 days old) plus a whole stale
  // "campaign" directory.
  auto stale = [&](const std::string& path, std::uint64_t mib) {
    fs::FileMeta meta;
    meta.owner = 0;
    meta.size_bytes = mib << 20;
    meta.atime = now - util::days(200);
    meta.ctime = meta.atime;
    service.vfs().create(path, meta);
  };
  const std::string home = service.registry().home_dir(0);
  stale(home + "/raw_input.dat", 100);
  stale(home + "/tmp_scratch.dat", 100);
  stale(home + "/campaign2025/run1/out.h5", 100);
  stale(home + "/campaign2025/run2/out.h5", 100);

  // The administrator's reservation file: one exact file plus a directory
  // subtree.
  const std::string list_path = "/tmp/activedr_reservations.txt";
  {
    std::ofstream out(list_path);
    out << "# reservation list, one path per line\n";
    out << home << "/raw_input.dat\n";
    out << home << "/campaign2025\n";  // exempts the whole subtree
  }
  const auto reservations = retention::ExemptionList::load(list_path);
  std::cout << "Loaded " << reservations.size() << " reservations:\n";
  for (const auto& p : reservations.reserved_paths()) {
    std::cout << "  " << p << "\n";
  }
  for (const auto& p : reservations.reserved_paths()) service.reserve(p);

  // Purge with no byte target: everything beyond the 90-day lifetime goes —
  // except the reserved paths.
  const auto report = service.purge(now);
  report.print(std::cout);

  std::cout << "raw_input.dat survived:        "
            << service.vfs().exists(home + "/raw_input.dat") << "\n";
  std::cout << "campaign2025/run1/out.h5 kept: "
            << service.vfs().exists(home + "/campaign2025/run1/out.h5") << "\n";
  std::cout << "tmp_scratch.dat purged:        "
            << !service.vfs().exists(home + "/tmp_scratch.dat") << "\n";
  return 0;
}
