// Purge exemption: the reservation-list workflow of §3.4.
//
// The administrator keeps a plain-text list of reserved paths; ActiveDR
// loads it into a compact prefix tree and skips those files during scans.
// Renaming a reserved file silently cancels the reservation — the paths are
// the contract.

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/service.hpp"

using namespace adr;

namespace {

/// A fresh directory with a unique name under the system temp directory,
/// removed with everything in it when the guard goes out of scope.
class TempDir {
 public:
  TempDir() {
    const std::string pattern =
        (std::filesystem::temp_directory_path() / "activedr_example.XXXXXX")
            .string();
    std::vector<char> name(pattern.begin(), pattern.end());
    name.push_back('\0');
    if (mkdtemp(name.data()) == nullptr) {
      throw std::runtime_error("cannot create a directory from " + pattern);
    }
    path_ = name.data();
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  ~TempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

int run() {
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
  const TempDir dir;
  const std::string list_path = dir.path() + "/reservations.txt";
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

}  // namespace

int main() {
  // Catching here unwinds run()'s stack, so the temp directory is removed
  // on the error path too.
  try {
    return run();
  } catch (const std::exception& e) {
    std::cerr << "purge_exemption: " << e.what() << "\n";
    return 1;
  }
}
