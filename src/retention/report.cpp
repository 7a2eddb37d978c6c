#include "retention/report.hpp"

#include <ostream>

#include "util/io.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace adr::retention {

std::uint64_t PurgeReport::total_retained_bytes() const {
  std::uint64_t sum = 0;
  for (const auto& g : by_group) sum += g.retained_bytes;
  return sum;
}

std::size_t PurgeReport::total_users_affected() const {
  std::size_t sum = 0;
  for (const auto& g : by_group) sum += g.users_affected;
  return sum;
}

void PurgeReport::print(std::ostream& out) const {
  util::Table t("Purge report: " + policy + " @ " + util::format_date(when));
  t.set_headers({"Group", "Purged", "Purged files", "Retained",
                 "Retained files", "Affected users", "Users"});
  for (std::size_t gi = 0; gi < activeness::kGroupCount; ++gi) {
    const auto& g = by_group[gi];
    t.add_row({activeness::group_name(static_cast<activeness::UserGroup>(gi)),
               util::format_bytes(static_cast<double>(g.purged_bytes)),
               util::fmt_int(static_cast<std::int64_t>(g.purged_files)),
               util::format_bytes(static_cast<double>(g.retained_bytes)),
               util::fmt_int(static_cast<std::int64_t>(g.retained_files)),
               util::fmt_int(static_cast<std::int64_t>(g.users_affected)),
               util::fmt_int(static_cast<std::int64_t>(g.users_total))});
  }
  t.print(out);
  out << "  total purged: " << util::format_bytes(static_cast<double>(purged_bytes))
      << " (" << purged_files << " files)";
  if (target_purge_bytes > 0) {
    out << ", target "
        << util::format_bytes(static_cast<double>(target_purge_bytes))
        << (target_reached ? " [reached]" : " [NOT reached]");
  }
  if (retrospective_passes_used > 0) {
    out << ", retrospective passes: " << retrospective_passes_used;
  }
  if (exempted_files > 0) {
    out << ", exempted files: " << exempted_files;
  }
  if (phases.total_seconds() > 0.0) {
    out << "\n  phase timings: scan "
        << util::format_duration_seconds(phases.scan_seconds) << ", apply "
        << util::format_duration_seconds(phases.apply_seconds);
  }
  out << '\n';
}

void PurgeReport::save_victims(const std::string& path) const {
  util::io::AtomicWriter writer(
      path, {.fsync = util::io::default_fsync(), .footer = false});
  for (const auto& victim : victim_paths) writer.write_line(victim);
  writer.commit();
}

}  // namespace adr::retention
