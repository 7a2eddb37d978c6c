#include "retention/flt.hpp"

#include <vector>

#include "fs/purge_index.hpp"
#include "obs/span.hpp"
#include "util/logging.hpp"

namespace adr::retention {

FltPolicy::FltPolicy(FltConfig config) : config_(config) {}

std::string FltPolicy::name() const {
  return "FLT-" + std::to_string(config_.lifetime_days) + "d";
}

PurgeReport FltPolicy::run(fs::Vfs& vfs, util::TimePoint now,
                           std::uint64_t target_purge_bytes,
                           const activeness::ScanPlan& plan,
                           ApplyOptions options) const {
  PurgeApply apply(vfs, plan, name(), now, target_purge_bytes, options);
  const util::Duration lifetime = util::days(config_.lifetime_days);
  std::vector<Victim> victims;
  {
    obs::TimerSpan scan_span("policy.scan");
    // Strict runs purge the whole expired set, so its order is unobservable
    // and the index answers it; purge-to-target runs purge in the
    // documented component-order "system scan order".
    if (target_purge_bytes == 0) {
      for (const auto& oe :
           vfs.purge_index().collect_expired_all(now - lifetime)) {
        victims.push_back({oe.entry.id, oe.owner, oe.entry.size_bytes});
      }
    } else {
      victims = idle_in_scan_order(vfs, now, lifetime);
    }
    apply.report().phases.scan_seconds += scan_span.stop();
  }

  obs::TimerSpan apply_span("policy.apply");
  for (const Victim& v : victims) {
    if (apply.done()) break;
    apply.take(v.id, v.owner, v.size_bytes);
  }
  apply.report().phases.apply_seconds += apply_span.stop();

  PurgeReport report = apply.finish();
  if (!report.target_reached) {
    ADR_INFO << report.policy << ": purge target not reached ("
             << apply.remaining()
             << " bytes short; only expired files are eligible)";
  }
  return report;
}

}  // namespace adr::retention
