#include "retention/cache_policy.hpp"

namespace adr::retention {

ScratchCachePolicy::ScratchCachePolicy(ScratchCacheConfig config)
    : config_(config) {}

PurgeReport ScratchCachePolicy::run(fs::Vfs& vfs, util::TimePoint now,
                                    std::uint64_t /*target_purge_bytes*/,
                                    const activeness::ScanPlan& plan,
                                    ApplyOptions options) const {
  // The cache semantic has no byte target.
  PurgeApply apply(vfs, plan, name(), now, 0, options);
  for (const Victim& v : idle_in_scan_order(
           vfs, now, util::days(config_.in_use_horizon_days))) {
    apply.take(v.id, v.owner, v.size_bytes);
  }
  return apply.finish();
}

}  // namespace adr::retention
