#pragma once
// The "scratch-as-a-cache" strategy (§2, Monti et al. [26]).
//
// Under this model a file may only stay in scratch while an application is
// using it; everything else is offloaded to the archive immediately. The
// paper excludes the approach because the constant load/offload traffic
// burdens the storage system and lengthens workflows — implementing it lets
// the related-work bench *quantify* that exclusion argument (see
// bench_related_work's restore-traffic column).
//
// In trace-replay terms "in use" means accessed within a short horizon (a
// running job's span); every trigger evicts all files idle longer than the
// horizon, with no byte target — the cache holds only the working set.

#include <string>

#include "retention/policy.hpp"

namespace adr::retention {

struct ScratchCacheConfig {
  /// How long after its last access a file still counts as "in use by a
  /// job". Titan jobs are capped at ~24h; default 2 days is generous.
  int in_use_horizon_days = 2;
};

class ScratchCachePolicy {
 public:
  explicit ScratchCachePolicy(ScratchCacheConfig config);

  /// Evict everything idle beyond the horizon, in system scan order. The
  /// byte target is ignored: a cache holds exactly the working set, no more
  /// and no less. The report's rows follow `plan`'s groups.
  PurgeReport run(fs::Vfs& vfs, util::TimePoint now,
                  std::uint64_t target_purge_bytes,
                  const activeness::ScanPlan& plan,
                  ApplyOptions options = {}) const;

  const ScratchCacheConfig& config() const { return config_; }
  std::string name() const {
    return "ScratchCache-" + std::to_string(config_.in_use_horizon_days) + "d";
  }

 private:
  ScratchCacheConfig config_;
};

}  // namespace adr::retention
