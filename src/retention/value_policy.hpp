#pragma once
// The value-based retention family (§2's second strategy class).
//
// The paper surveys value-based approaches (Wijnhoven et al., Turczyk et
// al., ILM work) and excludes them for lacking a consensus file-value
// definition — every site would weight the attributes differently. We
// implement the family as a weighted scoring policy so the exclusion
// argument itself is testable: the weights ARE the configuration burden the
// paper criticizes.
//
// value(f) = w_recency * exp(-age / tau)
//          + w_size    * (1 - size / max_size)        (small files valuable)
//          + w_freq    * min(1, accesses / freq_ref)
//          + w_type    * type_score(extension)
//
// A run sorts every file by ascending value (ties by path) and purges until
// the byte target is met (no target: purges every file below
// `value_floor`); the apply is PurgeApply's.

#include <map>
#include <string>

#include "retention/policy.hpp"

namespace adr::retention {

struct ValueConfig {
  double w_recency = 0.5;
  double w_size = 0.1;
  double w_freq = 0.3;
  double w_type = 0.1;

  /// Recency decay constant (days): value halves roughly every tau*ln2.
  double tau_days = 30.0;
  /// Access count treated as "fully valuable".
  double freq_ref = 10.0;
  /// Size normalization ceiling (bytes).
  double max_size_bytes = 1e12;

  /// Per-extension scores in [0,1]; files with unlisted extensions get
  /// `default_type_score`. Example: {".h5", 0.9} keeps datasets longer
  /// than {".tmp", 0.0}.
  std::map<std::string, double> type_scores;
  double default_type_score = 0.5;

  /// No-target mode: purge every file whose value falls below this.
  double value_floor = 0.2;
};

class ValuePolicy {
 public:
  explicit ValuePolicy(ValueConfig config);

  /// The value score of one file at time `now` (exposed for tests/tuning).
  double value_of(const std::string& path, const fs::FileMeta& meta,
                  util::TimePoint now) const;

  /// Purge ascending-value files until `target_purge_bytes` are freed
  /// (0 = purge everything below the value floor). The report's rows follow
  /// `plan`'s groups.
  PurgeReport run(fs::Vfs& vfs, util::TimePoint now,
                  std::uint64_t target_purge_bytes,
                  const activeness::ScanPlan& plan,
                  ApplyOptions options = {}) const;

  const ValueConfig& config() const { return config_; }
  std::string name() const { return "ValueBased"; }

 private:
  ValueConfig config_;
};

}  // namespace adr::retention
