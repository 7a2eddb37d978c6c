#include "retention/value_policy.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "fs/purge_index.hpp"

namespace adr::retention {

ValuePolicy::ValuePolicy(ValueConfig config) : config_(std::move(config)) {}

namespace {

std::string extension_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::size_t dot = path.find_last_of('.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return "";
  }
  return path.substr(dot);
}

}  // namespace

double ValuePolicy::value_of(const std::string& path, const fs::FileMeta& meta,
                             util::TimePoint now) const {
  const double age_days =
      std::max(0.0, static_cast<double>(now - meta.atime) / 86400.0);
  const double recency = std::exp(-age_days / config_.tau_days);

  const double size_term = std::clamp(
      1.0 - static_cast<double>(meta.size_bytes) / config_.max_size_bytes, 0.0,
      1.0);

  const double freq = std::min(
      1.0, static_cast<double>(meta.access_count) / config_.freq_ref);

  double type_score = config_.default_type_score;
  const auto it = config_.type_scores.find(extension_of(path));
  if (it != config_.type_scores.end()) type_score = it->second;

  return config_.w_recency * recency + config_.w_size * size_term +
         config_.w_freq * freq + config_.w_type * type_score;
}

PurgeReport ValuePolicy::run(fs::Vfs& vfs, util::TimePoint now,
                             std::uint64_t target_purge_bytes,
                             const activeness::ScanPlan& plan,
                             ApplyOptions options) const {
  PurgeApply apply(vfs, plan, name(), now, target_purge_bytes, options);
  struct Scored {
    double value;
    Victim victim;
  };
  std::vector<Scored> scored;
  scored.reserve(vfs.file_count());
  vfs.for_each([&](const std::string& path, const fs::FileMeta& meta) {
    scored.push_back({value_of(path, meta, now),
                      {meta.path_id, meta.owner, meta.size_bytes}});
  });
  const fs::PurgeIndex& index = vfs.purge_index();
  std::sort(scored.begin(), scored.end(),
            [&index](const Scored& a, const Scored& b) {
              if (a.value != b.value) return a.value < b.value;
              // Deterministic ties.
              return index.path(a.victim.id) < index.path(b.victim.id);
            });

  for (const Scored& s : scored) {
    // Sorted: without a target, the rest are at or above the floor.
    if (target_purge_bytes == 0 ? s.value >= config_.value_floor
                                : apply.done()) {
      break;
    }
    apply.take(s.victim.id, s.victim.owner, s.victim.size_bytes);
  }
  return apply.finish();
}

}  // namespace adr::retention
