#pragma once
// Exact latency statistics for the benchmark driver.
//
// Percentiles are order statistics over the sorted per-call samples, never
// bucket estimates: obs::Histogram's x4 buckets snap a p50 to a bucket
// midpoint, which hides changes smaller than a factor of two.

#include <cstddef>
#include <vector>

namespace perfbench {

/// A reported percentile must have at least this many samples ranked above
/// it; below that, the "p90" of a short run would really be its maximum.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile: the ceil(q * n)-th smallest sample (1-based),
/// so p90 of 100 samples is the 90th order statistic. Throws
/// std::invalid_argument when q is outside (0, 1] or when fewer than
/// kMinSamplesBeyond samples rank above the selected one.
double percentile(std::vector<double> samples, double q);

}  // namespace perfbench
