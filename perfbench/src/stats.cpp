#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace perfbench {

double percentile(std::vector<double> samples, double q) {
  if (!(q > 0.0 && q <= 1.0)) {
    throw std::invalid_argument("percentile: q must be in (0, 1]");
  }
  const std::size_t n = samples.size();
  // The epsilon keeps q * n from rounding up past an exact integer rank
  // (0.9 * 100 must select rank 90, not 91).
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  if (n == 0 || rank == 0 || n - rank < kMinSamplesBeyond) {
    throw std::invalid_argument(
        "percentile: " + std::to_string(n) + " samples leave fewer than " +
        std::to_string(kMinSamplesBeyond) + " beyond p" +
        std::to_string(static_cast<int>(std::lround(q * 100.0))));
  }
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

}  // namespace perfbench
