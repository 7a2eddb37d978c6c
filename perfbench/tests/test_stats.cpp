#include "stats.hpp"

#include <algorithm>
#include <numeric>
#include <random>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace perfbench {
namespace {

std::vector<double> shuffled_ranks(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // value == 1-based rank
  std::mt19937 rng(7);
  std::shuffle(v.begin(), v.end(), rng);
  return v;
}

TEST(Percentile, P90OfHundredIsNinetiethOrderStatistic) {
  EXPECT_EQ(percentile(shuffled_ranks(100), 0.90), 90.0);
  EXPECT_EQ(percentile(shuffled_ranks(100), 0.50), 50.0);
  EXPECT_EQ(percentile(shuffled_ranks(120), 0.90), 108.0);
}

TEST(Percentile, TooFewSamplesIsAnErrorNotTheMax) {
  // 99 samples: p90 is rank 90, with only 9 samples beyond it.
  EXPECT_THROW(percentile(shuffled_ranks(99), 0.90), std::invalid_argument);
  EXPECT_THROW(percentile(shuffled_ranks(10), 0.99), std::invalid_argument);
  EXPECT_THROW(percentile({}, 0.50), std::invalid_argument);
  EXPECT_THROW(percentile(shuffled_ranks(100), 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
