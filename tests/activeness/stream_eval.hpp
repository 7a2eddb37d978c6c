#pragma once
// Eq. 1–5 on a bare activity stream, for the tests: builds the prefix-impact
// aggregate an ActivityStore keeps and runs the production kernel,
// evaluate_stream_indexed, so a test can state a stream and read its rank
// without building a store.

#include <span>
#include <vector>

#include "activeness/evaluator.hpp"

namespace adr::activeness {

/// The stream's prefix-impact aggregate (ActivityStore::prefix's layout).
inline std::vector<double> stream_prefix(std::span<const Activity> stream) {
  std::vector<double> prefix(stream.size() + 1, 0.0);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    prefix[i + 1] = prefix[i] + stream[i].impact;
  }
  return prefix;
}

/// `stream` must be time-sorted and end at or before params.now (the
/// trimmed stream Evaluator::evaluate_user hands the kernel).
inline Rank evaluate_stream(std::span<const Activity> stream,
                            const EvaluationParams& params) {
  return evaluate_stream_indexed(stream, stream_prefix(stream), params);
}

}  // namespace adr::activeness
