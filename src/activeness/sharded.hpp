#pragma once
// Compatibility alias: perfbench's full-evaluation oracle
// (check_full_eval) is built as ShardedEvaluator(catalog, params, kFull, 1).
// User-range sharding is gone (DESIGN.md §11), so the fourth `shards`
// argument is ignored and the class is a plain IncrementalEvaluator. New
// code uses that directly.

#include <cstddef>

#include "activeness/incremental.hpp"

namespace adr::activeness {

class ShardedEvaluator : public IncrementalEvaluator {
 public:
  ShardedEvaluator(const ActivityCatalog& catalog, EvaluationParams base_params,
                   EvalMode mode, std::size_t /*shards, ignored*/)
      : IncrementalEvaluator(catalog, base_params, mode) {}
};

}  // namespace adr::activeness
