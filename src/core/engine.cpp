#include "core/engine.hpp"

namespace adr::core {

ServiceConfig Engine::to_service_config(const Options& options) {
  ServiceConfig config;
  config.lifetime_days = options.lifetime_days;
  config.purge_target_utilization = options.purge_target_utilization;
  config.retrospective_passes = options.retrospective_passes;
  config.retrospective_decay = options.retrospective_decay;
  config.lifetime_mode = options.lifetime_mode;
  config.scheme = options.scheme;
  config.max_periods = options.max_periods;
  config.eval_mode = options.eval_mode;
  return config;
}

Engine::Engine(trace::UserRegistry registry, Options options)
    : options_(options),
      service_(std::move(registry), to_service_config(options)) {}

}  // namespace adr::core
