// Ablation B: the recency exponent in Eq. 5 — (b_e)^e vs no recency
// weighting vs a capped exponent. Shows how the weighting shifts the user
// classification and the resulting miss profile.

#include <iostream>

#include "common/scenario_cache.hpp"
#include "sim/emulator.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace adr;
  bench::BenchOptions options = bench::BenchOptions::from_args(argc, argv);
  bench::print_banner("Ablation: Eq. 5 exponent scheme", "§3.2 design choice",
                      options);

  const synth::TitanScenario& scenario = bench::shared_scenario(options.titan);
  const double n = static_cast<double>(scenario.registry.size());

  const std::pair<activeness::ExponentScheme, const char*> schemes[] = {
      {activeness::ExponentScheme::kPaperExponent, "paper (b_e)^e"},
      {activeness::ExponentScheme::kCappedLinear, "capped (b_e)^min(e,8)"},
      {activeness::ExponentScheme::kUniform, "uniform (b_e)^1"},
  };

  util::Table matrix("Group shares at replay start (90-day periods)");
  matrix.set_headers({"Scheme", "G(1)", "G(2)", "G(3)", "G(4)"});
  for (const auto& [scheme, label] : schemes) {
    core::ServiceConfig config;
    config.lifetime_days = options.experiment.lifetime_days;
    config.scheme = scheme;
    core::Service service(scenario.registry, config);
    sim::load_scenario(service, scenario);
    service.evaluate(scenario.sim_begin);
    std::vector<std::string> row{label};
    for (const std::size_t count : service.group_counts()) {
      row.push_back(util::format_percent(static_cast<double>(count) / n, 1));
    }
    matrix.add_row(std::move(row));
  }
  matrix.print(std::cout);

  util::Table misses("Year-replay misses per scheme (ActiveDR, 50% target)");
  misses.set_headers({"Scheme", "Total misses", "Active-group misses"});
  for (const auto& [scheme, label] : schemes) {
    sim::ExperimentConfig config = options.experiment;
    config.scheme = scheme;
    const sim::EmulationResult r = sim::run_activedr(scenario, config);
    std::size_t active = 0;
    for (const auto& d : r.daily) {
      active += d.misses_by_group[0] + d.misses_by_group[1] +
                d.misses_by_group[2];
    }
    misses.add_row({label,
                    util::fmt_int(static_cast<std::int64_t>(r.total_misses)),
                    util::fmt_int(static_cast<std::int64_t>(active))});
  }
  misses.print(std::cout);
  return 0;
}
