// Ablation C: the two places the paper's spec is ambiguous and our defaults
// are a documented choice (DESIGN.md §5):
//   * StaleHandling — what Eq. 4 does with activities older than the
//     m-period window (clamp into the oldest period vs drop);
//   * LifetimeMode  — whether Eq. 7 multiplies inactive categories' Φ < 1
//     into the lifetime (literal) or treats them as neutral (default).
// Reports the classification and the year-replay outcome under each.

#include <iostream>

#include "common/scenario_cache.hpp"
#include "sim/emulator.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace adr;
  bench::BenchOptions options = bench::BenchOptions::from_args(argc, argv);
  bench::print_banner(
      "Ablation: stale-activity handling and Eq. 7 lifetime semantics",
      "§3.2/§3.4 ambiguities", options);

  const synth::TitanScenario& scenario = bench::shared_scenario(options.titan);
  const double n = static_cast<double>(scenario.registry.size());

  // --- StaleHandling: its effect on the Fig. 5 matrix -----------------------
  util::Table matrix("Group shares under each stale-activity rule");
  matrix.set_headers({"Rule", "Period", "G(1)", "G(2)", "G(3)", "G(4)"});
  const std::pair<activeness::StaleHandling, const char*> rules[] = {
      {activeness::StaleHandling::kClampOldest, "clamp-oldest (default)"},
      {activeness::StaleHandling::kDrop, "drop"},
  };
  for (const auto& [rule, label] : rules) {
    for (const int d : {7, 90}) {
      core::ServiceConfig config;
      config.lifetime_days = d;
      config.stale = rule;
      core::Service service(scenario.registry, config);
      sim::load_scenario(service, scenario);
      service.evaluate(scenario.sim_begin);
      std::vector<std::string> row{label, std::to_string(d) + "d"};
      for (const std::size_t count : service.group_counts()) {
        row.push_back(util::format_percent(static_cast<double>(count) / n, 1));
      }
      matrix.add_row(std::move(row));
    }
  }
  matrix.print(std::cout);
  std::cout << "Shape check: with `drop`, the outcome-active share collapses "
               "at short periods (a months-old publication no longer "
               "counts), diverging from Fig. 5's stable ~3%\n\n";

  // --- LifetimeMode: its effect on the year replay ---------------------------
  util::Table replay("Year replay under each Eq. 7 reading (ActiveDR)");
  replay.set_headers({"Lifetime mode", "Total misses",
                      "Both-Inactive misses", "Active-group misses",
                      "Affected inactive users"});
  const std::pair<activeness::LifetimeMode, const char*> modes[] = {
      {activeness::LifetimeMode::kActiveCategoriesOnly,
       "active-categories-only (default)"},
      {activeness::LifetimeMode::kLiteralEq7, "literal Eq. 7"},
  };
  for (const auto& [mode, label] : modes) {
    sim::ExperimentConfig config = options.experiment;
    config.lifetime_mode = mode;
    const sim::EmulationResult r = sim::run_activedr(scenario, config);
    std::size_t bi = 0, active = 0;
    for (const auto& d : r.daily) {
      bi += d.misses_by_group[static_cast<std::size_t>(
          activeness::UserGroup::kBothInactive)];
      active += d.misses_by_group[0] + d.misses_by_group[1] +
                d.misses_by_group[2];
    }
    replay.add_row(
        {label, util::fmt_int(static_cast<std::int64_t>(r.total_misses)),
         util::fmt_int(static_cast<std::int64_t>(bi)),
         util::fmt_int(static_cast<std::int64_t>(active)),
         util::fmt_int(static_cast<std::int64_t>(
             r.groups[static_cast<std::size_t>(
                          activeness::UserGroup::kBothInactive)]
                 .unique_affected_users))});
  }
  replay.print(std::cout);
  std::cout << "Shape check: the literal reading slashes inactive users' "
               "lifetimes outright, so their misses rise\n";
  return 0;
}
