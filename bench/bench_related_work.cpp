// Related-work shootout (§2): all four retention strategy families on the
// same year replay —
//   * FLT (strict, the deployed baseline),
//   * value-based (Wijnhoven/Turczyk-style weighted file scoring — the
//     family the paper excludes for lacking a value consensus),
//   * scratch-as-a-cache (Monti et al. — excluded for its load/offload
//     burden),
//   * ActiveDR.
// Columns quantify the paper's exclusion arguments: the cache approach's
// restore traffic and modeled user wait, and how each policy distributes
// pain across the activeness groups.

#include <iostream>

#include "common/scenario_cache.hpp"
#include "sim/experiment.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace adr;
  bench::BenchOptions options = bench::BenchOptions::from_args(argc, argv);
  bench::print_banner(
      "Related work: the four retention families head-to-head", "§2",
      options);

  const synth::TitanScenario& scenario = bench::shared_scenario(options.titan);
  sim::EmulatorConfig emu;
  emu.purge_interval_days = options.experiment.purge_interval_days;
  // Each strategy replays on its own Service; FLT runs strict and the
  // cache ignores byte targets, so both run without one.
  const std::pair<core::Policy, bool> runs[] = {
      {core::Policy::kFlt, false},
      {core::Policy::kValue, true},
      {core::Policy::kScratchCache, false},
      {core::Policy::kActiveDr, true},
  };
  std::vector<sim::EmulationResult> results;
  for (const auto& [policy, targeted] : runs) {
    sim::ExperimentConfig config = options.experiment;
    if (!targeted) config.purge_target_utilization = 0.0;
    const auto service = sim::make_service(scenario, config);
    results.push_back(sim::replay(scenario, *service, policy, emu));
  }

  util::Table table("Year replay, one row per strategy");
  table.set_headers({"Policy", "Misses", "Days >5%", "Final util",
                     "Restored", "Restore wait (h)", "Active users hit"});
  for (const auto& r : results) {
    std::size_t active_hit = 0;
    for (std::size_t g = 0; g < 3; ++g) {
      active_hit += r.groups[g].unique_affected_users;
    }
    table.add_row(
        {r.policy, util::fmt_int(static_cast<std::int64_t>(r.total_misses)),
         util::fmt_int(static_cast<std::int64_t>(
             sim::days_above(r.daily, 0.05))),
         util::format_percent(static_cast<double>(r.final_bytes) /
                              static_cast<double>(scenario.capacity_bytes)),
         util::format_bytes(static_cast<double>(r.archive.restored_bytes)),
         util::fmt_double(r.archive.restore_hours, 1),
         util::fmt_int(static_cast<std::int64_t>(active_hit))});
  }
  table.print(std::cout);
  std::cout
      << "Shape check (the paper's §2 arguments, quantified):\n"
         "  * scratch-as-a-cache restores orders of magnitude more bytes —\n"
         "    the load/offload burden that got it excluded;\n"
         "  * value-based lands between FLT and ActiveDR but needs the\n"
         "    weight/threshold configuration the paper calls impractical;\n"
         "  * ActiveDR minimizes misses for active users at the same "
         "target.\n";
  return 0;
}
