// Sustained-load latency harness (DESIGN.md §12).
//
// Drives the sim::run_load ramp — concurrent producers enqueueing trace
// events into ActivityStore's ingest queue while the main thread fires
// evaluate/purge triggers — then runs a short identity matrix (the same
// fixed-rate level at 1, 2, and 4 producers) and writes BENCH_load.json
// for tools/run_bench.sh to gate.
//
// Exit status is nonzero when any level or identity-matrix run diverges
// from the serial replay, so the per-push CI smoke can use this binary
// directly as a correctness gate.
//
// Flags (util::Config style, all optional):
//   --load-rate N          first ramp level, events/sec      (default 4000)
//   --load-duration S      wall seconds per level            (default 1.0)
//   --trigger-interval S   seconds between triggers          (default 0.1)
//   --p99-budget-ms MS     sustainability budget             (default 50)
//   --ramp-levels N / --ramp-factor X
//   --users N / --files-per-user N / --producers N / --seed N
//   --skip-identity-matrix  (timing-only runs)
//   --bench-json PATH      output path (default BENCH_load.json)

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "sim/loadgen.hpp"
#include "util/config.hpp"
#include "util/table.hpp"

namespace {

adr::sim::LoadGenConfig config_from(const adr::util::Config& raw) {
  adr::sim::LoadGenConfig c;
  c.users = static_cast<std::size_t>(
      raw.get_int("users", static_cast<std::int64_t>(c.users)));
  c.files_per_user = static_cast<std::size_t>(raw.get_int(
      "files-per-user", static_cast<std::int64_t>(c.files_per_user)));
  c.seed = static_cast<std::uint64_t>(
      raw.get_int("seed", static_cast<std::int64_t>(c.seed)));
  c.producers = static_cast<std::size_t>(
      raw.get_int("producers", static_cast<std::int64_t>(c.producers)));
  c.events_per_sec = raw.get_double("load-rate", c.events_per_sec);
  c.duration_seconds = raw.get_double("load-duration", c.duration_seconds);
  c.trigger_interval_seconds =
      raw.get_double("trigger-interval", c.trigger_interval_seconds);
  c.p99_budget_ms = raw.get_double("p99-budget-ms", c.p99_budget_ms);
  c.ramp_levels = static_cast<std::size_t>(
      raw.get_int("ramp-levels", static_cast<std::int64_t>(c.ramp_levels)));
  c.ramp_factor = raw.get_double("ramp-factor", c.ramp_factor);
  return c;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace adr;
  const util::Config raw = util::Config::from_args(argc, argv);
  const sim::LoadGenConfig config = config_from(raw);

  std::printf(
      "bench_load: %zu users, %zu producers, start rate %.0f ev/s, "
      "%.2fs/level, trigger every %.2fs, p99 budget %.1fms\n",
      config.users, config.producers, config.events_per_sec,
      config.duration_seconds, config.trigger_interval_seconds,
      config.p99_budget_ms);

  const sim::LoadResult result = sim::run_load(config);

  util::Table table("Sustained load ramp (" +
                    std::to_string(config.producers) + " producers)");
  table.set_headers({"Target ev/s", "Achieved", "Triggers", "p50 ms", "p99 ms",
                     "p999 ms", "Identical", "Sustainable"});
  for (const sim::LoadLevelResult& level : result.levels) {
    table.add_row({fmt(level.target_rate), fmt(level.achieved_rate),
                   std::to_string(level.triggers), fmt(level.p50_ms),
                   fmt(level.p99_ms), fmt(level.p999_ms),
                   level.ranks_identical ? "yes" : "NO (BUG)",
                   level.sustainable ? "yes" : "no"});
  }
  table.print(std::cout);
  std::printf("max sustainable rate: %.0f ev/s, ranks identical: %s\n",
              result.max_sustainable_rate,
              result.ranks_identical ? "yes" : "NO (BUG)");

  // Identity matrix: the concurrent-vs-serial contract must hold at every
  // producer count, not just the ramp's. Short fixed-rate levels keep this
  // cheap enough for the per-push smoke.
  const std::vector<std::size_t> matrix_producers = {1, 2, 4};
  std::vector<bool> matrix_identical;
  bool identity_ok = result.ranks_identical;
  if (!raw.get_bool("skip-identity-matrix", false)) {
    for (const std::size_t producers : matrix_producers) {
      sim::LoadGenConfig check = config;
      check.producers = producers;
      check.duration_seconds = std::min(config.duration_seconds, 0.5);
      check.ramp_levels = 1;
      const sim::LoadLevelResult level =
          sim::run_load_level(check, config.events_per_sec);
      matrix_identical.push_back(level.ranks_identical);
      identity_ok = identity_ok && level.ranks_identical;
      std::printf("identity @ %zu producers: %s\n", producers,
                  level.ranks_identical ? "yes" : "NO (BUG)");
    }
  }

  const std::string json_path =
      raw.get_string("bench-json", "BENCH_load.json");
  std::ofstream out(json_path);
  out << "{\n"
      << "  \"bench\": \"load_harness\",\n"
      << "  \"users\": " << config.users << ",\n"
      << "  \"seed\": " << config.seed << ",\n"
      << "  \"producers\": " << config.producers << ",\n"
      << "  \"start_rate\": " << config.events_per_sec << ",\n"
      << "  \"duration_seconds\": " << config.duration_seconds << ",\n"
      << "  \"trigger_interval_seconds\": " << config.trigger_interval_seconds
      << ",\n"
      << "  \"p99_budget_ms\": " << config.p99_budget_ms << ",\n"
      << "  \"levels\": [\n";
  for (std::size_t i = 0; i < result.levels.size(); ++i) {
    const sim::LoadLevelResult& level = result.levels[i];
    out << "    {\"target_rate\": " << level.target_rate
        << ", \"achieved_rate\": " << level.achieved_rate
        << ", \"events\": " << level.events
        << ", \"triggers\": " << level.triggers
        << ", \"p50_ms\": " << level.p50_ms
        << ", \"p99_ms\": " << level.p99_ms
        << ", \"p999_ms\": " << level.p999_ms
        << ", \"max_ms\": " << level.max_ms
        << ", \"wall_seconds\": " << level.wall_seconds
        << ", \"ranks_identical\": "
        << (level.ranks_identical ? "true" : "false")
        << ", \"sustainable\": " << (level.sustainable ? "true" : "false")
        << "}" << (i + 1 < result.levels.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"max_sustainable_rate\": " << result.max_sustainable_rate
      << ",\n"
      << "  \"ranks_identical\": "
      << (result.ranks_identical ? "true" : "false") << ",\n"
      << "  \"identity_producer_counts\": [";
  for (std::size_t i = 0; i < matrix_identical.size(); ++i) {
    out << matrix_producers[i]
        << (i + 1 < matrix_identical.size() ? ", " : "");
  }
  out << "],\n"
      << "  \"identity_all_identical\": " << (identity_ok ? "true" : "false")
      << "\n}\n";
  std::printf("wrote %s\n", json_path.c_str());

  if (!identity_ok) {
    std::fprintf(stderr,
                 "bench_load: FAIL — concurrent ranks diverged from serial "
                 "replay\n");
    return 1;
  }
  return 0;
}
