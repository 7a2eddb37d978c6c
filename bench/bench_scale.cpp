// Million-user scale tier bench (DESIGN.md §15).
//
// Drives sim::run_scale — streaming synthesis into the live service's Vfs
// file table and ingest queues, purge triggers at a simulated cadence —
// across a list of user-count tiers, and writes BENCH_scale.json (peak RSS,
// events/sec, trigger p50/p99 per tier) for tools/run_bench.sh to gate.
//
// Exit status is nonzero when the streamed-vs-materialized identity anchor
// fails or any tier's peak RSS exceeds the budget, so CI can use the binary
// directly as a gate.
//
// Flags (util::Config style, all optional):
//   --users LIST           comma-separated tiers     (default 10000,100000,1000000)
//   --files-per-user N     backfill files per user   (default 10)
//   --events-per-user-day X                          (default 2.0)
//   --span-days N / --trigger-days X / --seed N
//   --rss-budget-gb X      peak-RSS assert per tier  (default 4.0, 0 = off)
//   --skip-identity        skip the 600-user identity anchor
//   --bench-json PATH      output path (default BENCH_scale.json)
//
// The 1M tier is single-thread-bound on the driver; on a multi-core runner
// it completes in minutes, on a 1-core container expect tens of minutes.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/scale.hpp"
#include "util/config.hpp"
#include "util/table.hpp"

namespace {

std::vector<std::size_t> parse_tiers(const std::string& list) {
  std::vector<std::size_t> out;
  std::stringstream ss(list);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(std::stoull(item));
  }
  return out;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

std::string mib(std::uint64_t bytes) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f",
                static_cast<double>(bytes) / (1024.0 * 1024.0));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace adr;
  const util::Config raw = util::Config::from_args(argc, argv);

  const std::vector<std::size_t> tiers =
      parse_tiers(raw.get_string("users", "10000,100000,1000000"));

  sim::ScaleConfig base;
  base.initial_files_per_user = static_cast<std::size_t>(raw.get_int(
      "files-per-user", static_cast<std::int64_t>(base.initial_files_per_user)));
  base.events_per_user_day =
      raw.get_double("events-per-user-day", base.events_per_user_day);
  base.sim_span_days =
      static_cast<int>(raw.get_int("span-days", base.sim_span_days));
  base.trigger_every_days =
      raw.get_double("trigger-days", base.trigger_every_days);
  base.seed = static_cast<std::uint64_t>(
      raw.get_int("seed", static_cast<std::int64_t>(base.seed)));

  const double rss_budget_gb = raw.get_double("rss-budget-gb", 4.0);
  const auto rss_budget_bytes = static_cast<std::uint64_t>(
      rss_budget_gb * 1024.0 * 1024.0 * 1024.0);

  // The correctness anchor first: streamed ingest must match the
  // materialized replay event for event, rank for rank, victim for victim.
  sim::ScaleIdentityResult identity;
  bool identity_ran = false;
  if (!raw.get_bool("skip-identity", false)) {
    sim::ScaleConfig small = base;
    small.users = 600;
    small.initial_files_per_user = 20;
    identity = sim::check_scale_identity(small);
    identity_ran = true;
    std::printf(
        "identity @ 600 users: events %s, ranks %s, victims %s (%zu "
        "triggers)\n",
        identity.events_identical ? "identical" : "DIVERGED",
        identity.ranks_identical ? "identical" : "DIVERGED",
        identity.victims_identical ? "identical" : "DIVERGED",
        identity.triggers);
  }

  util::Table table("Scale tiers");
  table.set_headers({"Users", "Events", "Files", "ev/s", "Triggers", "p50 ms",
                     "p99 ms", "RSS peak MiB"});

  std::vector<sim::ScaleResult> results;
  bool rss_ok = true;
  for (const std::size_t users : tiers) {
    sim::ScaleConfig config = base;
    config.users = users;
    std::printf("tier %zu users...\n", users);
    const sim::ScaleResult r = sim::run_scale(config);
    results.push_back(r);
    if (rss_budget_bytes != 0 && r.rss_peak_bytes > rss_budget_bytes) {
      rss_ok = false;
    }
    table.add_row({std::to_string(r.users), std::to_string(r.events),
                   std::to_string(r.files_created),
                   fmt(r.events_per_sec), std::to_string(r.triggers),
                   fmt(r.trigger_p50_ms), fmt(r.trigger_p99_ms),
                   mib(r.rss_peak_bytes)});
  }
  table.print(std::cout);

  const std::string json_path =
      raw.get_string("bench-json", "BENCH_scale.json");
  std::ofstream out(json_path);
  out << "{\n"
      << "  \"bench\": \"scale\",\n"
      << "  \"seed\": " << base.seed << ",\n"
      << "  \"files_per_user\": " << base.initial_files_per_user << ",\n"
      << "  \"span_days\": " << base.sim_span_days << ",\n"
      << "  \"rss_budget_bytes\": " << rss_budget_bytes << ",\n"
      << "  \"tiers\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const sim::ScaleResult& r = results[i];
    out << "    {\"users\": " << r.users << ", \"events\": " << r.events
        << ", \"files_created\": " << r.files_created
        << ", \"wall_seconds\": " << r.wall_seconds
        << ", \"events_per_sec\": " << r.events_per_sec
        << ", \"triggers\": " << r.triggers
        << ", \"trigger_p50_ms\": " << r.trigger_p50_ms
        << ", \"trigger_p99_ms\": " << r.trigger_p99_ms
        << ", \"trigger_max_ms\": " << r.trigger_max_ms
        << ", \"rss_peak_bytes\": " << r.rss_peak_bytes
        << ", \"purged_files\": " << r.purged_files
        << ", \"purged_bytes\": " << r.purged_bytes << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"rss_within_budget\": " << (rss_ok ? "true" : "false") << ",\n"
      << "  \"identity_ran\": " << (identity_ran ? "true" : "false") << ",\n"
      << "  \"identity_events\": "
      << (!identity_ran || identity.events_identical ? "true" : "false")
      << ",\n"
      << "  \"identity_ranks\": "
      << (!identity_ran || identity.ranks_identical ? "true" : "false")
      << ",\n"
      << "  \"identity_victims\": "
      << (!identity_ran || identity.victims_identical ? "true" : "false")
      << "\n}\n";
  std::printf("wrote %s\n", json_path.c_str());

  if (identity_ran && !identity.ok()) {
    std::fprintf(stderr,
                 "bench_scale: FAIL — streamed and materialized modes "
                 "diverged\n");
    return 1;
  }
  if (!rss_ok) {
    std::fprintf(stderr,
                 "bench_scale: FAIL — peak RSS exceeded the %.2f GiB "
                 "budget\n",
                 rss_budget_gb);
    return 1;
  }
  return 0;
}
