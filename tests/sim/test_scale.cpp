// Streamed-vs-materialized identity at the 600-user tier (DESIGN.md §15).
//
// The million-user path is only trusted because this small tier proves it
// exact: the streaming synthesizer drained event-by-event into the service's
// ingest queues must produce byte-identical activeness ranks and per-trigger
// purge victims to the materialized replay appended directly.

#include "sim/scale.hpp"

#include <gtest/gtest.h>

namespace adr::sim {
namespace {

ScaleConfig tier600() {
  ScaleConfig c;
  c.users = 600;
  c.seed = 20260809;
  c.initial_files_per_user = 5;
  c.events_per_user_day = 1.0;
  c.sim_span_days = 10;
  c.backfill_days = 200;
  c.lifetime_days = 20;
  c.trigger_every_days = 3.0;
  return c;
}

TEST(Scale, StreamedMatchesMaterialized) {
  const ScaleIdentityResult r = check_scale_identity(tier600());
  EXPECT_TRUE(r.events_identical) << "event streams diverged";
  EXPECT_TRUE(r.ranks_identical) << "activeness ranks diverged";
  EXPECT_TRUE(r.victims_identical) << "purge victims diverged";
  EXPECT_GT(r.triggers, 1u);
  EXPECT_TRUE(r.ok());
}

TEST(Scale, StreamedRunReportsThroughputAndPurges) {
  ScaleConfig config = tier600();
  config.users = 300;
  config.streamed = true;
  const ScaleResult r = run_scale(config);
  EXPECT_EQ(r.users, 300u);
  EXPECT_GT(r.events, 300u * config.initial_files_per_user);
  // Backfill plus whatever in-span activity created on top.
  EXPECT_GE(r.files_created, 300u * config.initial_files_per_user);
  EXPECT_GT(r.triggers, 1u);
  EXPECT_GT(r.rss_peak_bytes, 0u);
  EXPECT_GT(r.events_per_sec, 0.0);
  EXPECT_EQ(r.rank_fingerprint.size(), 300u);
  // Real purges under the paper's policy reclaim expired backfill.
  EXPECT_GT(r.purged_files, 0u);
}

TEST(Scale, MaterializedRunMatchesEventCount) {
  ScaleConfig config = tier600();
  config.users = 200;
  ScaleConfig materialized = config;
  materialized.streamed = false;
  const ScaleResult a = run_scale(config);
  const ScaleResult b = run_scale(materialized);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.files_created, b.files_created);
  EXPECT_EQ(a.triggers, b.triggers);
  EXPECT_EQ(a.rank_fingerprint, b.rank_fingerprint);
}

}  // namespace
}  // namespace adr::sim
