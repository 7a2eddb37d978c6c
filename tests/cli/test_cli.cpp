// End-to-end tests of the `activedr` command-line tool, driven in-process.

#include "cli/commands.hpp"

#include "retention/ledger.hpp"
#include "trace/snapshot.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace adr::cli {
namespace {

namespace fsys = std::filesystem;

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult run(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"activedr"};
  argv.insert(argv.end(), args.begin(), args.end());
  std::ostringstream out, err;
  const int code =
      run_cli(static_cast<int>(argv.size()), argv.data(), out, err);
  return {code, out.str(), err.str()};
}

/// Shared fixture: synthesize one small bundle once, reuse across tests.
class CliTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Per-process directory: ctest -j runs each discovered test in its own
    // process, and concurrent processes must not race on one bundle dir.
    dir_ = new std::string(::testing::TempDir() + "/adr_cli_bundle_" +
                           std::to_string(::getpid()));
    fsys::remove_all(*dir_);
    const CliResult r = run(
        {"synth", "--out", dir_->c_str(), "--users", "120", "--seed", "5"});
    ASSERT_EQ(r.code, 0) << r.err;
  }
  static void TearDownTestSuite() {
    fsys::remove_all(*dir_);
    delete dir_;
    dir_ = nullptr;
  }
  static std::string path(const std::string& leaf) { return *dir_ + "/" + leaf; }

  static std::string* dir_;
};

std::string* CliTest::dir_ = nullptr;

TEST(Cli, NoArgsPrintsUsage) {
  const CliResult r = run({});
  EXPECT_EQ(r.code, 64);
  EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

TEST(Cli, HelpSucceeds) {
  const CliResult r = run({"help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("synth"), std::string::npos);
}

TEST(Cli, UnknownCommandFails) {
  const CliResult r = run({"frobnicate"});
  EXPECT_EQ(r.code, 64);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Cli, MissingArgumentReportsKey) {
  const CliResult r = run({"evaluate", "--jobs", "/nonexistent"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--users"), std::string::npos);
}

TEST_F(CliTest, SynthWroteAllArtifacts) {
  for (const char* leaf : {"users.csv", "jobs.csv", "pubs.csv", "applog.csv",
                           "snapshot.csv", "scenario.conf"}) {
    EXPECT_TRUE(fsys::exists(path(leaf))) << leaf;
  }
}

TEST_F(CliTest, EvaluateProducesRanks) {
  const std::string ranks = path("ranks.csv");
  const CliResult r =
      run({"evaluate", "--users", path("users.csv").c_str(), "--jobs",
           path("jobs.csv").c_str(), "--pubs", path("pubs.csv").c_str(),
           "--now", "2016-01-01", "--period-days", "90", "--out",
           ranks.c_str()});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("Both Inactive"), std::string::npos);
  EXPECT_TRUE(fsys::exists(ranks));

  const CliResult c = run({"classify", "--ranks", ranks.c_str()});
  ASSERT_EQ(c.code, 0) << c.err;
  EXPECT_NE(c.out.find("activeness matrix"), std::string::npos);
}

TEST_F(CliTest, PurgeActiveDrRoundTrip) {
  // evaluate -> purge -> surviving snapshot is smaller.
  const std::string ranks = path("ranks2.csv");
  ASSERT_EQ(run({"evaluate", "--users", path("users.csv").c_str(), "--jobs",
                 path("jobs.csv").c_str(), "--now", "2016-01-01", "--out",
                 ranks.c_str()})
                .code,
            0);
  const std::string survivors = path("survivors.csv");
  const CliResult r =
      run({"purge", "--snapshot", path("snapshot.csv").c_str(), "--users",
           path("users.csv").c_str(), "--ranks", ranks.c_str(), "--now",
           "2016-01-01", "--target", "0.5", "--out-snapshot",
           survivors.c_str()});
  EXPECT_TRUE(r.code == 0 || r.code == 2) << r.err;  // 2 = target unmet
  EXPECT_NE(r.out.find("Purge report"), std::string::npos);
  ASSERT_TRUE(fsys::exists(survivors));
  const auto before = trace::Snapshot::load_csv(path("snapshot.csv"));
  const auto after = trace::Snapshot::load_csv(survivors);
  EXPECT_LE(after.total_bytes(), before.total_bytes());
}

TEST_F(CliTest, PurgeFltDoesNotNeedRanks) {
  const CliResult r =
      run({"purge", "--snapshot", path("snapshot.csv").c_str(), "--users",
           path("users.csv").c_str(), "--now", "2016-06-01", "--policy",
           "flt", "--lifetime", "30", "--target", "0"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("FLT-30d"), std::string::npos);
}

TEST_F(CliTest, PurgeCheckIndexVerifiesConsistency) {
  const CliResult r =
      run({"purge", "--snapshot", path("snapshot.csv").c_str(), "--users",
           path("users.csv").c_str(), "--now", "2016-06-01", "--policy",
           "flt", "--lifetime", "30", "--target", "0", "--check-index"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("Purge index verified"), std::string::npos);
}

TEST_F(CliTest, PurgeScanModesSelectIdenticalVictims) {
  // The same FLT purge under --scan-mode walk and indexed must write the
  // same victim list (modulo order; strict runs purge the full expired set).
  std::vector<std::string> victims[2];
  int i = 0;
  for (const char* mode : {"walk", "indexed"}) {
    const std::string list = path(std::string("victims_") + mode + ".txt");
    const CliResult r =
        run({"purge", "--snapshot", path("snapshot.csv").c_str(), "--users",
             path("users.csv").c_str(), "--now", "2016-06-01", "--policy",
             "flt", "--lifetime", "30", "--target", "0", "--dry-run",
             "--scan-mode", mode, "--victims", list.c_str()});
    ASSERT_EQ(r.code, 0) << r.err;
    std::ifstream in(list);
    for (std::string line; std::getline(in, line);) {
      victims[i].push_back(line);
    }
    std::sort(victims[i].begin(), victims[i].end());
    ++i;
  }
  EXPECT_FALSE(victims[0].empty());
  EXPECT_EQ(victims[0], victims[1]);
}

TEST_F(CliTest, PurgeRejectsUnknownScanMode) {
  const CliResult r =
      run({"purge", "--snapshot", path("snapshot.csv").c_str(), "--users",
           path("users.csv").c_str(), "--now", "2016-06-01", "--policy",
           "flt", "--scan-mode", "psychic"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown --scan-mode"), std::string::npos);
}

TEST_F(CliTest, PurgeRejectsUnknownEvalMode) {
  const CliResult r =
      run({"purge", "--snapshot", path("snapshot.csv").c_str(), "--users",
           path("users.csv").c_str(), "--now", "2016-06-01", "--policy",
           "flt", "--eval-mode", "psychic"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown --eval-mode"), std::string::npos);
}

TEST_F(CliTest, EvaluateModesProduceIdenticalRanks) {
  // The same evaluation under --eval-mode full and incremental must write
  // byte-identical rank stores.
  std::string contents[2];
  int i = 0;
  for (const char* mode : {"full", "incremental"}) {
    const std::string ranks = path(std::string("ranks_") + mode + ".csv");
    const CliResult r =
        run({"evaluate", "--users", path("users.csv").c_str(), "--jobs",
             path("jobs.csv").c_str(), "--pubs", path("pubs.csv").c_str(),
             "--now", "2016-01-01", "--eval-mode", mode, "--out",
             ranks.c_str()});
    ASSERT_EQ(r.code, 0) << r.err;
    std::ifstream in(ranks);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    contents[i++] = buffer.str();
  }
  EXPECT_FALSE(contents[0].empty());
  EXPECT_EQ(contents[0], contents[1]);
}

TEST_F(CliTest, PurgeActiveDrEvaluatesInlineFromLogs) {
  // No --ranks: the purge command evaluates activeness itself from the
  // job/publication logs before scanning.
  const CliResult r =
      run({"purge", "--snapshot", path("snapshot.csv").c_str(), "--users",
           path("users.csv").c_str(), "--jobs", path("jobs.csv").c_str(),
           "--pubs", path("pubs.csv").c_str(), "--now", "2016-01-01",
           "--eval-mode", "incremental", "--target", "0.5", "--dry-run"});
  EXPECT_TRUE(r.code == 0 || r.code == 2) << r.err;
  EXPECT_NE(r.out.find("Purge report"), std::string::npos);
}

TEST_F(CliTest, PurgeActiveDrWithoutRanksOrJobsFails) {
  const CliResult r =
      run({"purge", "--snapshot", path("snapshot.csv").c_str(), "--users",
           path("users.csv").c_str(), "--now", "2016-01-01"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("needs --ranks or --jobs"), std::string::npos);
}

TEST_F(CliTest, PurgeRejectsUnknownPolicy) {
  const CliResult r =
      run({"purge", "--snapshot", path("snapshot.csv").c_str(), "--users",
           path("users.csv").c_str(), "--now", "2016-06-01", "--policy",
           "lru"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown --policy"), std::string::npos);
}

TEST_F(CliTest, ReplayComparesPolicies) {
  const CliResult r = run({"replay", "--dir", dir_->c_str()});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("Replay summary"), std::string::npos);
  EXPECT_NE(r.out.find("File misses"), std::string::npos);
}

TEST_F(CliTest, CompareRunsOneShotRetention) {
  const CliResult r =
      run({"compare", "--dir", dir_->c_str(), "--as-of", "2016-08-23"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("Per-group outcome"), std::string::npos);
  EXPECT_NE(r.out.find("Shared target"), std::string::npos);
}

TEST_F(CliTest, CompareRejectsOutOfWindowDate) {
  const CliResult r =
      run({"compare", "--dir", dir_->c_str(), "--as-of", "2030-01-01"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("replay window"), std::string::npos);
}

TEST_F(CliTest, PurgeAppendsToLedger) {
  const std::string ledger = path("ledger.csv");
  for (int i = 0; i < 2; ++i) {
    const CliResult r =
        run({"purge", "--snapshot", path("snapshot.csv").c_str(), "--users",
             path("users.csv").c_str(), "--now", "2016-06-01", "--policy",
             "flt", "--target", "0", "--ledger", ledger.c_str()});
    ASSERT_EQ(r.code, 0) << r.err;
  }
  EXPECT_TRUE(fsys::exists(ledger));
  const retention::PurgeLedger loaded(ledger);
  EXPECT_EQ(loaded.load().size(), 2u);
}

TEST_F(CliTest, EvaluateWithExtraActivityCsvs) {
  // Hand-written data-transfer activity file: user 0 transfers recently.
  const std::string xfers = path("transfers.csv");
  {
    std::ofstream out(xfers);
    out << "user,timestamp,impact\n";
    out << "0," << util::from_civil(2015, 12, 20) << ",500\n";
  }
  const CliResult r =
      run({"evaluate", "--users", path("users.csv").c_str(), "--jobs",
           path("jobs.csv").c_str(), "--now", "2016-01-01",
           "--op-activities", xfers.c_str()});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("Ingested 1 activities"), std::string::npos);
}

TEST_F(CliTest, DryRunPurgeLeavesSnapshotIntact) {
  const std::string victims = path("victims.txt");
  const CliResult r =
      run({"purge", "--snapshot", path("snapshot.csv").c_str(), "--users",
           path("users.csv").c_str(), "--now", "2016-06-01", "--policy",
           "flt", "--lifetime", "30", "--target", "0", "--dry-run",
           "--victims", victims.c_str()});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("DRY RUN"), std::string::npos);
  ASSERT_TRUE(fsys::exists(victims));
  // Victim file lists absolute scratch paths.
  std::ifstream in(victims);
  std::string first;
  std::getline(in, first);
  EXPECT_EQ(first.rfind("/scratch/", 0), 0u);
}

TEST_F(CliTest, InfoSummarizesSnapshot) {
  const CliResult r =
      run({"info", "--snapshot", path("snapshot.csv").c_str()});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("Snapshot summary"), std::string::npos);
  EXPECT_NE(r.out.find("Largest owners"), std::string::npos);
}

TEST_F(CliTest, MetricsOutDumpsRegistryJson) {
  // `replay` exercises every instrumented subsystem: evaluator, policy
  // scan/apply, vfs, thread pool, emulator.
  const std::string metrics = path("metrics.json");
  const CliResult r = run(
      {"replay", "--dir", dir_->c_str(), "--metrics-out", metrics.c_str()});
  ASSERT_EQ(r.code, 0) << r.err;
  ASSERT_TRUE(fsys::exists(metrics));

  std::ifstream in(metrics);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();

  // Structural validity: balanced braces/brackets outside strings.
  int depth = 0;
  bool in_string = false, escaped = false;
  for (const char ch : json) {
    if (escaped) { escaped = false; continue; }
    if (ch == '\\') { escaped = true; continue; }
    if (ch == '"') { in_string = !in_string; continue; }
    if (in_string) continue;
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);

  for (const char* section :
       {"\"counters\"", "\"gauges\"", "\"histograms\"", "\"spans\""}) {
    EXPECT_NE(json.find(section), std::string::npos) << section;
  }
  // All instrumented components reported through the shared registry.
  for (const char* metric :
       {"\"evaluator.evaluate_all\"", "\"evaluator.users_evaluated\"",
        "\"policy.scan\"", "\"policy.apply\"", "\"vfs.accesses\"",
        "\"threadpool.parallel_for\"", "\"threadpool.queue_wait\"",
        "\"emulator.replay\""}) {
    EXPECT_NE(json.find(metric), std::string::npos) << metric;
  }
}

/// Metric names per section of a --metrics-out dump. Sections open at
/// indent 2 ("  \"counters\": {"), their metrics sit one per line at 4.
std::map<std::string, std::set<std::string>> metric_names(
    const std::string& file) {
  std::ifstream in(file);
  std::map<std::string, std::set<std::string>> names;
  std::string section, line;
  while (std::getline(in, line)) {
    if (line.rfind("    \"", 0) == 0) {
      names[section].insert(line.substr(5, line.find('"', 5) - 5));
    } else if (line.rfind("  \"", 0) == 0) {
      section = line.substr(3, line.find('"', 3) - 3);
    }
  }
  return names;
}

TEST_F(CliTest, MetricSchemaIsTheSameAtOneAndFourThreads) {
  // The registry's metric names must not depend on the thread count, so a
  // dashboard built on one host reads every other. The global pool sizes
  // itself once per process from ACTIVEDR_THREADS, hence one child process
  // of the built binary per setting.
  std::map<std::string, std::set<std::string>> schema[2];
  const char* threads[2] = {"1", "4"};
  for (int i = 0; i < 2; ++i) {
    const std::string metrics =
        path(std::string("schema_threads") + threads[i] + ".json");
    const std::string cmd = std::string("ACTIVEDR_THREADS=") + threads[i] +
                            " '" ACTIVEDR_BIN "' replay --dir '" + *dir_ +
                            "' --metrics-out '" + metrics +
                            "' > /dev/null 2>&1";
    ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
    schema[i] = metric_names(metrics);
  }
  for (const char* section : {"counters", "gauges", "histograms", "spans"}) {
    EXPECT_FALSE(schema[0][section].empty()) << section;
    EXPECT_EQ(schema[0][section], schema[1][section]) << section;
  }
}

TEST_F(CliTest, BadFaultSpecIsUsageError) {
  const CliResult r =
      run({"evaluate", "--users", path("users.csv").c_str(), "--jobs",
           path("jobs.csv").c_str(), "--now", "2016-01-01", "--fault-spec",
           "nonsense"});
  EXPECT_EQ(r.code, 64);
  EXPECT_NE(r.err.find("bad --fault-spec"), std::string::npos);
}

TEST_F(CliTest, InjectedCrashExitsWithCrashCodeAndLeavesNoArtifact) {
  const std::string ranks = path("ranks_crash.csv");
  const CliResult r =
      run({"evaluate", "--users", path("users.csv").c_str(), "--jobs",
           path("jobs.csv").c_str(), "--now", "2016-01-01", "--out",
           ranks.c_str(), "--fault-spec", "io.atomic.pre_rename:crash"});
  EXPECT_EQ(r.code, 9);
  EXPECT_NE(r.err.find("crash"), std::string::npos);
  EXPECT_FALSE(fsys::exists(ranks));  // commit never happened

  // Recovery is a plain rerun: no residue from the crash blocks it.
  const CliResult retry =
      run({"evaluate", "--users", path("users.csv").c_str(), "--jobs",
           path("jobs.csv").c_str(), "--now", "2016-01-01", "--out",
           ranks.c_str()});
  EXPECT_EQ(retry.code, 0) << retry.err;
  EXPECT_TRUE(fsys::exists(ranks));
}

TEST_F(CliTest, UnknownParsePolicyRejected) {
  const CliResult r =
      run({"evaluate", "--users", path("users.csv").c_str(), "--jobs",
           path("jobs.csv").c_str(), "--now", "2016-01-01", "--parse-policy",
           "lenient"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown --parse-policy"), std::string::npos);
}

TEST_F(CliTest, PermissiveParsePolicySurvivesBadRowsAndReports) {
  // A jobs log with one malformed row: strict must fail with context,
  // permissive must finish and report the quarantine.
  const std::string bad_jobs = path("jobs_damaged.csv");
  {
    std::ifstream in(path("jobs.csv"));
    std::ofstream out(bad_jobs);
    std::string line;
    int n = 0;
    while (std::getline(in, line) && n < 40) {
      out << line << "\n";
      if (++n == 5) out << "9999,0,not-a-time,60,16\n";
    }
  }
  const CliResult strict =
      run({"evaluate", "--users", path("users.csv").c_str(), "--jobs",
           bad_jobs.c_str(), "--now", "2016-01-01"});
  EXPECT_EQ(strict.code, 1);
  EXPECT_NE(strict.err.find("submit_time"), std::string::npos);

  const CliResult permissive =
      run({"evaluate", "--users", path("users.csv").c_str(), "--jobs",
           bad_jobs.c_str(), "--now", "2016-01-01", "--parse-policy",
           "permissive"});
  ASSERT_EQ(permissive.code, 0) << permissive.err;
  EXPECT_NE(permissive.out.find("Permissive ingest: quarantined"),
            std::string::npos);
  EXPECT_TRUE(fsys::exists(bad_jobs + ".quarantine"));
}

TEST_F(CliTest, CorruptRankStoreFallsBackAndMatchesCleanInlineRun) {
  // The §10 acceptance path: a CRC-corrupted rank store is quarantined and
  // the purge degrades to inline re-evaluation — with the same victims a
  // clean inline run selects.
  const std::string ranks = path("ranks_corruptible.csv");
  ASSERT_EQ(run({"evaluate", "--users", path("users.csv").c_str(), "--jobs",
                 path("jobs.csv").c_str(), "--pubs", path("pubs.csv").c_str(),
                 "--now", "2016-01-01", "--out", ranks.c_str()})
                .code,
            0);

  const std::string snapshot = path("snapshot.csv");
  const std::string users = path("users.csv");
  const std::string jobs = path("jobs.csv");
  const std::string pubs = path("pubs.csv");
  const auto purge = [&](const std::string& victims, bool with_ranks) {
    std::vector<const char*> argv{
        "activedr",  "purge",      "--snapshot", snapshot.c_str(),
        "--users",   users.c_str(), "--jobs",    jobs.c_str(),
        "--pubs",    pubs.c_str(),  "--now",     "2016-01-01",
        "--target",  "0.5",         "--dry-run", "--victims",
        victims.c_str()};
    if (with_ranks) {
      argv.push_back("--ranks");
      argv.push_back(ranks.c_str());
    }
    std::ostringstream out, err;
    const int code =
        run_cli(static_cast<int>(argv.size()), argv.data(), out, err);
    return CliResult{code, out.str(), err.str()};
  };

  const std::string clean_victims = path("victims_clean_inline.txt");
  const CliResult clean = purge(clean_victims, /*with_ranks=*/false);
  ASSERT_TRUE(clean.code == 0 || clean.code == 2) << clean.err;

  // Flip one payload byte: the CRC footer must catch it.
  {
    std::fstream f(ranks, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(10);
    char c = 0;
    f.get(c);
    f.seekp(10);
    f.put(static_cast<char>(c ^ 0x01));
  }
  const std::string fallback_victims = path("victims_fallback.txt");
  const CliResult fallback = purge(fallback_victims, /*with_ranks=*/true);
  ASSERT_EQ(fallback.code, clean.code) << fallback.err;
  EXPECT_NE(fallback.out.find("WARNING: rank store"), std::string::npos);
  EXPECT_NE(fallback.out.find("falling back to inline re-evaluation"),
            std::string::npos);
  EXPECT_FALSE(fsys::exists(ranks));  // moved aside, not acted on
  EXPECT_TRUE(fsys::exists(ranks + ".corrupt"));

  const auto slurp_lines = [](const std::string& p) {
    std::ifstream in(p);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    return lines;
  };
  const auto clean_list = slurp_lines(clean_victims);
  const auto fallback_list = slurp_lines(fallback_victims);
  EXPECT_FALSE(clean_list.empty());
  EXPECT_EQ(clean_list, fallback_list);  // identical purge output
}

TEST_F(CliTest, BadDateRejected) {
  const CliResult r =
      run({"evaluate", "--users", path("users.csv").c_str(), "--jobs",
           path("jobs.csv").c_str(), "--now", "not-a-date"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("YYYY-MM-DD"), std::string::npos);
}

}  // namespace
}  // namespace adr::cli
