// ActiveDR benchmark driver: runs one named workload per invocation.
//
//   adr_bench --workload fs_churn|eval_dense|wal_serve --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--trace-out FILE]
//
// --trace 0 runs one pass of the workload — kSetups cold setups (setup_s is
// their median), then the run phase and the correctness gate — and reports
// the end-to-end metrics. --trace 1 runs an untraced, a traced and another
// untraced pass from the same seed, which must produce the same victim/rank
// digest, and reports the per-layer metrics, the traced pass's span
// coverage and its overhead against the mean of the two untraced passes
// around it (which cancels host-speed drift that is linear over the run).
// Either way the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A failed correctness gate or an aborted pass still prints it, with
// correct = false (and no metrics when a pass failed), and exits 3.

#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "driver.hpp"
#include "stats.hpp"
#include "util/memory.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "adr_bench: %s\nusage: adr_bench --workload "
               "fs_churn|eval_dense|wal_serve --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--trace-out FILE]\n",
               why);
  return 2;
}

std::string format_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           format_number(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  return out + "}";
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

PassResult run_pass(const Options& options, int setups, Tracer& tracer) {
  if (options.workload == "fs_churn") return run_fs_churn(options, setups, tracer);
  if (options.workload == "eval_dense") return run_eval_dense(options, setups, tracer);
  return run_wal_serve(options, setups, tracer);
}

std::vector<Metric> end_to_end(const PassResult& r) {
  return {
      {"setup_s", adr::util::quantile(r.setup_s, 0.5), "s"},
      {"events_per_s", ratio(static_cast<double>(r.run_events), r.run_wall_s), "1/s"},
      {"trigger_p50_ms", percentile(r.trigger_ms, 0.50), "ms"},
      {"trigger_p90_ms", percentile(r.trigger_ms, 0.90), "ms"},
      {"rss_peak_mib", static_cast<double>(adr::util::rss_peak()) / 1048576.0, "MiB"},
  };
}

/// Per-layer metrics of the traced pass `t`; `untraced_run_s` is the mean
/// run-phase wall time of the untraced passes around it. A layer the
/// workload does not run reads 0 (see the layer map in README.md).
std::vector<Metric> per_layer(double untraced_run_s, PassResult& t,
                              const Tracer& tracer) {
  int root = -1;
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    if (std::strcmp(tracer.spans()[i].name, "bench.run") == 0) {
      root = static_cast<int>(i);
      break;
    }
  }
  const double run_s = t.run_span_s;
  const double coverage = tracer.coverage(root);
  std::vector<double> self = tracer.self_seconds_by_layer(root);
  // The run span's own self time is the uncovered remainder, not driver
  // work: leave it out so the layer shares add up to the coverage.
  self[static_cast<std::size_t>(Layer::kBench)] -= run_s * (1.0 - coverage);
  const auto pct = [&](Layer layer) {
    return 100.0 * ratio(self[static_cast<std::size_t>(layer)], run_s);
  };
  const auto per_call_us = [&](const std::vector<const char*>& names) {
    double busy = 0.0;
    std::uint64_t calls = 0;
    for (const char* name : names) {
      busy += tracer.busy_seconds(name);
      calls += tracer.calls(name);
    }
    return ratio(busy * 1e6, static_cast<double>(calls));
  };
  auto& c = t.counters;
  auto& l = t.layer;
  const double triggers = static_cast<double>(t.trigger_ms.size());
  const double reevaluated = c["incremental.users_reevaluated"];
  const double skipped = c["incremental.users_skipped"];

  return {
      {"fs.create_us", per_call_us({"fs.create"}), "us"},
      {"fs.access_us", per_call_us({"fs.access"}), "us"},
      {"fs.creates", c["vfs.creates"], "count"},
      {"fs.accesses", c["vfs.accesses"], "count"},
      {"fs.access_miss_ratio", ratio(c["vfs.misses"], c["vfs.accesses"]), "ratio"},
      {"fs.removes", c["vfs.removes"], "count"},
      {"fs.files_end", l["fs.files_end"], "count"},
      {"fs.purge_index_entries", l["fs.purge_index_entries"], "count"},
      {"fs.self_pct", pct(Layer::kFs), "%"},
      {"activeness.ingest_us",
       per_call_us({"activeness.enqueue", "activeness.record"}), "us"},
      {"activeness.evaluate_ms_p50", percentile(t.evaluate_ms, 0.50), "ms"},
      {"activeness.evaluate_ms_p90", percentile(t.evaluate_ms, 0.90), "ms"},
      {"activeness.users_reevaluated", reevaluated, "count"},
      {"activeness.skip_ratio", ratio(skipped, skipped + reevaluated), "ratio"},
      {"activeness.full_rebuilds", c["incremental.full_rebuilds"], "count"},
      {"activeness.activities_end", l["activeness.activities_end"], "count"},
      {"activeness.self_pct", pct(Layer::kActiveness), "%"},
      {"retention.purge_ms_p50", percentile(t.purge_ms, 0.50), "ms"},
      {"retention.purge_ms_p90", percentile(t.purge_ms, 0.90), "ms"},
      {"retention.scan_ms", ratio(c["policy.scan_s"] * 1e3, triggers), "ms"},
      {"retention.apply_ms", ratio(c["policy.apply_s"] * 1e3, triggers), "ms"},
      {"retention.candidates", c["policy.index_candidates"], "count"},
      {"retention.victims", c["policy.victims_purged"], "count"},
      {"retention.victim_ratio",
       ratio(c["policy.victims_purged"], c["policy.index_candidates"]), "ratio"},
      {"retention.self_pct", pct(Layer::kRetention), "%"},
      {"trace.append_us", l["trace.append_us"], "us"},
      {"trace.bytes_per_event", l["trace.bytes_per_event"], "B"},
      {"trace.self_pct", pct(Layer::kTrace), "%"},
      {"serve.ingest_us", l["serve.ingest_us"], "us"},
      {"serve.start_s", l["serve.start_s"], "s"},
      {"serve.checkpoint_s", l["serve.checkpoint_s"], "s"},
      {"serve.restart_s", l["serve.restart_s"], "s"},
      {"serve.self_pct", pct(Layer::kServe), "%"},
      {"util.parallel_calls", c["threadpool.parallel_for.calls"], "count"},
      {"util.parallel_items", c["threadpool.parallel_for.items"], "count"},
      {"bench.synth_s", t.synth_s, "s"},
      {"bench.coverage_pct", 100.0 * coverage, "%"},
      {"bench.trace_overhead_pct",
       100.0 * ratio(t.run_span_s - untraced_run_s, untraced_run_s), "%"},
      {"bench.self_pct", pct(Layer::kBench), "%"},
  };
}

void write_trace(const std::string& path, const Options& options,
                 const std::vector<Metric>& layers, const PassResult& t,
                 const Tracer& tracer) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"workload\": \"" << options.workload
      << "\", \"seed\": " << options.seed
      << ", \"layers\": " << metrics_json(layers) << ",\n\"triggers\": [";
  for (std::size_t i = 0; i < t.trigger_counters.size(); ++i) {
    out << (i ? ",\n  {" : "\n  {");
    bool first = true;
    for (const auto& [name, value] : t.trigger_counters[i]) {
      if (value == 0.0) continue;
      out << (first ? "\"" : ", \"") << name << "\": " << format_number(value);
      first = false;
    }
    out << "}";
  }
  out << "],\n\"spans\": ";
  tracer.write_json(out);
  out << "}\n";
  if (!out) throw std::runtime_error("short write to " + path);
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const auto& m : metrics) {
    std::printf("  %-30s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(metrics).c_str());
  std::fflush(stdout);
}

int run(Options options, const std::string& trace_out) {
  std::printf("perfbench: workload=%s seed=%llu seconds=%d trace=%d threads=%zu\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, adr::util::global_pool().size() + 1);
  std::vector<PassResult> passes;
  const auto run_one = [&](int setups, Tracer& tracer) {
    options.pass = static_cast<int>(passes.size());
    try {
      passes.push_back(run_pass(options, setups, tracer));
    } catch (const std::exception& e) {
      PassResult aborted;
      aborted.attempted = 1;
      aborted.fail("pass " + std::to_string(options.pass) + " aborted: " + e.what());
      passes.push_back(std::move(aborted));
      return;
    }
    PassResult& pass = passes.back();
    if (pass.digest.value() != passes.front().digest.value()) {
      pass.fail("pass " + std::to_string(options.pass) + " digest " +
                pass.digest.hex() + " differs from pass 0's " +
                passes.front().digest.hex());
    }
  };
  Tracer off(false);
  Tracer on(true);
  if (!options.trace) {
    run_one(kSetups, off);
  } else {
    run_one(1, off);
    run_one(1, on);
    run_one(1, off);
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const auto& pass : passes) {
    attempted += pass.attempted;
    failed += pass.failed;
    for (const auto& e : pass.errors) {
      std::fprintf(stderr, "adr_bench: FAILED: %s\n", e.c_str());
    }
    std::string setups;
    for (const double s : pass.setup_s) {
      setups += (setups.empty() ? "" : ",") + format_number(s);
    }
    std::printf(
        "pass: triggers=%zu samples=%zu short_triggers=%zu victims=%llu "
        "events=%llu setups_s=%s run_s=%.3f digest=%s\n",
        pass.trigger_ms.size(), pass.trigger_ms.size(), pass.short_triggers,
        static_cast<unsigned long long>(pass.victims),
        static_cast<unsigned long long>(pass.run_events), setups.c_str(),
        pass.run_span_s, pass.digest.hex().c_str());
  }
  std::printf("digest=%s\n", passes.front().digest.hex().c_str());
  if (failed > 0) {
    // A failed pass may have stopped short of the trigger count, so its
    // percentiles are not computed: the result carries no metrics.
    print_result(false, attempted, failed, {});
    return 3;
  }

  std::vector<Metric> metrics;
  if (!options.trace) {
    metrics = end_to_end(passes.front());
    print_table("end-to-end:", metrics);
  } else {
    metrics = per_layer(0.5 * (passes[0].run_span_s + passes[2].run_span_s),
                        passes[1], on);
    print_table("per-layer (traced pass):", metrics);
    if (!trace_out.empty()) {
      write_trace(trace_out, options, metrics, passes[1], on);
      std::printf("spans written to %s\n", trace_out.c_str());
    }
    for (const auto& m : metrics) {
      if (m.name == "bench.coverage_pct" && m.value < 95.0) {
        std::fprintf(stderr,
                     "adr_bench: FAILED: layer spans cover only %s%% of the "
                     "run phase (95%% required)\n",
                     format_number(m.value).c_str());
        ++failed;
      }
    }
  }
  print_result(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 3;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string trace_out;
  bool have_workload = false, have_seed = false, have_dir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return perfbench::usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stoi(value);
      } else if (arg == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (arg == "--work-dir") {
        options.work_dir = value;
        have_dir = true;
      } else if (arg == "--trace-out") {
        trace_out = value;
      } else {
        return perfbench::usage(("unknown option " + arg).c_str());
      }
    } catch (const std::exception&) {
      return perfbench::usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_dir) {
    return perfbench::usage("--workload, --seed and --work-dir are required");
  }
  if (options.workload != "fs_churn" && options.workload != "eval_dense" &&
      options.workload != "wal_serve") {
    return perfbench::usage(("unknown workload " + options.workload).c_str());
  }
  if (options.seconds < 1) return perfbench::usage("--seconds must be >= 1");
  try {
    std::filesystem::create_directories(options.work_dir);
    return perfbench::run(options, trace_out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "adr_bench: error: %s\n", e.what());
    return 1;
  }
}
