#!/usr/bin/env python3
"""Steadiness evidence for the benchmark: interleaved sets of runs.

For seeds 1..10, every workload in BENCHMARK.json runs once in set A and
once in set B, alternating which set goes first (A, B, then B, A, ...) so
that host-speed drift lands on both sets alike, then once more on the
fixed anchor seed 1. The report gives, per workload and end-to-end metric:

- each set's median, quartiles and spread (q3 - q1) / median over its ten
  seeds, and the drift of set B's median from set A's;
- the per-seed B/A ratios (median and range): back-to-back runs of one
  seed, so seed effects cancel and only short-term host noise remains;
- the anchor's spread: one seed repeated in every round, so seed effects
  are absent and only host drift remains.

The largest spread / bound over every metric, setup_s included, sums it
up. Every run must pass its correctness gate and one seed's digest must be
the same in every run; seeds 1 and 2 are also run at ACTIVEDR_THREADS=1
and must reproduce it. Each workload's traced run (seed 1) reports its
span coverage and tracing overhead. The report goes to stdout, progress to
stderr.

    python3 perfbench/steadiness.py
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)
ANCHOR_SEED = 1
THREAD_CHECK_SEEDS = (1, 2)


def run_once(workload, seed, seconds, threads=2, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--threads", str(threads)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("run failed (exit %d): %s" % (done.returncode, " ".join(cmd)))
    result = json.loads(lines[-1])
    digest = next(line.split("=", 1)[1] for line in lines
                  if line.startswith("digest="))
    if not result["correct"] or result["failed"]:
        raise SystemExit("correctness gate failed: %s seed %d" % (workload, seed))
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    print("%s seed %d threads %d trace %d: %s" % (workload, seed, threads, trace,
                                                  json.dumps(metrics)),
          file=sys.stderr, flush=True)
    return metrics, digest


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    values = {}   # (workload, run kind "A" / "B" / "anchor", metric) -> [values]
    digests = {}  # (workload, seed) -> digest

    def record(workload, kind, seed, metrics, digest):
        if digests.setdefault((workload, seed), digest) != digest:
            raise SystemExit("digest differs between runs: %s seed %d"
                             % (workload, seed))
        for name, v in metrics.items():
            values.setdefault((workload, kind, name), []).append(v)

    for i, seed in enumerate(SEEDS):
        for workload in workloads:
            for s in ("AB" if i % 2 == 0 else "BA"):
                record(workload, s, seed, *run_once(workload, seed, seconds))
            record(workload, "anchor", ANCHOR_SEED,
                   *run_once(workload, ANCHOR_SEED, seconds))

    out = ["| workload | metric | bound | set | median | q1 | q3 | spread | "
           "drift B/A | per-seed B/A: median (min–max) | anchor spread |",
           "|---|---|---|---|---|---|---|---|---|---|---|"]
    worst = (0.0, "")
    for workload in workloads:
        for name, bound in bounds.items():
            a, b = values[(workload, "A", name)], values[(workload, "B", name)]
            ratios = [y / x for x, y in zip(a, b)]
            anchor = spread(values[(workload, "anchor", name)])[3]
            for s, v in (("A", a), ("B", b)):
                q1, med, q3, sp = spread(v)
                if sp / bound > worst[0]:
                    worst = (sp / bound, "%s %s set %s" % (workload, name, s))
                extra = ("", "", "") if s == "A" else (
                    "%+.1f%%" % (100 * (med / statistics.median(a) - 1)),
                    "%.3f (%.3f–%.3f)" % (statistics.median(ratios),
                                          min(ratios), max(ratios)),
                    "%.1f%%" % (100 * anchor))
                out.append("| %s | %s | %g | %s | %.6g | %.6g | %.6g | %.1f%% | %s | %s | %s |"
                           % ((workload, name, bound, s, med, q1, q3, 100 * sp) + extra))
    out.append("")
    out.append("runs per set and workload: %d (seeds %d..%d), anchor seed %d run "
               "%d times; largest spread / bound: %.2f (%s)"
               % (len(SEEDS), SEEDS[0], SEEDS[-1], ANCHOR_SEED, len(SEEDS),
                  worst[0], worst[1]))

    out.append("")
    for workload in workloads:
        metrics, digest = run_once(workload, ANCHOR_SEED, seconds, trace=1)
        same = digest == digests[(workload, ANCHOR_SEED)]
        out.append("traced %s seed %d: coverage %.1f%%, tracing overhead %+.1f%%, "
                   "digest %s"
                   % (workload, ANCHOR_SEED, metrics["bench.coverage_pct"],
                      metrics["bench.trace_overhead_pct"],
                      "matches" if same else "DIFFERS"))
        if not same:
            print("\n".join(out))
            raise SystemExit("traced digest differs from the untraced runs'")
    for seed in THREAD_CHECK_SEEDS:
        for workload in workloads:
            _, digest = run_once(workload, seed, seconds, threads=1)
            same = digest == digests[(workload, seed)]
            out.append("threads 1 vs 2: %s seed %d digest %s %s"
                       % (workload, seed, digest, "matches" if same else "DIFFERS"))
            if not same:
                print("\n".join(out))
                raise SystemExit("digest differs between ACTIVEDR_THREADS=1 and 2")
    print("\n".join(out))


if __name__ == "__main__":
    main()
