#!/usr/bin/env bash
# Perf regression harness for the purge-index scan path and the sustained-
# load harness.
#
# Builds the Release bench tree, runs the Fig. 12 purge trigger (the
# indexed scan-once ActiveDR run) and the bench_load ramp, and diffs the
# emitted BENCH_fig12.json / BENCH_load.json against the committed baselines
# (bench/baselines/). ActiveDR has a single scan, so there is no walk
# baseline to beat and no victim-set identity check between scan modes; the
# victims are instead held to the baseline's count and bytes.
#
# Fails when:
#   * the purge trigger's victim count or purged bytes differ from the
#     baseline (same scenario only), or
#   * the purge trigger's median time over its 9 dry-run reps
#     (indexed_median_seconds) regresses more than TOLERANCE x the
#     baseline's median, or
#   * full and incremental eval modes produce different ranks/plans, or
#   * the incremental eval-phase speedup over full re-evaluation (the
#     ratio of the two modes' median times over bench_fig12's alternating
#     reps) drops below MIN_EVAL_SPEEDUP (default 3.0), or
#   * the incremental eval phase's median time regresses more than
#     TOLERANCE x the baseline's median, or
#   * bench_load's concurrent ingest diverged from the serial replay at any
#     producer count (ranks must be byte-identical), or
#   * bench_load's max sustainable rate drops below MIN_LOAD_RATE (default:
#     baseline max_sustainable_rate / TOLERANCE), or
#   * bench_scale's 600-user streamed-vs-materialized identity anchor
#     diverges (events, ranks, or purge victims), or
#   * any bench_scale tier's peak RSS exceeds SCALE_RSS_GB (default 4.0).
#
# Usage: tools/run_bench.sh [extra bench_fig12 flags, e.g. --users 600]
#        LOAD_FLAGS overrides the bench_load invocation (default:
#        "--load-rate 1000 --load-duration 0.5 --ramp-levels 4").
#        SCALE_USERS overrides the bench_scale tier list (default 100000).
#        The full 1M-user tier (SCALE_USERS=1000000) is wall-clock-bound on
#        the single driver thread: budget minutes on a multi-core machine
#        and tens of minutes on a 1-core container — it is deliberately NOT
#        part of the default gate. The RSS ceiling is the interesting axis;
#        run 1M manually before a release.

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$REPO_ROOT/bench-build}"
BASELINE="$REPO_ROOT/bench/baselines/BENCH_fig12.json"
LOAD_BASELINE="$REPO_ROOT/bench/baselines/BENCH_load.json"
OUT_JSON="$BUILD_DIR/BENCH_fig12.json"
LOAD_JSON="$BUILD_DIR/BENCH_load.json"
MIN_EVAL_SPEEDUP="${MIN_EVAL_SPEEDUP:-3.0}"
MIN_LOAD_RATE="${MIN_LOAD_RATE:-0}"
TOLERANCE="${TOLERANCE:-1.5}"
LOAD_FLAGS="${LOAD_FLAGS:---load-rate 1000 --load-duration 0.5 --ramp-levels 4}"
SCALE_USERS="${SCALE_USERS:-100000}"
SCALE_RSS_GB="${SCALE_RSS_GB:-4.0}"
SCALE_JSON="$BUILD_DIR/BENCH_scale.json"
CORES="$(nproc)"

cmake -S "$REPO_ROOT" -B "$BUILD_DIR" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" --target bench_fig12_performance bench_load \
    bench_scale -j "$CORES"

# The google-benchmark suites are not part of the regression gate; the
# comparison section runs before them, so cut the run short via filter-less
# environment (benchmark still runs, but it is cheap at bench scale).
"$BUILD_DIR/bench/bench_fig12_performance" --bench-json "$OUT_JSON" "$@"

# Sustained-load ramp. bench_load itself exits nonzero when the concurrent
# ranks diverge from the serial replay, so a correctness failure stops the
# harness before the gate even runs.
# shellcheck disable=SC2086  # LOAD_FLAGS is intentionally word-split
"$BUILD_DIR/bench/bench_load" --bench-json "$LOAD_JSON" $LOAD_FLAGS

# Scale tier (DESIGN.md §15). bench_scale self-gates: it exits nonzero when
# the 600-user streamed-vs-materialized identity anchor diverges or when a
# tier's peak RSS exceeds the budget, so no post-processing is needed here.
"$BUILD_DIR/bench/bench_scale" --users "$SCALE_USERS" \
    --rss-budget-gb "$SCALE_RSS_GB" --bench-json "$SCALE_JSON"

python3 - "$OUT_JSON" "$BASELINE" "$TOLERANCE" \
    "$MIN_EVAL_SPEEDUP" "$LOAD_JSON" "$LOAD_BASELINE" "$MIN_LOAD_RATE" <<'PY'
import json, sys

(out_path, base_path, tolerance, min_eval_speedup,
 load_path, load_base_path, min_load_rate) = sys.argv[1:8]
tolerance = float(tolerance)
min_eval_speedup = float(min_eval_speedup)
min_load_rate = float(min_load_rate)
out = json.load(open(out_path))
base = json.load(open(base_path))
load = json.load(open(load_path))
load_base = json.load(open(load_base_path))

failures = []
if not out["eval_ranks_identical"]:
    failures.append(
        "full and incremental eval modes produced DIFFERENT ranks/plans")
if out["eval_speedup"] < min_eval_speedup:
    failures.append(
        f"incremental eval speedup {out['eval_speedup']:.2f}x below floor "
        f"{min_eval_speedup}x")

# Sustained-load gate: identity is absolute; the sustainable-rate floor is
# baseline-relative unless MIN_LOAD_RATE pins it.
if not load.get("ranks_identical", False):
    failures.append(
        "bench_load: concurrent ranks diverged from serial replay")
if not load.get("identity_all_identical", False):
    failures.append(
        "bench_load: identity matrix (1/2/4 producers) found a divergence")
load_floor = min_load_rate
if load_floor <= 0:
    load_floor = load_base.get("max_sustainable_rate", 0.0) / tolerance
if load["max_sustainable_rate"] < load_floor:
    failures.append(
        f"max sustainable rate {load['max_sustainable_rate']:.0f} ev/s "
        f"below floor {load_floor:.0f} ev/s")

# Cross-run comparisons only make sense on the baseline's scenario.
same_scenario = all(out[k] == base[k] for k in ("users", "seed", "files"))
if same_scenario:
    if out["victims"] != base["victims"]:
        failures.append(
            f"victim count changed: {out['victims']} vs baseline "
            f"{base['victims']}")
    if out["purged_bytes"] != base["purged_bytes"]:
        failures.append(
            f"purged bytes changed: {out['purged_bytes']} vs baseline "
            f"{base['purged_bytes']}")
    if (out["indexed_median_seconds"]
            > base["indexed_median_seconds"] * tolerance):
        failures.append(
            f"indexed scan regressed: median "
            f"{out['indexed_median_seconds']:.4f}s vs baseline "
            f"{base['indexed_median_seconds']:.4f}s "
            f"(tolerance {tolerance}x)")
    if (out["eval_incremental_median_seconds"]
            > base["eval_incremental_median_seconds"] * tolerance):
        failures.append(
            f"incremental eval regressed: median "
            f"{out['eval_incremental_median_seconds']:.4f}s vs baseline "
            f"{base['eval_incremental_median_seconds']:.4f}s "
            f"(tolerance {tolerance}x)")
else:
    print(f"note: scenario differs from baseline "
          f"({out['users']} users / seed {out['seed']} vs "
          f"{base['users']} / {base['seed']}); timing diff skipped")

print(f"purge trigger: median {out['indexed_median_seconds']:.4f}s "
      f"(min {out['indexed_min_seconds']:.4f}s, max "
      f"{out['indexed_max_seconds']:.4f}s), {out['victims']} victims")
for mode in ("full", "incremental"):
    print(f"eval {mode}: median {out[f'eval_{mode}_median_seconds']:.4f}s "
          f"(min {out[f'eval_{mode}_min_seconds']:.4f}s, max "
          f"{out[f'eval_{mode}_max_seconds']:.4f}s) over {out['eval_reps']} "
          f"reps of {out['eval_triggers']} triggers")
print(f"eval speedup (medians) {out['eval_speedup']:.2f}x")
levels = load.get("levels", [])
tail = levels[-1] if levels else {}
print(f"load: max sustainable {load['max_sustainable_rate']:.0f} ev/s over "
      f"{len(levels)} level(s) at {load.get('producers', 1)} producer(s), last "
      f"level p50 {tail.get('p50_ms', 0):.2f}ms p99 "
      f"{tail.get('p99_ms', 0):.2f}ms p999 {tail.get('p999_ms', 0):.2f}ms, "
      f"ranks identical: {load.get('ranks_identical', False)}")
if failures:
    for f in failures:
        print("FAIL:", f, file=sys.stderr)
    sys.exit(1)
print("PASS")
PY
