#!/usr/bin/env python3
"""A/B the repository benchmark: a parent commit against this checkout.

Run from anywhere inside the checkout:

    python3 tools/perfbench_ab.py --parent HEAD~1
    python3 tools/perfbench_ab.py --parent main --workloads fs_churn \\
        --seeds 1,2,3 --trace 1 --json ab.json

The parent commit is exported with `git archive` into a directory outside
the checkout (default: <system temp>/perfbench_ab/<commit>), where its own
perfbench/run.py builds its own .bench_build/; this checkout's run.py
builds and runs the change. The export is self-contained: it registers
nothing in this repository, and a finished export is reused by later runs.

For every workload and seed the tool runs one pair, parent and change back
to back, alternating which goes first so host drift that is linear over a
pair cancels. The workloads and the run length are BENCHMARK.json's; the
thread count is run.py's default. The default seeds 1-10 give the ten
pairs a claimed gain is judged on. It then prints, per metric, both
medians, the change/parent ratio, how many pairs the change won (by the
metric's `better` direction in BENCHMARK.json), and the parent's
interquartile range; then whether every run passed its correctness gate
and whether the two digests of each pair were equal. Nothing under
perfbench/ is edited.

Exit status: 0 when every run was correct and every pair's digests agree,
1 otherwise.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    """'1-10' or '1,3,5' (or a mix: '1-3,7') -> [1, 2, 3, 7]."""
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        elif part:
            seeds.append(int(part))
    if not seeds:
        raise argparse.ArgumentTypeError("no seeds in %r" % text)
    return seeds


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def export_parent(commit, parent_dir):
    """Extract `commit` into parent_dir once; returns the directory."""
    sha = git("rev-parse", "--verify", commit + "^{commit}")
    if parent_dir is None:
        parent_dir = os.path.join(tempfile.gettempdir(), "perfbench_ab",
                                  sha[:12])
    parent_dir = os.path.abspath(parent_dir)
    if os.path.commonpath([parent_dir, ROOT]) == ROOT:
        sys.exit("perfbench_ab: the parent directory must lie outside the "
                 "checkout: %s" % parent_dir)
    marker = os.path.join(parent_dir, ".perfbench_ab_commit")
    if os.path.isfile(marker):
        with open(marker) as f:
            if f.read().strip() == sha:
                return parent_dir
        sys.exit("perfbench_ab: %s holds another export; pass --parent-dir"
                 % parent_dir)
    if os.path.exists(parent_dir) and os.listdir(parent_dir):
        sys.exit("perfbench_ab: %s exists and is not an export; pass "
                 "--parent-dir" % parent_dir)
    os.makedirs(parent_dir, exist_ok=True)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", parent_dir],
                           stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        shutil.rmtree(parent_dir, ignore_errors=True)
        sys.exit("perfbench_ab: could not export %s" % sha)
    with open(marker, "w") as f:
        f.write(sha + "\n")
    return parent_dir


def run_once(tree, workload, seed, seconds, trace):
    """One perfbench run in `tree`; returns (correct, metrics, digest)."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    digest = next((line.split("=", 1)[1] for line in lines
                   if line.startswith("digest=")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return False, {}, digest
    metrics = {name: metric["value"]
               for name, metric in result.get("metrics", {}).items()}
    return (done.returncode == 0 and result.get("correct") is True, metrics,
            digest)


def load_spec():
    """BENCHMARK.json's workload names, run length and metric directions
    (metric name -> 'lower' or 'higher')."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"]
              for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}
    return workloads, spec["run_seconds"], better


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def fmt(v):
    return "%.4g" % v


def report(workload, pairs, better):
    """Print one workload's table; returns True if all runs were sound."""
    correct = sum(p["parent"]["correct"] and p["change"]["correct"]
                  for p in pairs)
    digests = sum(p["parent"]["digest"] is not None and
                  p["parent"]["digest"] == p["change"]["digest"]
                  for p in pairs)
    seeds = ",".join(str(p["seed"]) for p in pairs)
    print("## %s: %d pairs (seeds %s)" % (workload, len(pairs), seeds))
    print("correct: %d/%d pairs; digests equal within %d/%d pairs"
          % (correct, len(pairs), digests, len(pairs)))
    print("| metric | parent median | change median | change/parent | "
          "change wins | parent IQR |")
    print("|---|---|---|---|---|---|")
    names = sorted(set().union(*(p["parent"]["metrics"].keys() &
                                 p["change"]["metrics"].keys()
                                 for p in pairs)))
    for name in names:
        both = [p for p in pairs if name in p["parent"]["metrics"] and
                name in p["change"]["metrics"]]
        a = [p["parent"]["metrics"][name] for p in both]
        b = [p["change"]["metrics"][name] for p in both]
        med_a, med_b = statistics.median(a), statistics.median(b)
        ratio = "%.3f" % (med_b / med_a) if med_a else "n/a"
        direction = better.get(name)
        if direction is None:
            wins = "n/a"
        else:
            won = sum((y < x) if direction == "lower" else (y > x)
                      for x, y in zip(a, b))
            wins = "%d/%d" % (won, len(both))
        q1, q3 = quartiles(a)
        print("| %s | %s | %s | %s | %s | %s–%s |"
              % (name, fmt(med_a), fmt(med_b), ratio, wins, fmt(q1),
                 fmt(q3)))
    print()
    return correct == len(pairs) and digests == len(pairs)


def main():
    known, seconds, better = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="commit to compare against (any git revision)")
    parser.add_argument("--parent-dir", default=None,
                        help="where to export it (outside the checkout)")
    parser.add_argument("--workloads", default=",".join(known),
                        help="comma-separated subset of %s"
                        % ", ".join(known))
    parser.add_argument("--seeds", type=parse_seeds,
                        default=parse_seeds("1-10"),
                        help="one pair per seed: '1-10' or '1,2,5'")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", default=None,
                        help="also write every run's result to this file")
    args = parser.parse_args()
    workloads = [w for w in args.workloads.split(",") if w]
    for w in workloads:
        if w not in known:
            parser.error("unknown workload %r" % w)

    parent_tree = export_parent(args.parent, args.parent_dir)
    trees = {"parent": parent_tree, "change": ROOT}
    results = {}
    sound = True
    for workload in workloads:
        pairs = []
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                             "parent")
            pair = {"seed": seed}
            for side in order:
                correct, metrics, digest = run_once(trees[side], workload,
                                                    seed, seconds, args.trace)
                pair[side] = {"correct": correct, "metrics": metrics,
                              "digest": digest}
                print("%s seed %d %s: correct=%s digest=%s"
                      % (workload, seed, side, correct, digest),
                      file=sys.stderr, flush=True)
            pairs.append(pair)
        results[workload] = pairs
        sound = report(workload, pairs, better) and sound
        sys.stdout.flush()
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"parent": git("rev-parse", args.parent),
                       "seconds": seconds, "trace": args.trace,
                       "results": results}, f, indent=1)
    return 0 if sound else 1


if __name__ == "__main__":
    sys.exit(main())
