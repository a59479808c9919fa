#!/usr/bin/env python3
"""Paired A/B comparison of two source trees on the repmpi benchmark.

    python3 tools/bench_ab.py TREE_A TREE_B [--workloads amg_gmres,gtc_pic]
        [--rounds 10] [--first-seed 1]

Each round runs `python3 perfbench/run.py --workload W --seed N --seconds S
--trace 0` in TREE_A and TREE_B with the same seed for both, S being
BENCHMARK.json's run_seconds; the seed moves on by one per round. A single
run on a shared host can be off by a factor of several, but both halves of
a pair see nearly the same machine state, so the per-pair ratio B/A of
each end-to-end metric is far steadier than either side alone. For every
workload and metric the report gives the per-pair ratios, their median, a
bootstrap 95% interval of that median, how many pairs B won (by the
metric's "better" direction), and each side's median and quartiles. "gain"
is printed when B won at least nine tenths of the pairs and the medians
differ by more than A's interquartile range.

Before its first round each workload runs once alone in each tree, traced,
for one second. That keeps the perfbench build (done by run.py on first
use) out of the timed pairs and tells whether the workload runs on a
TaskPool (its traced task_pool.cell_s is nonzero). The two halves of a pair
of a single-threaded workload run side by side as two concurrent processes.
Those of a pooled workload run one after the other, since two pooled
drivers at once would take every core. Either way A starts first on odd
rounds and B on even ones.

The metrics and their directions are read from TREE_A's BENCHMARK.json.
The last stdout line is the summary as one JSON object. Exits 1 if a run
failed or any run's correctness oracle did not hold.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys

BOOTSTRAP_RESAMPLES = 2000
BOOTSTRAP_SEED = 12345


def fail(msg):
    print("bench_ab: " + msg, file=sys.stderr)
    sys.exit(1)


def load_benchmark(tree):
    try:
        with open(os.path.join(tree, "BENCHMARK.json")) as f:
            bench = json.load(f)
        return bench, {m["name"]: m["better"] for m in bench["end_to_end"]}
    except (OSError, ValueError, KeyError) as e:
        fail("cannot read BENCHMARK.json in %s: %s" % (tree, e))


def run_cmd(workload, seed, seconds, trace):
    return [sys.executable, os.path.join("perfbench", "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]


def parse_result(tree, stdout):
    """The result object run.py prints as its last stdout line."""
    lines = stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
        res["metrics"]
    except (IndexError, ValueError, KeyError, TypeError):
        fail("no result line from run.py in %s" % tree)
    return res


def warm_up(trees, workload, seed):
    """Runs `workload` alone in each tree; True if it uses a TaskPool."""
    pooled = False
    for tree in trees:
        r = subprocess.run(run_cmd(workload, seed, 1, 1), cwd=tree,
                           stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True)
        if r.returncode != 0:
            fail("warm-up run of %s failed in %s" % (workload, tree))
        cell_s = parse_result(tree, r.stdout)["metrics"].get(
            "task_pool.cell_s", {"value": 0})
        pooled = pooled or cell_s["value"] > 0
    return pooled


def run_pair(trees, workload, seed, seconds, serial, b_first):
    """Runs one workload/seed in both trees; returns their two results."""
    cmd = run_cmd(workload, seed, seconds, 0)
    order = [1, 0] if b_first else [0, 1]
    procs = [None, None]
    outs = [None, None]
    for i in order:
        procs[i] = subprocess.Popen(cmd, cwd=trees[i], stdout=subprocess.PIPE,
                                    stderr=subprocess.DEVNULL, text=True)
        if serial:
            outs[i] = procs[i].communicate()[0]
    for i in order:
        if outs[i] is None:
            outs[i] = procs[i].communicate()[0]
        if procs[i].returncode != 0:
            fail("run.py exited %d in %s (workload %s, seed %d)"
                 % (procs[i].returncode, trees[i], workload, seed))
    return [parse_result(trees[i], outs[i]) for i in (0, 1)]


def bootstrap_median_ci(values, resamples=BOOTSTRAP_RESAMPLES,
                        seed=BOOTSTRAP_SEED):
    """Percentile bootstrap 95% interval of the median of `values`."""
    rng = random.Random(seed)
    n = len(values)
    meds = sorted(statistics.median(rng.choice(values) for _ in range(n))
                  for _ in range(resamples))
    return (meds[int(0.025 * (resamples - 1))],
            meds[int(0.975 * (resamples - 1))])


def quartiles(values):
    """(q1, median, q3) of `values`."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(pairs, directions):
    """Per-metric paired statistics for one workload.

    `pairs` is a list of (result_a, result_b); `directions` maps each
    end-to-end metric to "lower" or "higher". A metric whose A value is 0
    in some pair has no ratio for that pair.
    """
    out = {}
    for name, better in directions.items():
        ratios = []
        a_vals = []
        b_vals = []
        for a, b in pairs:
            if name not in a["metrics"] or name not in b["metrics"]:
                continue
            va = a["metrics"][name]["value"]
            vb = b["metrics"][name]["value"]
            a_vals.append(va)
            b_vals.append(vb)
            if va:
                ratios.append(vb / va)
        if not ratios:
            continue
        wins = sum(1 for r in ratios if (r < 1.0 if better == "lower"
                                         else r > 1.0))
        lo, hi = bootstrap_median_ci(ratios)
        a_q = quartiles(a_vals)
        b_q = quartiles(b_vals)
        out[name] = {"better": better, "ratios": ratios,
                     "median": statistics.median(ratios), "ci95": [lo, hi],
                     "b_wins": wins, "pairs": len(ratios),
                     "a_quartiles": list(a_q), "b_quartiles": list(b_q),
                     "gain": (10 * wins >= 9 * len(ratios)
                              and abs(b_q[1] - a_q[1]) > a_q[2] - a_q[0])}
    return out


def print_report(workload, serial, stats):
    print("%s (ratio = B/A per pair; halves run %s)"
          % (workload, "one after the other" if serial else "side by side"))
    print("  %-16s %8s  %-17s %6s  %s" % ("metric", "median", "95% CI",
                                          "B won", "per-pair ratios"))
    for name, s in stats.items():
        print("  %-16s %8.3f  [%6.3f, %6.3f]  %2d/%-3d %s (%s is better)"
              % (name, s["median"], s["ci95"][0], s["ci95"][1], s["b_wins"],
                 s["pairs"], " ".join("%.3f" % r for r in s["ratios"]),
                 s["better"]))
        print("  %-16s A %.4g [%.4g, %.4g]  B %.4g [%.4g, %.4g]  (median "
              "[q1, q3])%s" % ("", s["a_quartiles"][1], s["a_quartiles"][0],
                               s["a_quartiles"][2], s["b_quartiles"][1],
                               s["b_quartiles"][0], s["b_quartiles"][2],
                               "  gain" if s["gain"] else ""))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("tree_a")
    ap.add_argument("tree_b")
    ap.add_argument("--workloads")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    trees = [os.path.abspath(args.tree_a), os.path.abspath(args.tree_b)]
    bench, directions = load_benchmark(trees[0])
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = bench["run_seconds"]
    if args.rounds < 1:
        fail("--rounds must be positive")

    summary = {"tree_a": trees[0], "tree_b": trees[1], "seconds": seconds,
               "workloads": {}}
    wrong = []
    for workload in workloads:
        serial = warm_up(trees, workload, args.first_seed)
        pairs = []
        for i in range(args.rounds):
            seed = args.first_seed + i
            pair = run_pair(trees, workload, seed, seconds, serial,
                            b_first=i % 2 == 1)
            for tree, res in zip(trees, pair):
                if not res.get("correct", False) or res.get("failed", 0):
                    wrong.append("%s %s seed %d" % (tree, workload, seed))
            pairs.append(pair)
        stats = summarize(pairs, directions)
        print_report(workload, serial, stats)
        summary["workloads"][workload] = {"serial": serial, "metrics": stats}
    if wrong:
        print("incorrect or failed runs: " + "; ".join(wrong))
    summary["all_correct"] = not wrong
    print(json.dumps(summary))
    sys.exit(1 if wrong else 0)


if __name__ == "__main__":
    main()
