#!/usr/bin/env python3
"""Steadiness report for the repmpi benchmark.

    python3 perfbench/steadiness.py [--workloads amg_gmres,gtc_pic]
        [--runs 10] [--first-seed 1] [--seconds S] [--trace 0|1]

Runs perfbench/run.py --runs times per workload, one seed after another
(serially, so runs never compete for cores), and prints for every metric
its median and quartiles over the runs (statistics.quantiles(n=4)), and the
spread (q3 - q1) / median. Each run must print exactly the metrics, with
their units, that BENCHMARK.json lists for its --trace setting. With
--trace 0 each end-to-end metric's spread is compared with a third of its
bound in BENCHMARK.json, the margin the bounds were set with; setup_s is
listed but not flagged, since only its median is held to its bound.
Every run must also pass the correctness oracle.
Exits 1 if any run failed or was wrong, 3 if a spread exceeded its margin.
Run it from the root of the source tree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cpu_ticks():
    """(steal, total) jiffies of the whole machine, or None off Linux. Steal
    is time the hypervisor ran something else on our vCPUs: a noisy
    neighbour shows up here, not in the benchmark's own numbers."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    expected = {m["name"]: m["unit"]
                for m in bench["per_layer" if args.trace == "1" else "end_to_end"]}

    bad_runs = 0
    wide = []
    for workload in args.workloads.split(","):
        values = {}
        units = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            start = time.monotonic()
            ticks0 = cpu_ticks()
            r = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", args.trace],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            took = time.monotonic() - start
            ticks1 = cpu_ticks()
            steal = ("steal %.1f%%" % (100.0 * (ticks1[0] - ticks0[0]) /
                                       max(1, ticks1[1] - ticks0[1]))
                     if ticks0 and ticks1 else "")
            lines = r.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = None
            got = {} if result is None else {
                name: m["unit"] for name, m in result["metrics"].items()}
            if (r.returncode != 0 or result is None or not result["correct"]
                    or result["failed"] != 0 or got != expected):
                bad_runs += 1
                print("%s seed %d: FAILED (exit %d)" %
                      (workload, seed, r.returncode))
                print("\n".join("    " + l for l in lines[-6:]))
                continue
            print("%s seed %d: ok, %d scenarios, %.1f s, %s; %s" %
                  (workload, seed, result["attempted"], took, steal,
                   " ".join("%s=%.4g" % (name, m["value"]) for name, m in
                            result["metrics"].items() if name in bounds)),
                  flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print("\n%s: %d runs" % (workload, len(next(iter(values.values()), []))))
        print("  %-30s %12s %12s %12s %8s %8s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for name, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = (statistics.quantiles(v, n=4) if len(v) > 1
                         else (v[0], v[0], v[0]))
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  WIDE"
                wide.append("%s %s" % (workload, name))
            print("  %-30s %12.6g %12.6g %12.6g %8.4f %8s %s%s" %
                  (name, med, q1, q3, spread,
                   "" if bound is None else "%.2f" % bound, units[name], flag))
        print(flush=True)
    if bad_runs:
        print("%d run(s) failed or were wrong" % bad_runs)
        return 1
    if wide:
        print("spread above a third of the bound: " + ", ".join(wide))
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
