#!/usr/bin/env python3
"""Entry point of the repmpi benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first call configures and builds
perfbench_driver (perfbench/driver.cpp, linked against the repository's
library built from ../src) into .bench_build/perfbench; later calls reuse
it. Build output goes to stderr. The run measures one workload for S
seconds and prints, as the last stdout line, one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0 (the mean over PROCESSES driver processes of S / PROCESSES
seconds each), the per-layer metrics with --trace 1 (one process; its spans
are written to .bench_build/perfbench/trace/<workload>-seed<N>.json).

Workloads: amg_gmres, hpccg_large, gtc_pic, sweep_grid (see BENCHMARK.json
for why each was chosen and which layers it stresses).

    python3 perfbench/run.py --crash-scan MAX_NTH

runs every single-replica crash point (rank, site, nth <= MAX_NTH) of the
sweep_grid cells once through the sweep_grid oracle, lists the points that
fail it and exits 1 if any does. It is a diagnostic, not a workload.
"""

import argparse
import fcntl
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
WORKLOADS = ("amg_gmres", "hpccg_large", "gtc_pic", "sweep_grid")
# A run must end within 180 s: perfbench_driver measures for --seconds plus
# set-up, a warm-up scenario and (traced) the probes.
RUN_TIMEOUT_S = 170
# A process tends to keep its speed: ComputeCache decides what to publish
# from measured compute times and a process keeps deciding alike, so on one
# 4-core host hpccg_large processes ran either 0.83-0.86 s per scenario
# (~500 entries left unpublished) or 1.00-1.11 s (~200). An untraced run is
# therefore PROCESSES driver processes of --seconds / PROCESSES each, and
# every end-to-end metric is the mean of their values: it moves smoothly
# with the share of fast processes where a median would flip between modes.
PROCESSES = 3
BUILD_TIMEOUT_S = 850


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no repmpi sources beside perfbench/ "
             "(needs CMakeLists.txt and src/ at " + ROOT + ")")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_driver",
                  "-j", jobs])
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            try:
                r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                   env=env, timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step failed: %s" % e)
            if r.returncode != 0:
                fail("build step failed: " + " ".join(cmd))


def commit():
    """The git commit of the tree, when it is a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def source_sha256():
    """Digest of the library sources perfbench_driver links, so results from
    different code are never compared silently, git checkout or not."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for d, _, files in os.walk(os.path.join(ROOT, "src")):
        paths += [os.path.join(d, f) for f in files]
    for p in sorted(paths):
        h.update(os.path.relpath(p, ROOT).encode() + b"\0")
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", choices=("0", "1"))
    ap.add_argument("--crash-scan", type=int, metavar="MAX_NTH")
    args = ap.parse_args()
    if args.crash_scan is not None:
        if not 1 <= args.crash_scan <= 16:
            fail("--crash-scan must be within 1..16")
        build()
        sys.exit(subprocess.run([DRIVER, "--crash-scan",
                                 str(args.crash_scan)]).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        fail("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds within 1..120")

    build()
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--trace", args.trace, "--commit", commit(),
           "--source-sha", source_sha256()]
    if args.trace == "1":
        trace_dir = os.path.join(BUILD, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    # The library reads REPMPI_* switches (shared compute, verify modes) from
    # the environment; the benchmark measures the defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPMPI_")}
    deadline = time.monotonic() + RUN_TIMEOUT_S
    processes = 1 if args.trace == "1" else PROCESSES
    results = []
    for _ in range(processes):
        seconds = "%.3f" % (args.seconds / processes)
        try:
            r = subprocess.run(cmd + ["--seconds", seconds],
                               stdout=subprocess.PIPE, env=env, text=True,
                               timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("perfbench_driver exceeded %d s" % RUN_TIMEOUT_S)
        if r.returncode != 0 or processes == 1:
            sys.stdout.write(r.stdout)
            sys.exit(r.returncode)
        lines = r.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results.append(json.loads(lines[-1]))

    metrics = {
        name: {"value": statistics.fmean(
                   res["metrics"][name]["value"] for res in results),
               "unit": m["unit"]}
        for name, m in results[0]["metrics"].items()}
    print(json.dumps({
        "correct": all(res["correct"] for res in results),
        "attempted": sum(res["attempted"] for res in results),
        "failed": sum(res["failed"] for res in results),
        "metrics": metrics}))

if __name__ == "__main__":
    main()
