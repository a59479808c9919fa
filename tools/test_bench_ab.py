#!/usr/bin/env python3
"""Self-contained checks for tools/bench_ab.py (no pytest needed).

Run directly: python3 tools/test_bench_ab.py
Builds two throwaway source trees whose perfbench/run.py is a stub printing
canned results per seed, runs bench_ab.py over them and checks the paired
ratios, their median, the bootstrap interval, the win counts in both metric
directions, the handling of a zero baseline value, and that a failed or
incorrect run makes the tool exit 1, each side's quartiles, the gain
rule (nine tenths of pairs won, medians apart by more than A's
interquartile range), and that the halves of a pair run side by side for a
single-threaded workload but one after the other, alternating which goes
first, for one whose traced warm-up reports a TaskPool.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(HERE, "bench_ab.py")

BENCHMARK = {
    "run_seconds": 3,
    "workloads": [{"name": "w1"}, {"name": "w2"}],
    "end_to_end": [
        {"name": "scenario_s", "better": "lower"},
        {"name": "rate", "better": "higher"},
        {"name": "zero_at_a", "better": "lower"},
    ],
}

# Prints the canned result for --seed from values.json beside perfbench/;
# exits 3 when the tree holds a file named "broken". A traced run reports a
# TaskPool (nonzero task_pool.cell_s) for workload w2 only. An untraced run
# appends "start <tree>" and, 0.3 s later, "end <tree>" to the shared log
# named in values.json, so the test can tell overlapping runs from serial.
STUB = r'''
import json, os, sys, time
root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.exists(os.path.join(root, "broken")):
    sys.exit(3)
args = sys.argv[1:]
opt = lambda name: args[args.index(name) + 1]
with open(os.path.join(root, "values.json")) as f:
    canned = json.load(f)
res = canned.get(opt("--seed"), canned["default"])
if opt("--trace") == "1":
    res["metrics"]["task_pool.cell_s"] = {
        "value": 0.5 if opt("--workload") == "w2" else 0.0, "unit": "s"}
else:
    for event in ("start", "end"):
        with open(canned["log"], "a") as f:
            f.write("%s %s\n" % (event, canned["name"]))
        if event == "start":
            time.sleep(0.3)
print("some progress output")
print(json.dumps(res))
'''


def result(scenario_s, rate, zero_at_a, correct=True):
    return {"correct": correct, "attempted": 4, "failed": 0,
            "metrics": {"scenario_s": {"value": scenario_s, "unit": "s"},
                        "rate": {"value": rate, "unit": "1/s"},
                        "zero_at_a": {"value": zero_at_a, "unit": "s"}}}


def make_tree(name, values, log):
    values = dict(values, name=name, log=log)
    tree = tempfile.mkdtemp(prefix="bench_ab_test_")
    os.makedirs(os.path.join(tree, "perfbench"))
    with open(os.path.join(tree, "perfbench", "run.py"), "w") as f:
        f.write(STUB)
    with open(os.path.join(tree, "BENCHMARK.json"), "w") as f:
        json.dump(BENCHMARK, f)
    with open(os.path.join(tree, "values.json"), "w") as f:
        json.dump(values, f)
    return tree


def run(tree_a, tree_b, *flags):
    proc = subprocess.run([sys.executable, SCRIPT, tree_a, tree_b, *flags],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def check(label, ok):
    if not ok:
        print(f"FAIL: {label}")
        sys.exit(1)
    print(f"ok: {label}")


def close(a, b):
    return abs(a - b) < 1e-9


def read_log(log):
    """The logged events, then empties the log."""
    with open(log) as f:
        events = f.read().split("\n")[:-1]
    open(log, "w").close()
    return events


def main():
    # Seeds 1..5. B's scenario_s ratio per pair is 0.8, 0.85, 1.1, 0.9, 0.8
    # (B wins 4 of 5, median 0.85); rate ratio is 3.0 everywhere (higher is
    # better: B wins all); zero_at_a is 0 at A, so it has no ratios.
    a_vals = {"default": result(2.0, 10.0, 0.0)}
    b_vals = {"default": result(2.0, 10.0, 5.0)}
    for seed, r in zip(range(1, 6), [0.8, 0.85, 1.1, 0.9, 0.8]):
        base = 1.0 + seed
        a_vals[str(seed)] = result(base, 10.0 * seed, 0.0)
        b_vals[str(seed)] = result(base * r, 30.0 * seed, 5.0)
    log_fd, log = tempfile.mkstemp(prefix="bench_ab_test_log_")
    os.close(log_fd)
    tree_a, tree_b = make_tree("A", a_vals, log), make_tree("B", b_vals, log)
    try:
        code, out, err = run(tree_a, tree_b, "--workloads", "w1",
                             "--rounds", "5")
        check("paired run exits 0", code == 0)
        summary = json.loads(out.strip().splitlines()[-1])
        events = read_log(log)
        check("single-threaded workload: halves of each pair overlap",
              not summary["workloads"]["w1"]["serial"] and len(events) == 20
              and all(events[i].startswith("start")
                      and events[i + 1].startswith("start")
                      for i in range(0, 20, 4)))
        w1 = summary["workloads"]["w1"]["metrics"]
        s = w1["scenario_s"]
        check("per-pair ratios are B/A in seed order",
              all(close(x, y) for x, y in
                  zip(s["ratios"], [0.8, 0.85, 1.1, 0.9, 0.8])))
        check("median of the ratios", close(s["median"], 0.85))
        check("bootstrap interval brackets the median and stays in range",
              0.8 - 1e-9 <= s["ci95"][0] <= s["median"] <= s["ci95"][1]
              <= 1.1 + 1e-9)
        check("lower-is-better wins counted", s["b_wins"] == 4
              and s["pairs"] == 5)
        rate = w1["rate"]
        check("higher-is-better wins counted",
              rate["b_wins"] == 5 and close(rate["median"], 3.0)
              and close(rate["ci95"][0], 3.0) and close(rate["ci95"][1], 3.0))
        check("metric with a zero baseline value has no ratio",
              "zero_at_a" not in w1)
        check("human report names the metric", "scenario_s" in out
              and "4/5" in out)
        # A's scenario_s is 2..6 (quartiles 2.5, 4, 5.5); B's median is
        # 4 * 0.85 = 3.4: B won only 4 of 5, so no gain is claimed.
        check("each side's median and quartiles",
              all(close(x, y) for x, y in zip(s["a_quartiles"],
                                              [2.5, 4.0, 5.5])))
        check("no gain below nine tenths of pairs won", s["gain"] is False)
        check("gain: every pair won by more than A's spread",
              rate["gain"] is True)
        check("all runs correct", summary["all_correct"] is True)

        code, out, _ = run(tree_a, tree_b, "--rounds", "2")
        summary = json.loads(out.strip().splitlines()[-1])
        check("default workloads from BENCHMARK.json",
              code == 0 and sorted(summary["workloads"]) == ["w1", "w2"])
        pooled = read_log(log)[8:]  # w1's two pairs come first
        check("pooled workload: halves run one after the other, A first "
              "then B first", summary["workloads"]["w2"]["serial"]
              and pooled == ["start A", "end A", "start B", "end B",
                             "start B", "end B", "start A", "end A"])

        spec = importlib.util.spec_from_file_location("bench_ab", SCRIPT)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        ci1 = mod.bootstrap_median_ci([0.8, 0.9, 1.0, 0.7])
        ci2 = mod.bootstrap_median_ci([0.8, 0.9, 1.0, 0.7])
        check("bootstrap is seeded (repeatable)", ci1 == ci2)

        wrong = dict(b_vals)
        wrong["2"] = result(3.0, 60.0, 5.0, correct=False)
        tree_wrong = make_tree("B", wrong, log)
        try:
            code, out, _ = run(tree_a, tree_wrong, "--workloads", "w1",
                               "--rounds", "3")
            check("an incorrect run exits 1 and is named",
                  code == 1 and "incorrect" in out and "seed 2" in out)
        finally:
            shutil.rmtree(tree_wrong)

        open(os.path.join(tree_b, "broken"), "w").close()
        code, _, err = run(tree_a, tree_b, "--workloads", "w1",
                           "--rounds", "2")
        check("a failing run.py exits 1 with a message",
              code == 1 and "bench_ab:" in err)
    finally:
        shutil.rmtree(tree_a)
        shutil.rmtree(tree_b)
        os.remove(log)
    print("all bench_ab checks passed")


if __name__ == "__main__":
    main()
