#!/usr/bin/env python3
"""Measure the run-to-run spread of the benchmark's end-to-end metrics.

    python3 hostbench/steadiness.py --seeds 10 --out spread.json

Runs `run.py --trace 0` once per seed (1 to --seeds) on every workload
of BENCHMARK.json, one run at a time, then for each metric reports the
median of the runs and the spread: the distance between the first and
third quartile, as statistics.quantiles(values, n=4) gives them, over
the median.  A spread is flagged when it exceeds a third of the
metric's bound in BENCHMARK.json, and the exit code is then 1.  Run
from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run failed (exit %d): %s" %
                         (proc.returncode, " ".join(cmd)))
    result = json.loads(lines[-1])
    run = {name: m["value"] for name, m in result["metrics"].items()}
    # Not metrics: the host-speed factor and the un-normalized rate,
    # kept to show what the normalization removed.
    for line in lines:
        words = line.split()
        if words[:1] == ["host_speed"]:
            run["host_factor"] = float(words[2])
            run["wall_ops_per_s"] = float(words[6])
    return run


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / med if med else 0.0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", help="write the raw runs and spreads "
                        "as JSON")
    args = parser.parse_args()

    report = {"seconds": bench["run_seconds"], "workloads": {}}
    steady = True
    for workload in [w["name"] for w in bench["workloads"]]:
        runs = []
        for seed in range(1, args.seeds + 1):
            runs.append(run_once(workload, seed))
            print("%s seed %d: %s" % (workload, seed, json.dumps(runs[-1])),
                  flush=True)
        summary = {}
        for name, bound in bounds.items():
            med, sp = spread([r[name] for r in runs])
            flagged = sp > bound / 3
            steady = steady and not flagged
            summary[name] = {"median": med, "spread": sp, "bound": bound}
            print("  %-16s median %-14.6g spread %.4f  (bound %.2f)%s" %
                  (name, med, sp, bound, "  TOO WIDE" if flagged else ""))
        for name in ("host_factor", "wall_ops_per_s"):
            med, sp = spread([r[name] for r in runs])
            summary[name] = {"median": med, "spread": sp}
            print("  %-16s median %-14.6g spread %.4f  (not a metric)" %
                  (name, med, sp))
        report["workloads"][workload] = {"runs": runs, "summary": summary}

    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
