#!/usr/bin/env python3
"""Steadiness check: reruns the benchmark's workloads and reports their spread.

Usage (from the repository root):

    python3 perfbench/steady.py [--runs 10] [--seed-base 1]

Runs every workload of BENCHMARK.json --runs times through perfbench/run.py
with --trace 0 and the file's run_seconds, interleaved (round i runs all
workloads, alternating their order between rounds so slow drifts of the host
hit every workload alike), with seed seed-base + i. Each run prints its env
line and metrics. Then, for each workload and end-to-end metric, it prints
the median, the quartiles (statistics.quantiles(values, n=4)), the
interquartile spread as a share of the median, and that spread against the
metric's bound in BENCHMARK.json: "ok" below a third of the bound, "wide"
below the bound, "FAIL" at or above it. It then ranks the workloads by each
metric's median, so a run on a held-out seed can show that the ranking
holds. Exit code 1 if any run failed its output checks or any spread reached
its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        return None, ""
    env = lines[-2] if len(lines) >= 2 else ""
    return json.loads(lines[-1]), env


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    args = ap.parse_args()

    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    results = {w: [] for w in workloads}
    ok = True
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            res, env = run_once(w, args.seed_base + i, bench["run_seconds"])
            values = " ".join("%s=%.6g" % (k, m["value"])
                              for k, m in res["metrics"].items()) if res else ""
            print("round %d %s: %s %s" % (i, w, env or "FAILED", values),
                  flush=True)
            if res is None or not res["correct"]:
                ok = False
            if res is not None:
                results[w].append(res)

    medians = {}
    print("\n%-14s %-16s %14s %14s %14s %8s %6s" %
          ("workload", "metric", "median", "q1", "q3", "iqr/med", "bound"))
    for w in workloads:
        if not results[w]:
            continue
        for name, spec in bounds.items():
            vals = [r["metrics"][name]["value"] for r in results[w]]
            med = statistics.median(vals)
            medians.setdefault(name, {})[w] = med
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            bound = spec["bound"]
            verdict = "ok" if spread < bound / 3 else (
                "wide" if spread < bound else "FAIL")
            if verdict == "FAIL":
                ok = False
            print("%-14s %-16s %14.6g %14.6g %14.6g %8.4f %6.3f %s" %
                  (w, name, med, q1, q3, spread, bound, verdict))

    print("\nworkloads ranked by median (best first):")
    for name, by_w in medians.items():
        better_high = bounds[name]["better"] == "higher"
        ranked = sorted(by_w, key=by_w.get, reverse=better_high)
        print("  %-16s %s" % (name, " > ".join(ranked)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
