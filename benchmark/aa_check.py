#!/usr/bin/env python3
"""A/A check: two sets of runs of the same tree must agree.

For every workload x end-to-end metric this prints each set's median
and quartiles (statistics.quantiles(values, n=4), as the driver takes
them), each set's spread (interquartile distance over median), the
gap between the two sets' medians, and how far the furthest single run
lies from its set's median, all against the metric's bound in
BENCHMARK.json. It exits non-zero if a spread or a gap (in either
direction) exceeds its bound, if any run failed an operation or an
output check, or if two runs of one workload and seed print different
study checksums. Last it prints, per metric, the widest spread over all
workloads and sets and the bound that follows from it: three times that
spread (the margin the driver's contract asks for), at least the value
the issue listed, at most the contract's 0.25.

Run from the root of the checkout: benchmark/aa_check.sh [--runs N]
[--seconds S] [--out FILE] [--from FILE]
"""

import argparse
import json
import math
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    out = subprocess.run(
        ["bash", "benchmark/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True).stdout.splitlines()
    checksum = next(line for line in out if line.startswith("study_checksum"))
    return {"workload": workload, "seed": seed, "checksum": checksum,
            "result": json.loads(out[-1])}


# The bounds ISSUE 12 listed; a measured bound is never set below them.
ISSUE_BOUNDS = {"setup_s": 0.10, "point_qps_best": 0.07, "point_p50_us_best": 0.07,
                "advisor_ms_best": 0.07, "disk_bytes_per_probe": 0.01, "peak_rss_mb": 0.05}
WIDEST_BOUND = 0.25


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2,
            "furthest_run": max(abs(v - q2) for v in values) / q2}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set and workload")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--out", default="benchmark/results/aa-baseline.json")
    parser.add_argument("--from", dest="source", default=None,
                        help="re-analyse the runs recorded in an earlier output file")
    args = parser.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    if args.source:
        runs = json.load(open(args.source))["runs"]
    else:
        runs = []
        for label in "AB":
            for i in range(args.runs):
                for workload in workloads:
                    # Both sets use the same seeds, so their checksums compare.
                    run = run_once(workload, 101 + i, seconds)
                    run["set"] = label
                    runs.append(run)
                    print(f"set {label} run {i + 1}/{args.runs} {workload}: "
                          f"failed {run['result']['failed']}", file=sys.stderr)

    breaches = []
    for run in runs:
        result = run["result"]
        if not result["correct"] or result["failed"]:
            breaches.append(f"{run['workload']} seed {run['seed']}: "
                            f"{result['failed']} failed operations, correct={result['correct']}")
    checksums = {}
    for run in runs:
        seen = checksums.setdefault((run["workload"], run["seed"]), run["checksum"])
        if seen != run["checksum"]:
            breaches.append(f"{run['workload']} seed {run['seed']}: study checksum differs "
                            f"between runs")

    table = []
    print(f"{'workload':<15}{'metric':<22}{'bound':>6}  {'median A':>12} {'spread A':>8}  "
          f"{'median B':>12} {'spread B':>8}  {'gap B vs A':>10} {'furthest run':>12}")
    widest = {}
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = {}
            for label in "AB":
                values = [run["result"]["metrics"][name]["value"] for run in runs
                          if run["set"] == label and run["workload"] == workload]
                sets[label] = summarize(values)
            a, b = sets["A"], sets["B"]
            # Positive: set B is worse than set A.
            worse = (b["median"] - a["median"]) / a["median"]
            if metric["better"] == "higher":
                worse = -worse
            furthest = max(a["furthest_run"], b["furthest_run"])
            row = {"workload": workload, "metric": name, "unit": metric["unit"],
                   "bound": bound, "A": a, "B": b, "gap": worse}
            table.append(row)
            widest[name] = max(widest.get(name, 0.0), a["spread"], b["spread"])
            flags = []
            if max(a["spread"], b["spread"]) > bound:
                flags.append("SPREAD")
            if abs(worse) > bound:
                flags.append("GAP")
            if flags:
                breaches.append(f"{workload} {name}: {' '.join(flags)} over the "
                                f"{bound:.0%} bound")
            print(f"{workload:<15}{name:<22}{bound:>6.0%}  {a['median']:>12.4f} "
                  f"{a['spread']:>8.2%}  {b['median']:>12.4f} {b['spread']:>8.2%}  "
                  f"{worse:>+10.2%} {furthest:>12.2%}  {' '.join(flags)}")

    print(f"\n{'metric':<22}{'widest spread':>14}{'bound it gives':>16}{'bound in use':>14}")
    derived = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        derived[name] = min(WIDEST_BOUND, max(ISSUE_BOUNDS.get(name, 0.0),
                                              math.ceil(300 * widest[name]) / 100))
        print(f"{name:<22}{widest[name]:>14.2%}{derived[name]:>16.2f}{metric['bound']:>14.2f}")

    with open(args.out, "w") as out:
        json.dump({"runs_per_set": len(runs) // (2 * len(workloads)), "seconds": seconds,
                   "table": table, "derived_bounds": derived, "breaches": breaches,
                   "runs": runs}, out, indent=1)
    print(f"written {args.out}", file=sys.stderr)
    for breach in breaches:
        print(f"BREACH: {breach}", file=sys.stderr)
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
