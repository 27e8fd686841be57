#!/usr/bin/env python3
"""Runs each workload N times with different seeds and reports, for every
end-to-end metric, the median, the quartiles and the spread (q3 - q1) /
median against the metric's bound in BENCHMARK.json.

    python3 tsbench/stability.py [--runs 10] [--first-seed 1]
        [--workloads a,b] [--seconds S] [--save runs.json]
        [--compare earlier.json]

Verdicts: "ok" when the spread is below a third of the bound, "wide" when
it is within the bound, "OVER" beyond it (setup_s is exempt from the
spread rule and only compared between sets). --compare reads a file an
earlier --save wrote and flags every metric whose median got worse by
more than its bound. The failed share (failed / attempted) must be the
same in every run. Exits 1 if any run fails or a rule is broken.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" % (workload, seed,
                                                     proc.returncode))
    return json.loads(lines[-1])


def worse_by(metric, before, after):
    """Share by which `after` is worse than `before` (negative = better)."""
    if metric["better"] == "lower":
        return (after - before) / before
    return (before - after) / before


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--save")
    parser.add_argument("--compare")
    args = parser.parse_args()

    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)
    saved = {}
    broken = False
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            r = run_once(workload, seed, args.seconds)
            print("%s seed %d: correct=%s attempted=%d failed=%d" %
                  (workload, seed, r["correct"], r["attempted"], r["failed"]),
                  flush=True)
            broken |= not r["correct"]
            results.append(r)
        shares = {r["failed"] / r["attempted"] for r in results}
        if len(shares) != 1:
            print("  failed share differs between runs: %s" % sorted(shares))
            broken = True
        saved[workload] = {}
        print("%-20s %12s %12s %12s %8s %6s  %s" %
              ("metric", "q1", "median", "q3", "spread", "bound", "verdict"))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            saved[workload][name] = values
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            bound = metric["bound"]
            if name == "setup_s":
                verdict = "(exempt)"
            elif spread < bound / 3:
                verdict = "ok"
            elif spread <= bound:
                verdict = "wide"
            else:
                verdict = "OVER"
                broken = True
            if name in earlier.get(workload, {}):
                before = statistics.median(earlier[workload][name])
                worse = worse_by(metric, before, med)
                verdict += " vs earlier %+.1f%%" % (100 * worse)
                if worse > bound:
                    verdict += " WORSE"
                    broken = True
            print("%-20s %12.6g %12.6g %12.6g %7.2f%% %5.0f%%  %s" %
                  (name, q1, med, q3, 100 * spread, 100 * bound, verdict))
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
