#!/usr/bin/env python3
"""Compares two sets of agbench runs metric by metric.

    python3 agbench/compare.py RUNS_A/ RUNS_B/

Each directory holds the results.json that `agbench/run.py --out DIR`
appends to; A is the parent, B the change. For every (workload, metric)
both sets measured it prints each side's median and quartiles, the change
from A's median to B's, and the fraction of run pairs B wins (runs pair up
in the order they were made, per workload; ties count for neither side).

End-to-end metrics get a verdict against their BENCHMARK.json bound:

  improved    at least ten pairs, B wins at least 9 in 10 of them, and
              the medians differ by more than A's own spread (the
              distance between its quartiles);
  regressed   B's median is worse than A's by more than the bound;
  unresolved  a side's spread (quartile distance over median) exceeds the
              bound, unless every B run beats every A run;
  within      everything else.

Per-layer metrics have no bound and are listed for attribution only. A run
that failed its checks is reported and taints its workload. Exits 1 when a
metric regressed or a run failed its checks.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(directory):
    with open(os.path.join(directory, "results.json")) as f:
        return json.load(f)


def series(runs, workload, trace, metric):
    return [r["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and r["trace"] == trace and
            metric in r["metrics"]]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def judge(a, b, bound, lower_better):
    """Returns (B's pair wins, pairs, verdict) for one metric's runs."""
    def better(x, y):
        return x < y if lower_better else x > y
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(better(y, x) for x, y in pairs)
    if not bound:
        return wins, len(pairs), "-"
    worse = (bm - am) / am if lower_better else (am - bm) / am
    if max((a3 - a1) / am, (b3 - b1) / bm) > bound:
        if all(better(y, x) for x in a for y in b):
            return wins, len(pairs), "improved"
        return wins, len(pairs), "unresolved"
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs) and
            abs(bm - am) > a3 - a1 and worse < 0):
        return wins, len(pairs), "improved"
    if worse > bound:
        return wins, len(pairs), "regressed"
    return wins, len(pairs), "within"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("runs_a")
    ap.add_argument("runs_b")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    a_runs, b_runs = load_runs(args.runs_a), load_runs(args.runs_b)

    bad = False
    for side, runs in (("A", a_runs), ("B", b_runs)):
        for r in runs:
            if not r["correct"]:
                bad = True
                print("%s: %s seed %s trace %s failed its checks: %s" %
                      (side, r["workload"], r["seed"], r["trace"],
                       "; ".join(r.get("problems", []))))

    print("%-15s %-34s %12s %25s %12s %25s %8s %5s  %s" %
          ("workload", "metric", "A median", "A quartiles", "B median",
           "B quartiles", "change", "wins", "verdict"))
    kinds = ((0, spec["end_to_end"]), (1, spec["per_layer"]))
    for w in [w["name"] for w in spec["workloads"]]:
        for trace, metrics in kinds:
            for m in metrics:
                a = series(a_runs, w, trace, m["name"])
                b = series(b_runs, w, trace, m["name"])
                if not a or not b:
                    continue
                a1, am, a3 = quartiles(a)
                b1, bm, b3 = quartiles(b)
                wins, pairs, v = judge(a, b, m.get("bound"),
                                       m["better"] == "lower")
                bad |= v == "regressed"
                change = "%+.2f%%" % (100 * (bm - am) / am) if am else "n/a"
                print("%-15s %-34s %12.6g [%11.6g %11.6g] %12.6g [%11.6g "
                      "%11.6g] %8s %2d/%-2d  %s" %
                      (w, m["name"], am, a1, a3, bm, b1, b3, change, wins,
                       pairs, v))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
