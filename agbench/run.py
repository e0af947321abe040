#!/usr/bin/env python3
"""Builds agbench and runs one workload of the AsyncG end-to-end benchmark.

    python3 agbench/run.py --workload W --seed N --seconds S --trace 0|1
                           [--out DIR]

Run from the root of a checkout. The driver is built from the checkout's
sources into $CARGO_TARGET_DIR (default .bench_build), then runs workload W
for S seconds after its set-up: untraced (--trace 0) it reports every
end-to-end metric of BENCHMARK.json, traced (--trace 1) every per-layer
metric. It prints one "workload metric value unit" line per metric, then,
as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The run is correct when the program's outputs pass their checks (warning
sets against agbench/expected/, every operation completed, the traced
run's layer reconciliation) and the metrics match BENCHMARK.json. With
--out DIR the run is also appended to DIR/results.json, the input of
agbench/compare.py. Exits 0 when correct; a build or run that cannot
produce a result exits non-zero without printing one.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "agbench")
# Every run must end within 180 s; the first run of a checkout also builds.
RUN_TIMEOUT_S = 170


def fail(message):
    print("agbench/run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(build):
    """Configures (once) and builds agbench; returns the binary's path."""
    steps = []
    if not os.path.exists(os.path.join(build, "Makefile")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build,
                      "-G", "Unix Makefiles",
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build, "--target", "agbench", "-j4"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if proc.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build, "agbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", help="append the run to OUT/results.json")
    args = ap.parse_args()
    start = time.monotonic()

    build_path = build_dir()
    binary = build(build_path)
    work = os.path.join(build_path, "agbench-work")
    os.makedirs(work, exist_ok=True)
    out = args.out or os.path.join(build_path, "agbench-out")
    os.makedirs(out, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", out, "--work", work,
           "--expected", os.path.join(BENCH_DIR, "expected")]
    if args.trace:
        cmd.append("--traced")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(RUN_TIMEOUT_S -
                                          (time.monotonic() - start), 30))
    except subprocess.TimeoutExpired:
        fail("agbench did not finish in time")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail("agbench exited with status %d: %s" %
             (proc.returncode, lines[-1] if lines else "no output"))
    run = json.loads(lines[-1])

    problems = list(run["problems"])
    declared = declared_metrics(args.trace)
    metrics = {m["name"]: {"value": m["value"], "unit": m["unit"]}
               for m in run["metrics"]}
    if {n: m["unit"] for n, m in metrics.items()} != declared:
        problems.append("metrics differ from BENCHMARK.json: %s" % sorted(
            set(metrics) ^ set(declared)))
    if not args.trace:
        problems += ["%s is not positive" % n for n, m in metrics.items()
                     if not m["value"] > 0]
    if run["failed"]:
        problems.append("%d of %d operations failed" %
                        (run["failed"], run["attempted"]))
    for p in problems:
        print("check failed: " + p, file=sys.stderr)
    correct = proc.returncode == 0 and not problems

    for name, m in metrics.items():
        print("%s %s %.10g %s" % (args.workload, name, m["value"], m["unit"]))
    result = {"correct": correct, "attempted": run["attempted"],
              "failed": run["failed"], "metrics": metrics}
    if args.out:
        path = os.path.join(args.out, "results.json")
        runs = []
        if os.path.exists(path):
            with open(path) as f:
                runs = json.load(f)
        runs.append(dict(result, workload=args.workload, seed=args.seed,
                         trace=args.trace, problems=problems,
                         warnings=run["warnings"]))
        with open(path, "w") as f:
            json.dump(runs, f, indent=1)
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
