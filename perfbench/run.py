#!/usr/bin/env python3
"""Build the avsec benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (which compiles ../src) into
.bench_build/avsec-perfbench; later runs rebuild only what changed. The
benchmark prints notes (report digests, dispatch counts) and, as its last
line, one JSON object: {"correct", "attempted", "failed", "metrics"}. This
script checks that line against BENCHMARK.json (every declared metric of the
mode present with its unit, nothing else) and exits nonzero on any failed
check, build error or wrong output.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "avsec-perfbench")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build(targets):
    """Configure (once) and build `targets`; build output goes to stderr."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", *targets])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def check_result(line, bench, trace):
    """Returns the parsed result line, or exits when it breaks the contract."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail(f"last output line is not JSON: {line!r}")
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line must have exactly correct/attempted/failed/metrics")
    declared = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    for name, metric in got.items():
        if not NAME_RE.match(name):
            fail(f"malformed metric name {name!r}")
        if name not in want:
            fail(f"metric {name} is not declared in BENCHMARK.json")
        if metric.get("unit") != want[name]:
            fail(f"metric {name} has unit {metric.get('unit')!r}, declared {want[name]!r}")
    missing = sorted(set(want) - set(got))
    if missing:
        fail(f"metrics missing from the result: {', '.join(missing)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number >= 1")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    bench = load_benchmark()
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    build(["avsec_perfbench"])

    out_dir = os.path.join(BUILD, "run")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(BUILD, "avsec_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"benchmark printed nothing (exit {done.returncode})")
    result = check_result(lines[-1], bench, args.trace == 1)
    for note in lines[:-1]:
        print(note)
    print(json.dumps(result))
    if done.returncode != 0 or result["correct"] is not True or result["failed"] != 0:
        fail(f"benchmark reported a failure (exit {done.returncode})")


if __name__ == "__main__":
    main()
