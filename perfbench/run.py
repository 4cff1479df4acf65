#!/usr/bin/env python3
"""End-to-end benchmark of the robust two-class OSPF weight-setting engine.

Run from the repository root:

    python3 perfbench/run.py --workload rand30-quick --seed 1 --seconds 30 --trace 0

The script builds perfbench/harness.cpp together with the engine sources in
src/ (CMake, Release) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when the variable is unset, runs the harness for one workload and seed, and
prints a metric table followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones and writes the run's spans to <build dir>/traces/.
Workloads, metrics and the expected effect of each layer are described in
BENCHMARK.json. perfbench/selftest.py checks the benchmark itself.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HARNESS_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(spec):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Self-test hooks (perfbench/selftest.py), never used for measurements.
    p.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--perturb", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--exact-counts", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args()


def build(build_dir):
    """Configures once, then lets CMake rebuild whatever changed."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("run from the repository root: src/CMakeLists.txt not found")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "perfbench_harness")


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    args = parse_args(spec)
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    harness = build(build_dir)

    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")]
    for flag in ("tiny", "perturb", "exact_counts"):
        if getattr(args, flag):
            cmd.append("--" + flag.replace("_", "-"))

    start = time.monotonic()
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness did not finish within {HARNESS_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail(f"harness exited with code {done.returncode}")
    result = json.loads(lines[-1])

    for line in lines[:-1]:
        print(line)
    for name, m in result["metrics"].items():
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'(run wall time)':28s} {time.monotonic() - start:>16.2f} s")

    if not args.exact_counts:
        want = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            fail(f"metric set differs from BENCHMARK.json: printed {sorted(got.items())}, "
                 f"declared {sorted(want.items())}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
