#!/usr/bin/env python3
"""Self-test of the benchmark itself. Run from the repository root:

    python3 perfbench/selftest.py            # about two minutes
    python3 perfbench/selftest.py --skip-exact

On tiny instances of every workload it checks that
  * every metric BENCHMARK.json names prints with its unit (both modes; run.py
    exits non-zero otherwise, and that run counts as this check's failure);
  * a deliberately perturbed answer is reported as a failed operation;
  * --seed changes the generated inputs and nothing else;
  * two traced 1-thread runs of one seed report identical counts.
Then, unless --skip-exact, it runs the uncapped quick RandTopo-30 search at
seed 1 once and checks its cache and evaluation counts against the values
recorded for this benchmark (EXACT_COUNTS).
"""

import argparse
import json
import subprocess
import sys

# One traced 1-thread optimize() of `dtr_tool --topology rand --nodes 30
# --degree 6 --effort quick --seed 1` (no iteration caps).
EXACT_COUNTS = {
    "cache.misses": 110976,
    "cache.hits": 5508,
    "cache.donor_patched": 13219,
    "core.phase1_evals": 34203,
    "core.phase2_evals": 76771,
}

# Metrics that are timings (or derived from timings) and so may differ
# between two runs of the same seed.
TIMED_UNITS = {"s", "ms", "us", "x", "scen/s"}

failures = []


def run(workload, seed, trace, *flags):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), *flags]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    info = {line.split(" ", 1)[0]: line.split(" ", 1)[1]
            for line in lines[:-1] if line.startswith(("config ", "inputs "))}
    return json.loads(lines[-1]), info


def expect(ok, what):
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--skip-exact", action="store_true")
    args = p.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)

    for w in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            printed = f"{w} trace={trace}: every declared metric prints with its unit"
            try:
                result, _ = run(w, 1, trace, "--tiny")
            except RuntimeError as e:
                expect(False, f"{printed}\n{e}")
                continue
            expect(True, printed)
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{w} trace={trace}: no failed operations")

        perturbed, _ = run(w, 1, 0, "--tiny", "--perturb")
        expect(not perturbed["correct"] and perturbed["failed"] >= 1,
               f"{w}: a perturbed answer counts as failed "
               f"({perturbed['failed']} of {perturbed['attempted']})")

        _, info_a = run(w, 1, 0, "--tiny")
        _, info_b = run(w, 2, 0, "--tiny")
        _, info_a2 = run(w, 1, 0, "--tiny")
        expect(info_a["inputs"] != info_b["inputs"], f"{w}: another seed changes the inputs")
        expect(info_a["inputs"] == info_a2["inputs"], f"{w}: the same seed gives the same inputs")
        expect(info_a["config"] == info_b["config"],
               f"{w}: the seed changes nothing but the inputs")

        t1, _ = run(w, 3, 1, "--tiny")
        t2, _ = run(w, 3, 1, "--tiny")
        counts = lambda r: {n: m["value"] for n, m in r["metrics"].items()
                            if m["unit"] not in TIMED_UNITS and n != "trace.overhead_ratio"}
        expect(counts(t1) == counts(t2), f"{w}: two traced 1-thread runs report identical counts")

    if not args.skip_exact:
        result, _ = run("rand30-quick", 1, 1, "--exact-counts")
        got = {n: int(result["metrics"][n]["value"]) for n in EXACT_COUNTS}
        expect(got == EXACT_COUNTS,
               f"rand30-quick uncapped seed 1 reproduces the recorded counts: {got}")

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
