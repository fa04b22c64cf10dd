#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

Runs every workload of BENCHMARK.json at scale 0.25, untraced and traced,
and checks that each run is correct and emits exactly the metrics
BENCHMARK.json names, with their units.  Then corrupts one statistic with
--mutate and checks that the failures are counted.  Run from the
repository root:

    python3 bench/perf/selftest.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, *extra):
    cmd = [sys.executable, str(ROOT / "bench" / "perf" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--scale", "0.25", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit(f"FAIL {' '.join(cmd[1:])}: exit {proc.returncode}\n"
                 f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    problems = []
    for spec_key, trace in (("end_to_end", 0), ("per_layer", 1)):
        wanted = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        for w in (w["name"] for w in SPEC["workloads"]):
            result = run(w, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted:
                diff = sorted(set(got.items()) ^ set(wanted.items()))
                problems.append(f"{w} --trace {trace}: metric names or "
                                f"units differ from BENCHMARK.json: {diff}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{w} --trace {trace}: {result['failed']} "
                                f"of {result['attempted']} cells failed")
            print(f"ran {w} --trace {trace}: {result['attempted']} cells, "
                  f"{len(got)} metrics")

    result = run("resident", 0, "--mutate", "gmmu.pages_migrated")
    if result["correct"] or result["failed"] != result["attempted"]:
        problems.append(f"--mutate: expected every cell to fail, got "
                        f"{result['failed']} of {result['attempted']}")
    else:
        print(f"ok --mutate gmmu.pages_migrated: failed_frac "
              f"{result['failed'] / result['attempted']:.2f}")

    for p in problems:
        print(f"FAIL {p}")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
