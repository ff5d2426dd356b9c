#!/usr/bin/env python3
"""Self-test of the benchmark: work counters repeat and the seed reaches the inputs.

    python3 perfbench/selftest.py

For every workload it makes three traced runs (--trace 1) of SECONDS each:
two with SEED and one with SEED + 1. It checks that
  * every run is correct (no failed op, no failed output check);
  * the two same-seed runs print the same work signature: the ExecStats
    deltas per span and the driver-span allocation counts of the first
    traced op (for serve, the stats of the first traced request cycle);
  * the same-seed runs print the same input digest and the other seed a
    different one, so the seed reaches the generators.
Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("exchange", "reverse", "invert", "serve")
SECONDS = 2
SEED = 7


def traced_run(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "1"],
        capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload}: run failed (exit {out.returncode}): {out.stderr[-2000:]}")
    selftest = next(json.loads(l)["selftest"] for l in lines if l.startswith('{"selftest"'))
    return selftest, json.loads(lines[-1])


def main():
    failures = []
    for workload in WORKLOADS:
        first, first_result = traced_run(workload, SEED)
        again, again_result = traced_run(workload, SEED)
        other, other_result = traced_run(workload, SEED + 1)
        checks = {
            "all runs correct": all(r["correct"] for r in
                                    (first_result, again_result, other_result)),
            "same seed, same work signature":
                first["work_signature"] == again["work_signature"],
            "same seed, same inputs": first["input_digest"] == again["input_digest"],
            "other seed, other inputs": first["input_digest"] != other["input_digest"],
        }
        for name, ok in checks.items():
            print(f"{workload}: {'ok  ' if ok else 'FAIL'} {name}")
            if not ok:
                failures.append(f"{workload}: {name}")
    if failures:
        sys.exit("selftest failed: " + "; ".join(failures))
    print("selftest passed")


if __name__ == "__main__":
    main()
