#!/usr/bin/env python3
"""Determinism test of the benchmark itself.

Run from the root of a checkout:

    python3 perfbench/test_determinism.py

Runs a reduced version of every workload twice with one seed, timed and
traced.  Asserts that every metric of BENCHMARK.json is printed with its
unit, that every run is correct, and that `devices`, `cut` and every
count metric repeat exactly.  Exits non-zero on the first violation.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 7
SECONDS = 3


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace),
           "--reduced"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.rstrip("\n").split("\n")[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    problems = []
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in bench[key]}
            a, b = run(w["name"], trace), run(w["name"], trace)
            for r in (a, b):
                if not r["correct"] or r["failed"] != 0:
                    problems.append("%s trace=%d: run not correct" % (w["name"], trace))
                got = {k: v["unit"] for k, v in r["metrics"].items()}
                if got != expected:
                    problems.append("%s trace=%d: metrics/units %s, expected %s"
                                    % (w["name"], trace, got, expected))
            for name, unit in expected.items():
                if unit == "count" or name in ("devices", "cut"):
                    va = a["metrics"].get(name, {}).get("value")
                    vb = b["metrics"].get(name, {}).get("value")
                    if va != vb:
                        problems.append("%s trace=%d: %s differs between runs: %s vs %s"
                                        % (w["name"], trace, name, va, vb))
            print("%-13s trace=%d ok=%s" % (w["name"], trace, not problems), flush=True)
    for p in problems:
        print("FAIL " + p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
