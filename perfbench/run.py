#!/usr/bin/env python3
"""Benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-tables --seed 1 --seconds 30 --trace 0

Builds the benchmark and the fpart_serve daemon from source with dune,
runs one workload in its own process and prints its output; the last
line is the JSON result.  Exits non-zero, without a result line, when
the checkout cannot be built or the workload fails to finish.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("paper-tables", "mlevel-scale", "serve-eco")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
SERVE = os.path.join("_build", "default", "bin", "fpart_serve.exe")
WORK = ".perfbench"


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reduced", action="store_true",
                    help="small inputs, for the determinism test")
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile(os.path.join("bin", "fpart_serve.ml"))):
        return fail("not the root of an fpart checkout "
                    "(dune-project, lib/ or bin/fpart_serve.ml missing)")

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe",
             "./bin/fpart_serve.exe"],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail("build failed: %s" % e)
    if build.returncode != 0:
        return fail("build failed")

    os.makedirs(WORK, exist_ok=True)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve", SERVE, "--work", WORK]
    if args.reduced:
        cmd.append("--reduced")
    # A session of its own, so a timeout also stops the daemon it spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return fail("workload did not finish in %d s" % RUN_TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(out)
        return fail("workload exited with %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(out)
        return fail("no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return fail("malformed result line")
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
