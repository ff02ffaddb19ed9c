#!/usr/bin/env python3
"""Gateway benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (and through it the
library) in .bench_build/, runs the helper self-test, then the
workload. With --trace 0 it also times set-up in fresh processes and
reports the median as setup_s. The last line of standard output is the
result JSON; any failure before it exits non-zero without one.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

BUILD = ".bench_build"
RUN_DIR = os.path.join(BUILD, "perfbench-run")
BIN = os.path.join(BUILD, "saiyan_perfbench")
SELFTEST = os.path.join(BUILD, "perfbench_selftest")
# Cold set-ups per run, each in a fresh process (the process-wide
# template and FFT-plan caches fill once per process). The measured
# run's own set-up is one more sample.
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 150


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, capture=True):
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    except OSError as e:
        fail("cannot run %s: %s" % (cmd[0], e))


def build():
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(here, "..", "CMakeLists.txt")):
        fail("no library sources next to perfbench/ (run from a checkout)")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", here, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "saiyan_perfbench",
         "perfbench_selftest"],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))


def last_json(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    build()
    r = run([SELFTEST], 60)
    if r.returncode != 0:
        fail("helper self-test failed")

    common = ["--workload", a.workload, "--seed", str(a.seed),
              "--out-dir", RUN_DIR]
    setups = []
    if a.trace == 0:
        for _ in range(SETUP_PROBES):
            p = run([BIN, "--setup-only", "--seconds", "1"] + common,
                    CHILD_TIMEOUT_S)
            got = last_json(p.stdout)
            if p.returncode != 0 or not got or "setup_s" not in got:
                fail("set-up probe failed")
            setups.append(got["setup_s"])

    main_run = run([BIN, "--seconds", str(a.seconds), "--trace", str(a.trace)]
                   + common, CHILD_TIMEOUT_S)
    out = main_run.stdout
    result = last_json(out)
    if result is None or main_run.returncode not in (0, 1):
        sys.stdout.write(out)
        fail("benchmark run failed (exit %d)" % main_run.returncode)
    body = out.splitlines()[:-1]
    if setups:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        body.append("setup_s samples: " + " ".join("%.4f" % s for s in setups))
    print("\n".join(body))
    print(json.dumps(result))
    sys.exit(main_run.returncode)


if __name__ == "__main__":
    main()
