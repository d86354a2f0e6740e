#!/usr/bin/env python3
"""Build and run the repo benchmark (ccbench) from the root of a checkout.

    python3 ccbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 ccbench/run.py --selftest      # build and run the self-tests
    python3 ccbench/run.py --summary       # self-time table of all traces

The first call configures and builds the unicc libraries plus the
benchmark binary (Release) under .bench_build/; later calls reuse that
build. The binary's last stdout line is the JSON result row; this script
forwards its output and exit code. Traced runs (--trace 1) write
.bench_out/trace-NAME-seedN.json.
"""

import argparse
import glob
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "ccbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
# A run must end within 180 s; the binary stops itself well before, and
# this bound kills (and reaps) it if it does not.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("ccbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_dir, selftest):
    """Configures (once) and builds; build output goes to stderr on error."""
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no %s at the checkout root %s: the benchmark builds the "
                 "program from source" % (need, ROOT))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DCCBENCH_SELFTEST=" + ("ON" if selftest else "OFF")])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail("build step failed: " + " ".join(cmd))


def run(cmd):
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s: %s" % (RUN_TIMEOUT_S, " ".join(cmd)))
    return proc.returncode


def summary():
    """Prints self time per layer (rows) per workload (columns)."""
    traces = {}
    for path in sorted(glob.glob(os.path.join(OUT_DIR, "trace-*.json"))):
        with open(path) as f:
            t = json.load(f)
        traces["%s/%s" % (t["workload"], t["seed"])] = t["self_time_s"]
    if not traces:
        fail("no traces under %s; run with --trace 1 first" % OUT_DIR)
    layers = sorted({name for st in traces.values() for name in st})
    cols = list(traces)
    print("self time per layer, seconds (share of the traced pass)")
    print("%-30s" % "span" + "".join("%24s" % c for c in cols))
    for layer in layers:
        label = layer
        if layer == "runner.run":
            label = "runner.run (event loop)"
        cells = []
        for c in cols:
            total = sum(traces[c].values())
            v = traces[c].get(layer, 0.0)
            cells.append("%24s" % ("%.4f (%5.1f%%)" % (v, 100 * v / total)))
        print("%-30s" % label + "".join(cells))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--summary", action="store_true")
    a = p.parse_args()

    if a.summary:
        return summary()
    if a.selftest:
        build_dir = os.path.join(BUILD_ROOT, "ccbench-selftest")
        build(build_dir, selftest=True)
        return run([os.path.join(build_dir, "ccbench_selftest")])
    if not a.workload:
        fail("--workload is required")
    build_dir = os.path.join(BUILD_ROOT, "ccbench")
    build(build_dir, selftest=False)
    sys.stdout.flush()
    return run([os.path.join(build_dir, "ccbench"), "--workload", a.workload,
                "--seed", str(a.seed), "--seconds", str(a.seconds),
                "--trace", str(a.trace), "--root", ROOT])


if __name__ == "__main__":
    sys.exit(main())
