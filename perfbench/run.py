#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the root of a locmap checkout:

    python3 perfbench/run.py --workload map-regular --seed 1 --seconds 30 --trace 0

It builds perfbench/bench.exe and the locmap server into .bench_build
(dune, release profile, no shared cache), then runs the benchmark. The
benchmark's standard output ends with one JSON result line; see
perfbench/README.md. Exits non-zero when the build fails, when the
checkout holds no locmap sources, or when any output mismatches its
committed reference.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ["map-regular", "map-irregular", "serve-zipf", "simulate"]
BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170


def build():
    cmd = [
        "dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
        "--profile", "release", "--cache", "disabled",
        "./perfbench/bench.exe", "./bin/locmap_cli.exe",
    ]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: no locmap sources here (run from the repo root)",
              file=sys.stderr)
        return 2
    if build() != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2

    out = os.path.join(BUILD_DIR, "default")
    cmd = [
        os.path.join(out, "perfbench", "bench.exe"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--server", os.path.join(out, "bin", "locmap_cli.exe"),
        "--expected", os.path.join("perfbench", "expected"),
        "--out-dir", os.path.join(BUILD_DIR, "perfbench"),
    ] + (["--short"] if args.short else [])
    # Its own session, so a timeout or a signal stops the server too.
    proc = subprocess.Popen(cmd, start_new_session=True)

    def stop(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    def on_signal(signum, _frame):
        stop()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        stop()
        return 3


if __name__ == "__main__":
    sys.exit(main())
