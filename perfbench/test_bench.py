#!/usr/bin/env python3
"""The benchmark's own tests, on tiny inputs (--short). Run from the
repo root:

    python3 perfbench/test_bench.py

- every workload runs end to end, untraced and traced, with correct
  outputs and exactly the metrics BENCHMARK.json declares;
- two traced runs with one seed give identical exact counts, and two
  untraced simulate runs identical simulated metrics;
- a held-out seed passes the correctness gate;
- the traced map-* requests' spans cover their root to within 5%;
- in a directory with only BENCHMARK.json and perfbench/, the command
  fails without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Per-layer metrics that are exact counts or simulated values: they
# must repeat exactly for one seed.
EXACT = [
    "ir.sets", "core.line_memo.lines", "cme.tier_symbolic_accesses",
    "cme.tier_periodic_accesses", "cme.tier_traced_accesses",
    "core.analysis.replay_accesses", "core.balance.cost_calls",
    "core.balance.moved_pct", "core.analysis.mai_error",
    "core.analysis.cai_error", "machine.accesses",
] + [m["name"] for m in SPEC["per_layer"]
     if m["name"].startswith(("machine.cycles.", "noc.", "cache.", "mem."))]


def run(workload, seed, trace, cwd=ROOT):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--short"]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=600)
    return p


def result(workload, seed, trace):
    p = run(workload, seed, trace)
    assert p.returncode == 0, (workload, trace, p.returncode, p.stderr[-2000:])
    r = json.loads(p.stdout.strip().split("\n")[-1])
    assert set(r) == {"correct", "attempted", "failed", "metrics"}, r
    assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1, r
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert [(m["name"], m["unit"]) for m in want] == [
        (k, v["unit"]) for k, v in r["metrics"].items()], (workload, trace)
    return {k: v["value"] for k, v in r["metrics"].items()}


def main():
    failures = []

    def check(name, f):
        try:
            f()
            print("ok  ", name, flush=True)
        except AssertionError as e:
            failures.append(name)
            print("FAIL", name, e, flush=True)

    def end_to_end(w):
        m = result(w, 1, 0)
        assert all(v != 0 for v in m.values()), m

    def traced_repeats(w):
        a, b = result(w, 1, 1), result(w, 1, 1)
        diff = {k: (a[k], b[k]) for k in EXACT if a[k] != b[k]}
        assert not diff, diff
        if w.startswith("map-"):
            assert a["obs.span_coverage_pct"] >= 95, a["obs.span_coverage_pct"]

    def simulated_repeats():
        a, b = result("simulate", 1, 0), result("simulate", 1, 0)
        for k in ("exec_reduction_pct", "net_latency_reduction_pct"):
            assert a[k] == b[k], (k, a[k], b[k])

    def held_out(w):
        result(w, 7, 0)

    def bare_directory():
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(d, "perfbench"))
            p = run(WORKLOADS[0], 1, 0, cwd=d)
            assert p.returncode != 0, p.returncode
            assert '"metrics"' not in p.stdout, p.stdout

    for w in WORKLOADS:
        check(f"{w} end to end", lambda: end_to_end(w))
        check(f"{w} traced counts repeat", lambda: traced_repeats(w))
        check(f"{w} held-out seed", lambda: held_out(w))
    check("simulate results repeat", simulated_repeats)
    check("fails without the sources", bare_directory)
    if failures:
        print(f"{len(failures)} failed")
        return 1
    print("all passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
